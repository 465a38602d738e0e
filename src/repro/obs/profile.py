"""Profile folded out of a recording.

A recording holds *events* and the sampled *series*; this module turns
them into the per-stage / per-machine figures the paper's claims are
judged with:

* **worker utilization** per machine (is a machine idle because of flow
  control, skew, or lack of work?) and its **peak buffered contexts**
  (the §3.3 bounded-memory claim) — read off the series;
* **per-stage stall accounting** — distinct ticks on which a stage's
  sends were refused, plus quota-borrowing traffic (§3.3 dynamic memory
  management);
* **time to first result** and per-stage completion ticks (§3.4
  incremental termination).
"""


class TraceProfile:
    """Aggregated view of one query's recording."""

    def __init__(self, recording):
        self.meta = dict(recording.meta)
        #: Set when the recording discarded events at ``max_events`` —
        #: every event-derived figure below then under-counts
        #: (utilization and peak buffered read the series and do not).
        self.truncation = recording.truncation()
        #: The recording's per-tick sampler.
        self.series = recording.series
        num_machines = self.meta.get("num_machines", 0)
        num_stages = self.meta.get("num_stages", 0)

        #: stage -> distinct ticks with at least one refused send.
        self.stage_blocked_ticks = {}
        #: stage -> {"requests": n, "grants": n, "granted": total_amount}.
        self.stage_quota = {}
        #: stage -> tick of the first COMPLETED declaration, and the tick
        #: the stage became complete on every machine.
        self.stage_first_completed = {}
        self.stage_all_completed = {}
        #: Tick of the first emitted result row (None when no results).
        self.first_result_tick = None
        #: stage -> contexts shipped into it via WorkMessages (send side).
        self.stage_work_messages = {}
        self.ghost_prunes = 0

        completed_per_stage = {}
        blocked = {}
        for event in recording.events:
            kind = event.kind
            if kind == "flow_block":
                blocked.setdefault(event.stage, set()).add(event.tick)
            elif kind == "quota_request":
                entry = self.stage_quota.setdefault(
                    event.stage, {"requests": 0, "grants": 0, "granted": 0}
                )
                entry["requests"] += 1
            elif kind == "quota_grant":
                entry = self.stage_quota.setdefault(
                    event.stage, {"requests": 0, "grants": 0, "granted": 0}
                )
                entry["grants"] += 1
                entry["granted"] += event.amount
            elif kind == "stage_completed":
                self.stage_first_completed.setdefault(event.stage, event.tick)
                done = completed_per_stage.setdefault(event.stage, set())
                done.add(event.machine)
                if num_machines and len(done) == num_machines:
                    self.stage_all_completed.setdefault(
                        event.stage, event.tick
                    )
            elif kind == "result":
                if self.first_result_tick is None:
                    self.first_result_tick = event.tick
            elif kind == "message_send":
                if event.payload == "WorkMessage":
                    self.stage_work_messages[event.stage] = (
                        self.stage_work_messages.get(event.stage, 0) + 1
                    )
            elif kind == "ghost_prune":
                self.ghost_prunes += 1

        self.stage_blocked_ticks = {
            stage: len(ticks) for stage, ticks in blocked.items()
        }
        # A single-machine run broadcasts no COMPLETED messages but is
        # trivially globally complete once declared locally.
        if num_machines == 1:
            for stage, tick in self.stage_first_completed.items():
                self.stage_all_completed.setdefault(stage, tick)
        self.num_stages = num_stages

    # ------------------------------------------------------------------
    def worker_utilization(self, machine):
        """Busy fraction of *machine*'s workers over the run's ticks:
        each sample's ops (capped at what its elapsed ticks could hold)
        over the whole duration, so neither the sampling interval nor a
        fast-forwarded stretch changes the answer."""
        columns = self.series.machines.get(machine)
        capacity = (
            self.meta.get("workers_per_machine", 1)
            * self.meta.get("ops_per_tick", 1)
        )
        ticks = self.meta.get("ticks", 0)
        if not columns or capacity <= 0 or ticks <= 0:
            return 0.0
        busy = sum(
            min(ops, capacity * span)
            for ops, span in zip(columns["ops"], self.series.spans)
        )
        return busy / (capacity * ticks)

    def peak_buffered(self, machine):
        columns = self.series.machines.get(machine)
        if not columns or not columns["buffered_max"]:
            return 0
        return max(columns["buffered_max"])

    def stage_stats(self, stage):
        """Per-stage summary dict used by EXPLAIN ANALYZE and the CLI."""
        quota = self.stage_quota.get(
            stage, {"requests": 0, "grants": 0, "granted": 0}
        )
        return {
            "blocked_ticks": self.stage_blocked_ticks.get(stage, 0),
            "quota_requests": quota["requests"],
            "quota_granted": quota["granted"],
            "work_messages": self.stage_work_messages.get(stage, 0),
            "completed_at": self.stage_all_completed.get(stage),
        }

    def machine_lines(self):
        """One line per machine: utilization and peak buffered."""
        return ["machine %d: utilization=%.1f%% peak_buffered=%d"
                % (m, 100 * self.worker_utilization(m), self.peak_buffered(m))
                for m in sorted(self.series.machines)]

    def summary(self):
        """Multi-line human summary of the run's dynamics."""
        lines = []
        if self.truncation:
            lines.append(self.truncation)
        ticks = self.meta.get("ticks")
        if ticks is not None:
            lines.append("duration: %d ticks" % ticks)
        if self.first_result_tick is not None:
            lines.append(
                "time to first result: tick %d" % self.first_result_tick
            )
        lines.extend(self.machine_lines())
        for stage in range(self.num_stages):
            stats = self.stage_stats(stage)
            completed = stats["completed_at"]
            lines.append(
                "stage %d: blocked_ticks=%d quota_req=%d quota_granted=%d "
                "msgs=%d completed_at=%s"
                % (
                    stage,
                    stats["blocked_ticks"],
                    stats["quota_requests"],
                    stats["quota_granted"],
                    stats["work_messages"],
                    "-" if completed is None else completed,
                )
            )
        return "\n".join(lines)
