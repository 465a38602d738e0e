"""Incremental termination protocol (paper §3.3, after Potter et al.).

Machine *k* may declare stage *n* complete — broadcasting COMPLETED(n) —
once it can prove it will never again produce work from stage *n*:

* ``n == 0``: bootstrapping is finished; for ``n > 0``: every machine
  (including *k* itself) has completed stage ``n - 1``, so no new
  stage-*n* contexts can ever arrive;
* all received stage-*n* contexts have been fully processed
  (``stage_load[n] == 0`` — inbox items and live traversal frames); and
* all output generated *by* stage *n* (the buffers targeting stage
  ``n + 1``) has been handed to the network.

Because the network is FIFO per channel, a COMPLETED(n) can never
overtake the sender's earlier stage-(n+1) work messages, which makes the
receiver-side "inbox empty" check sound.

The query is finished on machine *k* when *k* knows every machine has
completed every stage.
"""


class TerminationTracker:
    """Per-machine bookkeeping for the COMPLETED protocol."""

    def __init__(self, num_stages, num_machines, machine_id):
        self._num_stages = num_stages
        self._num_machines = num_machines
        self._machine_id = machine_id
        #: completed[n] = set of machines known to have completed stage n.
        self._completed = [set() for _ in range(num_stages)]
        self._sent = [False] * num_stages
        #: Number of stages whose completion set is full.  Sets only
        #: ever grow, so this only counts up and :meth:`all_complete`
        #: is one compare however often it is polled.
        self._stages_complete = 0

    # ------------------------------------------------------------------
    def on_completed(self, stage, machine):
        self._record(stage, machine)

    def _record(self, stage, machine):
        done = self._completed[stage]
        if machine not in done:  # reliability may replay a COMPLETED
            done.add(machine)
            if len(done) == self._num_machines:
                self._stages_complete += 1

    def sent(self, stage):
        return self._sent[stage]

    def mark_sent(self, stage):
        self._sent[stage] = True
        self._record(stage, self._machine_id)

    def stage_globally_complete(self, stage):
        return len(self._completed[stage]) == self._num_machines

    def predecessor_complete(self, stage):
        """True when every machine completed every stage before *stage*."""
        if stage == 0:
            return True
        return self.stage_globally_complete(stage - 1)

    def all_complete(self):
        return self._stages_complete == self._num_stages

    def progress_summary(self):
        """Compact per-stage completion snapshot, e.g. ``"stages
        complete: 3/3, 1/3, 0/3"`` — attached to ``QueryAborted`` so an
        aborted run reports how far the termination wavefront got."""
        return "stages complete: " + ", ".join(
            "%d/%d" % (len(done), self._num_machines)
            for done in self._completed
        )

    def newly_completable(self, stage, bootstrap_done, stage_load,
                          outbuf_empty):
        """Can this machine declare *stage* complete right now?

        *stage_load* — unconsumed inbox items plus live frames at *stage*;
        *outbuf_empty* — no buffered unsent contexts targeting stage+1.
        """
        if self._sent[stage]:
            return False
        if stage == 0 and not bootstrap_done:
            return False
        if not self.predecessor_complete(stage):
            return False
        return stage_load == 0 and outbuf_empty
