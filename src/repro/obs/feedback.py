"""Plan-vs-actual observability: execution profiles, drift, and feedback.

PR 7's cost model prices every candidate plan and records the estimated
rows after each logical operator (``CostEstimate.stage_rows``); nothing
measured what actually happened.  This module closes that loop in two
layers over the per-stage counters every machine keeps in its
:class:`~repro.cluster.metrics.MachineMetrics` (contexts entering each
stage, neighbor candidates scanned, vertex-function passes,
continuations emitted).  Both kernel sets charge them unconditionally,
so the differential oracle (kernels on vs off) covers the profile
bit-for-bit:

* :class:`ExecutionProfile` — the join of estimates against actuals:
  per-operator q-error, per-machine skew/imbalance ratios, and a
  straggler summary.  ``--explain-analyze`` renders it, and a recorded
  run keeps it as ``recording.drift``, which the Prometheus export
  renders as the drift and skew gauges.
* :class:`FeedbackStore` — profiles persisted to a deterministic
  on-disk JSON document keyed by query/graph fingerprint;
  :meth:`FeedbackStore.corrections` turns recorded actuals into
  per-operator selectivity correction factors the
  :class:`~repro.plan.cost.CostModel` applies on re-planning
  (``SchedulingPolicy.COST`` only).
"""

import hashlib
import json
import os

from repro.cluster.metrics import STAGE_COUNTERS
from repro.errors import PlanError

#: Cardinality floor for q-error: estimates and actuals below one row
#: are indistinguishable, so both sides are clamped to 1 before the
#: ratio (the standard convention from the cardinality-estimation
#: literature).
Q_ERROR_FLOOR = 1.0

#: Clamp range for feedback correction factors.  A recorded run only
#: observes one plan; wildly large factors would let a single profile
#: dominate re-planning, so corrections saturate at two orders of
#: magnitude either way.
CORRECTION_MIN = 0.01
CORRECTION_MAX = 100.0

#: On-disk feedback document schema; bump on incompatible changes.
FEEDBACK_SCHEMA = "repro-feedback/1"


def q_error(estimated, actual):
    """The symmetric estimation-error ratio ``max(est/act, act/est)``.

    Always >= 1; 1.0 means the estimate was exact.  Both sides are
    floored at :data:`Q_ERROR_FLOOR` so sub-row estimates compare
    sanely.
    """
    est = max(float(estimated), Q_ERROR_FLOOR)
    act = max(float(actual), Q_ERROR_FLOOR)
    return max(est / act, act / est)


class ExecutionProfile:
    """Estimates joined against actuals for one executed query.

    ``stages`` holds the across-machine sum of every per-stage counter
    and ``per_machine`` one ``{"machine": id, counter: list}`` row per
    machine.  ``operators`` rows join ``CostEstimate.stage_rows`` (when
    the plan was cost-chosen) against the passes of the last compiled
    stage each logical operator lowered to; ``skew`` rows measure
    per-stage imbalance as the max/mean ratio of machine visit counts.
    """

    def __init__(self, stages, per_machine, operators, skew, straggler):
        self.stages = stages
        self.per_machine = per_machine
        self.operators = operators
        self.skew = skew
        self.straggler = straggler

    # -- aggregates ----------------------------------------------------
    def max_q_error(self):
        errors = [row["q_error"] for row in self.operators
                  if row["q_error"] is not None]
        return max(errors) if errors else None

    def geomean_q_error(self):
        errors = [row["q_error"] for row in self.operators
                  if row["q_error"] is not None]
        if not errors:
            return None
        product = 1.0
        for error in errors:
            product *= error
        return product ** (1.0 / len(errors))

    # -- rendering -----------------------------------------------------
    def drift_lines(self):
        """The EXPLAIN ANALYZE estimated-vs-actual (q-error) column."""
        if not self.operators:
            return []
        lines = ["estimated vs actual rows (q-error):"]
        for row in self.operators:
            if row["actual"] is None:
                lines.append(
                    "  op[%d] %-44s est~%-10.2f actual=?"
                    % (row["op_index"], _clip(row["op"], 44),
                       row["estimated"])
                )
            else:
                lines.append(
                    "  op[%d] %-44s est~%-10.2f actual=%-8d q=%.2f"
                    % (row["op_index"], _clip(row["op"], 44),
                       row["estimated"], row["actual"], row["q_error"])
                )
        worst = self.max_q_error()
        if worst is not None:
            lines.append("  worst q-error: %.2f" % worst)
        return lines

    def skew_lines(self):
        """The per-machine skew section."""
        if not self.skew:
            return []
        lines = ["per-machine skew (stage visits, max/mean):"]
        for row in self.skew:
            lines.append(
                "  stage %-2d ratio=%-6.2f max=%-8d (machine %d) mean=%.1f"
                % (row["stage"], row["ratio"], row["max"],
                   row["max_machine"], row["mean"])
            )
        if self.straggler is not None:
            lines.append(
                "  straggler: machine %d carried %.1f%% of the load "
                "(%d of %d visit+scan ops)"
                % (self.straggler["machine"], self.straggler["share"]
                   * 100.0, self.straggler["load"],
                   self.straggler["total"])
            )
        return lines

    def summary_lines(self):
        return self.drift_lines() + self.skew_lines()

    def to_dict(self):
        return {
            "stages": self.stages,
            "per_machine": self.per_machine,
            "operators": self.operators,
            "skew": self.skew,
            "straggler": self.straggler,
            "max_q_error": self.max_q_error(),
            "geomean_q_error": self.geomean_q_error(),
        }


def _clip(text, width):
    return text if len(text) <= width else text[: width - 3] + "..."


def build_execution_profile(plan, metrics, estimates=True):
    """Join *plan* estimates against the actuals in *metrics*' per-machine
    records.

    Works for any plan: without a cost-chosen estimate — or with
    *estimates* False, for a union whose expansions were planned
    separately — the operator drift rows are empty but stage totals and
    skew still report.
    """
    stages = metrics.stage_profile()
    per_machine = [
        dict(machine=machine_id, **{
            name: list(getattr(machine, "stage_" + name))
            for name in STAGE_COUNTERS
        })
        for machine_id, machine in enumerate(metrics.per_machine)
    ]
    operators = _join_operators(plan, stages) if estimates else []
    skew, straggler = _skew_rows(per_machine, len(stages))
    return ExecutionProfile(stages, per_machine, operators, skew,
                            straggler)


def _join_operators(plan, stages):
    choice = getattr(plan, "choice", None)
    chosen = getattr(choice, "chosen", None) if choice is not None \
        else None
    if chosen is None:
        return []
    # The distributed lowering threads ``op_index`` onto every visit it
    # emits for a logical operator; the *last* stage of an operator is
    # the one whose passes equal the rows surviving it.
    last_stage_for_op = {}
    for stage in plan.stages:
        op_index = getattr(stage, "op_index", None)
        if op_index is not None:
            last_stage_for_op[op_index] = stage.index
    rows = []
    for op_index, (op_repr, estimated) in enumerate(
        chosen.estimate.stage_rows
    ):
        stage_index = last_stage_for_op.get(op_index)
        actual = (
            stages[stage_index]["passes"]
            if stage_index is not None and stage_index < len(stages)
            else None
        )
        rows.append({
            "op_index": op_index,
            "op": op_repr,
            "stage": stage_index,
            "estimated": estimated,
            "actual": actual,
            "q_error": (
                q_error(estimated, actual) if actual is not None else None
            ),
        })
    return rows


def _skew_rows(per_machine, num_stages):
    if not per_machine:
        return [], None
    skew = []
    for stage in range(num_stages):
        values = [row["visits"][stage] for row in per_machine]
        total = sum(values)
        if total == 0:
            continue
        mean = total / float(len(values))
        peak = max(values)
        peak_machine = per_machine[values.index(peak)]["machine"]
        skew.append({
            "stage": stage,
            "max": peak,
            "max_machine": peak_machine,
            "mean": mean,
            "ratio": peak / mean if mean > 0 else 1.0,
        })
    # Work proxy for straggler detection: visits + scans.
    loads = [(sum(row["visits"]) + sum(row["scanned"]), row["machine"])
             for row in per_machine]
    total_load = sum(load for load, _mid in loads)
    straggler = None
    if total_load > 0:
        peak_load, peak_machine = max(loads)
        straggler = {
            "machine": peak_machine,
            "load": peak_load,
            "total": total_load,
            "share": peak_load / float(total_load),
        }
    return skew, straggler


# ----------------------------------------------------------------------
# Fingerprints and the on-disk feedback store
# ----------------------------------------------------------------------
def query_fingerprint(query, graph=None):
    """Deterministic fingerprint of (canonical PGQL text, graph shape).

    The canonical printer (round-trip property-tested) makes textually
    different but identical queries share a fingerprint; the graph's
    vertex/edge counts scope recorded actuals to the data they were
    measured on.
    """
    from repro.pgql.printer import to_pgql

    text = to_pgql(query)
    if graph is not None:
        text = "%s|%d|%d" % (text, graph.num_vertices, graph.num_edges)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _entries_problem(queries):
    """Why a loaded ``queries`` object is not fingerprint -> entry as
    :meth:`FeedbackStore.record` writes them, or None."""
    if not isinstance(queries, dict):
        return "'queries' is not an object"
    for key, entry in sorted(queries.items()):
        rows = entry.get("operators") if isinstance(entry, dict) else None
        if not isinstance(rows, list) or not all(
            name in entry for name in ("pgql", "order", "use_common_neighbors")
        ) or not all(
            isinstance(row, dict) and "op" in row
            and isinstance(row.get("estimated"), (int, float))
            and isinstance(row.get("actual"), (int, float))
            for row in rows
        ):
            return ("entry %r is not a recorded plan with an 'operators' "
                    "list" % key)
    return None


class FeedbackStore:
    """Execution profiles persisted for the planner's feedback loop.

    One JSON document (schema :data:`FEEDBACK_SCHEMA`), keyed by
    :func:`query_fingerprint`, each entry recording the chosen order and
    the per-operator estimated/actual row sequence.  Serialization is
    deterministic (sorted keys) so two identical runs write identical
    bytes.
    """

    def __init__(self, path=None):
        self.path = path
        self._entries = {}
        if path is not None and os.path.exists(path):
            self.load(path)

    def __len__(self):
        return len(self._entries)

    def entries(self):
        """``(fingerprint, entry)`` pairs in deterministic order."""
        return sorted(self._entries.items())

    # -- persistence ---------------------------------------------------
    def load(self, path=None):
        """Read the store at *path*; anything but a readable
        :data:`FEEDBACK_SCHEMA` document whose ``queries`` are entries
        as :meth:`record` writes them is a :class:`PlanError`."""
        path = path or self.path
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except (OSError, ValueError) as exc:
            raise PlanError("cannot read feedback store %s: %s"
                            % (path, exc))
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != FEEDBACK_SCHEMA:
            raise PlanError(
                "%s is not a %s document (schema=%r)"
                % (path, FEEDBACK_SCHEMA, schema)
            )
        queries = doc.get("queries", {})
        problem = _entries_problem(queries)
        if problem is not None:
            raise PlanError("%s is not a valid feedback store: %s"
                            % (path, problem))
        self._entries = queries
        return self

    def save(self, path=None):
        path = path or self.path
        doc = {"schema": FEEDBACK_SCHEMA, "queries": self._entries}
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def to_dict(self):
        return {"schema": FEEDBACK_SCHEMA, "queries": dict(self.entries())}

    # -- recording and consumption -------------------------------------
    def record(self, query, graph, choice, profile):
        """Record one executed cost-chosen plan's estimate-vs-actual
        operator rows; returns the fingerprint (None without a cost
        choice to join against)."""
        from repro.pgql.printer import to_pgql

        chosen = getattr(choice, "chosen", None) if choice is not None \
            else None
        if chosen is None or not profile.operators:
            return None
        key = query_fingerprint(query, graph)
        self._entries[key] = {
            "pgql": to_pgql(query),
            "order": list(choice.order),
            "use_common_neighbors": bool(choice.use_common_neighbors),
            "operators": [
                {
                    "op": row["op"],
                    "estimated": row["estimated"],
                    "actual": row["actual"],
                }
                for row in profile.operators
                if row["actual"] is not None
            ],
        }
        return key

    def corrections(self, query, graph=None):
        """Per-operator selectivity correction factors for *query*.

        Factors compare the recorded run's per-operator *selectivity*
        (rows out per row in) against the model's, so they telescope:
        re-pricing the recorded plan with corrections applied
        reproduces its actual cardinalities exactly, while operators
        shared by other candidate orders get a per-context correction
        that transfers without compounding.  Keyed by operator repr;
        clamped to [:data:`CORRECTION_MIN`, :data:`CORRECTION_MAX`].
        """
        entry = self._entries.get(query_fingerprint(query, graph))
        if entry is None:
            return {}
        factors = {}
        prev_est = 1.0
        prev_act = 1.0
        for row in entry["operators"]:
            est = max(float(row["estimated"]), Q_ERROR_FLOOR)
            act = max(float(row["actual"]), Q_ERROR_FLOOR)
            est_selectivity = est / max(prev_est, Q_ERROR_FLOOR)
            act_selectivity = act / max(prev_act, Q_ERROR_FLOOR)
            factor = act_selectivity / est_selectivity
            factors[row["op"]] = min(
                CORRECTION_MAX, max(CORRECTION_MIN, factor)
            )
            prev_est, prev_act = est, act
        return factors
