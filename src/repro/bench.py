"""Benchmark harness with a regression gate (``repro bench``).

Runs a fixed, seeded workload matrix through the engine and writes one
``BENCH_<tag>.json`` document (schema ``repro-bench/1``) recording, per
workload: simulated ticks, total micro-ops, result rows, the peak
buffered-context high-water mark against the flow-control budget, and
the per-stage profile.  ``--compare`` diffs two documents over their
common workloads and fails (exit code :data:`EXIT_REGRESSION`) when a
gated metric regressed by more than the threshold.

Two design rules keep comparisons honest:

* the ``--quick`` matrix is a strict subset of the full matrix — same
  graphs, same queries, same cluster shape — so a quick CI run compares
  validly against a full baseline on the common keys;
* every recorded quantity is a pure function of the seed, so two runs
  of the same matrix write byte-identical documents and a loaded CI box
  cannot flake the build.  Host time is the ledger's business
  (``ledger/``, ``BENCHMARK.json``), not this module's.
"""

import json

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import QueryMetrics
from repro.errors import ReproError
from repro.plan import PlannerOptions, SchedulingPolicy
from repro.runtime.engine import PgxdAsyncEngine
from repro.workloads.random_graphs import seeded_workload
from repro.workloads.skewed import skewed_workload

#: Document schema identifier; bump on incompatible layout changes.
SCHEMA = "repro-bench/1"

#: Exit code for ``--compare`` detecting a regression (distinct from
#: usage errors and aborted queries).
EXIT_REGRESSION = 4

#: The workload matrix.  ``quick=True`` rows form the CI subset; every
#: row is fully determined by (spec, seed), so two runs of the same
#: matrix at the same seed measure identical simulations.
WORKLOADS = (
    ("random_300x1200_q3e3",
     dict(vertices=300, edges=1200, queries=3, query_edges=3, machines=4,
          quick=True)),
    ("random_600x3000_q3e4",
     dict(vertices=600, edges=3000, queries=3, query_edges=4, machines=4,
          quick=True)),
    ("random_1000x5000_q4e4",
     dict(vertices=1000, edges=5000, queries=4, query_edges=4, machines=8,
          quick=False)),
    # Planner pillar: the skewed music-industry workload, executed under
    # the cost-based policy for the gated metrics with a naive
    # appearance-order rerun recorded alongside (``naive_*`` fields plus
    # ``planner_rows_match``) so CI can assert the planner both beats
    # the textual order and returns bit-identical rows.
    ("skewed_planner_300p_q4",
     dict(kind="planner", persons=300, bands=8, songs=40, fans=900,
          likes=600, machines=4, quick=True)),
)

#: Metrics the regression gate inspects.
GATED_METRICS = ("ticks", "total_ops")


def _record(engine, queries, options):
    """Run *queries* and fold their results into one workload record;
    returns ``(record, results)``."""
    config = engine.config
    combined = QueryMetrics()
    results = []
    for query in queries:
        result = engine.query(query, options)
        combined.merge(result.metrics)
        results.append(result)
    stages = max((result.plan.num_stages for result in results), default=0)
    record = {
        "ticks": combined.ticks,
        "total_ops": combined.total_ops,
        "rows": sum(len(result.rows) for result in results),
        "work_messages": combined.work_messages,
        "peak_buffered_contexts": combined.peak_buffered_contexts,
        "budget": stages * (config.num_machines - 1)
        * config.bulk_message_size * (config.flow_control_window + 1),
        "queries": len(queries),
        "stage_profile": combined.stage_profile(("visits", "passes",
                                                 "remote_in")),
    }
    return record, results


def workload_setup(spec, seed=0, bulk_kernels=True):
    """Instantiate one matrix row: ``(engine, queries, options)``.

    The planner pillar plans under the cost-based policy; every other
    row runs its queries in appearance order.
    """
    config = ClusterConfig(
        num_machines=spec["machines"], seed=seed, bulk_kernels=bulk_kernels
    )
    if spec.get("kind") == "planner":
        graph, queries = skewed_workload(
            config,
            num_persons=spec["persons"],
            num_bands=spec["bands"],
            num_songs=spec["songs"],
            fan_edges=spec["fans"],
            likes_edges=spec["likes"],
        )
        options = PlannerOptions(scheduling=SchedulingPolicy.COST)
    else:
        graph, queries = seeded_workload(
            config,
            num_vertices=spec["vertices"],
            num_edges=spec["edges"],
            num_queries=spec["queries"],
            query_edges=spec["query_edges"],
        )
        options = PlannerOptions()
    return PgxdAsyncEngine(graph, config), queries, options


def run_workload(key, spec, seed=0, bulk_kernels=True):
    """Execute one workload row; returns its result record.

    *bulk_kernels* toggles the compiled fast path
    (:mod:`repro.runtime.kernels`); both settings produce identical
    deterministic metrics, so either may be gated against a baseline.
    """
    if spec.get("kind") == "planner":
        return run_planner_workload(key, spec, seed=seed,
                                    bulk_kernels=bulk_kernels)
    return _record(*workload_setup(spec, seed, bulk_kernels))[0]


def run_planner_workload(key, spec, seed=0, bulk_kernels=True):
    """The cost-based-planner pillar: skewed workload, three plan runs.

    The gated metrics (``ticks``, ``total_ops``) measure the cost-based
    runs, whose stage profiles also give the record the aggregate
    estimate-error metrics
    (``estimate_q_error_max`` / ``estimate_q_error_geomean``).  The same
    queries are then re-run under the naive appearance order (``naive_*``
    fields, ``planner_rows_match``), and a third time under the cost
    policy with the recorded profiles fed back as selectivity
    corrections (``feedback_*`` fields, ``feedback_rows_match``).  CI
    gates on the deltas: the planner must beat the textual order, and
    the feedback-corrected plans must return bit-identical rows and
    never be worse than the stats-only cost plans.
    """
    from repro.obs.feedback import FeedbackStore

    engine, queries, cost_options = workload_setup(spec, seed, bulk_kernels)
    naive_options = PlannerOptions()
    record, results = _record(engine, queries, cost_options)
    cost_rows = []
    store = FeedbackStore()
    q_errors = []
    for result in results:
        cost_rows.append(sorted(result.rows))
        profile = result.execution_profile()
        if profile is not None:
            q_errors.extend(
                row["q_error"] for row in profile.operators
                if row["q_error"] is not None
            )
            store.record(result.plan.query, result.plan.graph,
                         result.plan.choice, profile)
    if q_errors:
        product = 1.0
        for error in q_errors:
            product *= error
        record["estimate_q_error_max"] = round(max(q_errors), 4)
        record["estimate_q_error_geomean"] = round(
            product ** (1.0 / len(q_errors)), 4
        )
    naive = {"ticks": 0, "total_ops": 0, "work_messages": 0}
    rows_match = True
    for query, expected in zip(queries, cost_rows):
        baseline = engine.query(query, naive_options)
        naive["ticks"] += baseline.metrics.ticks
        naive["total_ops"] += baseline.metrics.total_ops
        naive["work_messages"] += baseline.metrics.work_messages
        if sorted(baseline.rows) != expected:
            rows_match = False
    record["naive_ticks"] = naive["ticks"]
    record["naive_total_ops"] = naive["total_ops"]
    record["naive_work_messages"] = naive["work_messages"]
    record["planner_rows_match"] = rows_match
    feedback_options = PlannerOptions(scheduling=SchedulingPolicy.COST,
                                      feedback=store)
    corrected = {"ticks": 0, "total_ops": 0, "work_messages": 0}
    feedback_rows_match = True
    for query, expected in zip(queries, cost_rows):
        rerun = engine.query(query, feedback_options)
        corrected["ticks"] += rerun.metrics.ticks
        corrected["total_ops"] += rerun.metrics.total_ops
        corrected["work_messages"] += rerun.metrics.work_messages
        if sorted(rerun.rows) != expected:
            feedback_rows_match = False
    record["feedback_ticks"] = corrected["ticks"]
    record["feedback_total_ops"] = corrected["total_ops"]
    record["feedback_work_messages"] = corrected["work_messages"]
    record["feedback_rows_match"] = feedback_rows_match
    return record


def run_bench(tag="run", quick=False, seed=0, progress=None,
              bulk_kernels=True):
    """Run the (quick or full) matrix; returns a schema document."""
    workloads = {}
    for key, spec in WORKLOADS:
        if quick and not spec["quick"]:
            continue
        if progress is not None:
            progress("running %s ..." % key)
        workloads[key] = run_workload(
            key, spec, seed=seed, bulk_kernels=bulk_kernels
        )
    totals = {
        name: sum(record[name] for record in workloads.values())
        for name in ("ticks", "total_ops", "rows")
    }
    return {
        "schema": SCHEMA,
        "tag": tag,
        "quick": bool(quick),
        "seed": seed,
        "workloads": workloads,
        "totals": totals,
    }


# ----------------------------------------------------------------------
# Schema validation & IO
# ----------------------------------------------------------------------
_REQUIRED_TOP = ("schema", "tag", "quick", "seed", "workloads", "totals")
_REQUIRED_WORKLOAD = (
    "ticks", "total_ops", "rows", "work_messages",
    "peak_buffered_contexts", "budget", "queries", "stage_profile",
)


def validate(doc):
    """Schema check; returns a list of problems (empty = valid)."""
    problems = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    for key in _REQUIRED_TOP:
        if key not in doc:
            problems.append("missing top-level key %r" % key)
    if doc.get("schema") != SCHEMA:
        problems.append(
            "schema is %r, expected %r" % (doc.get("schema"), SCHEMA)
        )
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        problems.append("workloads must be a non-empty object")
        return problems
    for key, record in workloads.items():
        if not isinstance(record, dict):
            problems.append("workload %s is not an object" % key)
            continue
        for field in _REQUIRED_WORKLOAD:
            if field not in record:
                problems.append("workload %s missing %r" % (key, field))
            elif field != "stage_profile" and not isinstance(
                record[field], (int, float)
            ):
                problems.append(
                    "workload %s field %r is not numeric" % (key, field)
                )
        if isinstance(record.get("stage_profile"), list):
            for index, slot in enumerate(record["stage_profile"]):
                if not isinstance(slot, dict):
                    problems.append(
                        "workload %s stage_profile[%d] is not an object"
                        % (key, index)
                    )
    return problems


def write_bench(doc, path):
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path):
    """The valid document at *path*; a missing, unreadable or invalid
    file is a :class:`~repro.errors.ReproError` naming it."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError("cannot read bench document %s: %s" % (path, exc))
    problems = validate(doc)
    if problems:
        raise ReproError(
            "%s is not a valid %s document: %s"
            % (path, SCHEMA, "; ".join(problems))
        )
    return doc


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------
def compare(current, baseline, threshold=25.0):
    """Diff two documents; returns ``(regressions, report_lines)``.

    Only workloads present in both documents are compared (a quick run
    against a full baseline covers the quick subset).  A regression is a
    gated metric increasing by more than *threshold* percent.
    """
    regressions = []
    lines = []
    common = sorted(
        set(current["workloads"]) & set(baseline["workloads"])
    )
    if not common:
        return (
            [("<none>", "no common workloads", 0.0)],
            ["no common workloads between current and baseline"],
        )
    for key in common:
        cur = current["workloads"][key]
        base = baseline["workloads"][key]
        for metric in GATED_METRICS:
            before, after = base[metric], cur[metric]
            if before <= 0:
                continue
            change = 100.0 * (after - before) / before
            marker = ""
            if change > threshold:
                marker = "  << REGRESSION (>%s%%)" % _fmt_pct(threshold)
                regressions.append((key, metric, change))
            lines.append(
                "%-28s %-10s %10s -> %-10s %+7.1f%%%s"
                % (key, metric, before, after, change, marker)
            )
    return regressions, lines


def _fmt_pct(value):
    if float(value).is_integer():
        return str(int(value))
    return "%.1f" % value
