"""Command-line interface: query and analyze graphs from the shell.

Usage examples::

    python -m repro query --random 1000x5000 --machines 4 \\
        "SELECT a, b WHERE (a)-[]->(b), a.value > b.value" --limit-print 10

    python -m repro query --graph data/graph.json --explain \\
        "SELECT COUNT(*) WHERE (a)-[:friend]->(b)"

    python -m repro trace --random 1000x5000 --machines 4 \\
        "SELECT a, b WHERE (a)-[]->(b)" --chrome-out trace.json

    python -m repro chaos --random 1000x5000 --machines 4 --seed 7 \\
        --profile soak --verify "SELECT a, b WHERE (a)-[]->(b)"

    python -m repro monitor --random 1000x5000 --machines 4 \\
        "SELECT a, b WHERE (a)-[]->(b)" --series-out series.jsonl

    python -m repro query --bsbm 500 --plan cost --explain \\
        "SELECT COUNT(*) WHERE (o:offer)-[:offerProduct]->(p:product)-[:producer]->(pr:producer)"

    python -m repro stats --bsbm 500 --top 3

    python -m repro bench --quick --compare BENCH_seed.json --threshold 25

    python -m repro lint src/repro --fail-on error --json-out lint.json

    python -m repro lint --explain RPR002

    python -m repro analyze --random 1000x5000 pagerank --iterations 20

    python -m repro analyze --bsbm 500 wcc

Every command runs one function, named by ``set_defaults(func=...)``.
A run that stops short (deadline, crash, stall) prints
:func:`repro.errors.stop_report` and exits :data:`EXIT_ABORTED`; any
other library error prints one line to stderr and exits
:data:`EXIT_ERROR`.
"""

import argparse
import json
import os
import re
import sys

from repro.bench import EXIT_REGRESSION
from repro.chaos import PROFILES, profile
from repro.cluster.config import ClusterConfig
from repro.context import ExecutionContext
from repro.errors import QueryAborted, QueryStalled, ReproError, \
    stop_report
from repro.graph import load_edge_list, load_json, uniform_random_graph
from repro.obs import Recording
from repro.plan import MatchSemantics, PlannerOptions, SchedulingPolicy
from repro.runtime import PgxdAsyncEngine

#: Exit code for a query that aborted (deadline, crash) or stalled —
#: distinct from argparse's 2 so scripts can tell "bad usage" from
#: "query cancelled".
EXIT_ABORTED = 3

#: Exit code for ``repro lint`` when findings meet the ``--fail-on``
#: threshold (usage errors stay argparse's 2).
EXIT_LINT = 1

#: Exit code for bad input the library rejected with a typed
#: :class:`~repro.errors.ReproError` — argparse's code for bad usage.
EXIT_ERROR = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PGX.D/Async reproduction: distributed graph pattern "
                    "matching on a simulated cluster",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = _command(subparsers, "query", cmd_query, "run a PGQL query",
                     _add_query_args)
    query.add_argument("--explain", action="store_true",
                       help="print the stage plan instead of executing")
    query.add_argument("--explain-analyze", action="store_true",
                       help="print the stage plan annotated with runtime "
                            "counters, estimated-vs-actual rows "
                            "(q-error), and per-machine skew after "
                            "executing")
    query.add_argument("--feedback-store", metavar="PATH",
                       help="planner feedback store (JSON): recorded "
                            "actuals correct the cost model's "
                            "selectivities under --plan cost, and this "
                            "run's profile is recorded back")
    query.add_argument("--limit-print", type=int, default=20,
                       help="max rows to print (default 20)")

    trace = _command(
        subparsers, "trace", cmd_trace,
        "run a PGQL query with event tracing and report the timeline",
        _add_query_args,
    )
    trace.add_argument("--chrome-out", metavar="PATH",
                       help="write a chrome://tracing JSON file")
    trace.add_argument("--width", type=int, default=72,
                       help="timeline width in columns (default 72)")
    trace.add_argument("--max-events", type=int, default=1_000_000,
                       help="cap on recorded trace events")

    chaos = _command(
        subparsers, "chaos", cmd_chaos,
        "run a PGQL query under a fault profile with the "
        "reliability layer, and report delivered-exactly-once stats",
        _add_query_args,
    )
    chaos.add_argument("--profile", choices=sorted(PROFILES),
                       default="soak",
                       help="named fault mix (default: soak)")
    chaos.add_argument("--drop", type=float, default=None,
                       help="override the profile's message drop rate")
    chaos.add_argument("--dup", type=float, default=None,
                       help="override the duplication rate")
    chaos.add_argument("--reorder", type=float, default=None,
                       help="override the reordering rate")
    chaos.add_argument("--max-delay", type=int, default=None,
                       help="max extra ticks for reordered/duplicate copies")
    chaos.add_argument("--stall", action="append", default=[],
                       metavar="M@T+D",
                       help="stall machine M's workers from tick T for D "
                            "ticks (repeatable)")
    chaos.add_argument("--crash", metavar="M@T",
                       help="crash machine M at tick T (the query aborts)")
    chaos.add_argument("--verify", action="store_true",
                       help="also run fault-free and require identical "
                            "results (exit 1 on mismatch)")
    chaos.add_argument("--limit-print", type=int, default=0,
                       help="max rows to print (default 0: stats only)")

    monitor = _command(
        subparsers, "monitor", cmd_monitor,
        "run a recorded PGQL query behind a live terminal "
        "dashboard (sparklines per machine + stage wavefront)",
        _add_query_args,
    )
    monitor.add_argument("--interval", type=int, default=1,
                         help="sample the series every N ticks (default 1)")
    monitor.add_argument("--refresh", type=int, default=None,
                         help="redraw every N samples (default: 8 on a "
                              "TTY, 32 in snapshot mode)")
    monitor.add_argument("--width", type=int, default=32,
                         help="sparkline width in columns (default 32)")
    monitor.add_argument("--snapshots", action="store_true",
                         help="force plain-text snapshots instead of the "
                              "ANSI in-place redraw")
    monitor.add_argument("--prom-out", metavar="PATH",
                         help="write the recording's metrics in Prometheus "
                              "text exposition format")
    monitor.add_argument("--series-out", metavar="PATH",
                         help="write the per-tick series (.csv for CSV, "
                              "anything else JSONL)")

    bench = _command(
        subparsers, "bench", cmd_bench,
        "run the seeded benchmark matrix, write BENCH_<tag>.json, "
        "and optionally gate against a baseline",
    )
    bench.add_argument("--quick", action="store_true",
                       help="run the CI subset of the matrix (a strict "
                            "subset of the full run, so comparisons "
                            "against a full baseline stay valid)")
    bench.add_argument("--tag", default="run",
                       help="tag for the output document (default: run)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", metavar="PATH",
                       help="output path (default: BENCH_<tag>.json)")
    bench.add_argument("--compare", metavar="PATH",
                       help="baseline BENCH JSON to diff against; exit "
                            "%d when a deterministic metric regressed "
                            "past the threshold" % EXIT_REGRESSION)
    bench.add_argument("--threshold", type=float, default=25.0,
                       help="regression threshold in percent (default 25)")
    bench.add_argument("--no-bulk-kernels", action="store_true",
                       help="run the reference cursor kernels instead of "
                            "the generated ones (all deterministic "
                            "metrics are identical)")

    lint = _command(
        subparsers, "lint", cmd_lint,
        "run the invariant-aware static analysis rule pack "
        "(determinism, zero-cost-off, protocol exhaustiveness, ...)",
        _add_format_args,
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to analyze "
                           "(default: src/repro)")
    lint.add_argument("--select", metavar="RPR00N[,RPR00N...]",
                      help="run only the named rules "
                           "(comma-separated ids)")
    lint.add_argument("--all-scopes", action="store_true",
                      help="ignore rule scope restrictions (apply every "
                           "selected rule to every scanned module — for "
                           "scanning tests/ and benchmarks/)")
    lint.add_argument("--fail-on", choices=["warning", "error"],
                      default="error",
                      help="exit %d when findings at or above this "
                           "severity remain (default: error)" % EXIT_LINT)
    lint.add_argument("--explain", metavar="RPR00N",
                      help="print the rule's rationale and an example "
                           "fix, then exit")

    serve = _command(
        subparsers, "serve", cmd_serve,
        "run several PGQL queries concurrently on one shared "
        "deployment through the multi-query service",
        _add_engine_args,
    )
    serve.add_argument("queries", nargs="+", metavar="PGQL",
                       help="the PGQL query texts (each becomes one "
                            "service scope)")
    serve.add_argument("--slots", type=int, default=4,
                       help="admission slots: concurrent scopes "
                            "(default 4)")
    serve.add_argument("--scope-window", type=int, default=None,
                       help="per-scope flow-control window (default: "
                            "carve the machine window evenly across "
                            "the slots)")
    serve.add_argument("--priority", action="append", type=int,
                       default=[], metavar="P",
                       help="priority for the Nth query (repeatable; "
                            "default 1)")
    serve.add_argument("--timeout", type=int, default=None,
                       metavar="TICKS",
                       help="per-query deadline in virtual ticks")
    serve.add_argument("--cancel", action="append", default=[],
                       metavar="N@T",
                       help="cancel the Nth query at global tick T "
                            "(repeatable)")

    traffic = _command(
        subparsers, "traffic", cmd_traffic,
        "drive a seeded open-loop arrival process against the "
        "multi-query service and report latency percentiles plus "
        "a saturation curve",
        _add_engine_args,
    )
    traffic.add_argument("--arrivals", type=int, default=12,
                         help="number of query arrivals (default 12)")
    traffic.add_argument("--gap", type=int, default=64,
                         help="mean interarrival gap in global ticks "
                              "(default 64)")
    traffic.add_argument("--slots", type=int, default=8,
                         help="admission slots (default 8)")
    traffic.add_argument("--scope-window", type=int, default=None,
                         help="per-scope flow-control window")
    traffic.add_argument("--query-edges", type=int, default=3,
                         help="edges per generated pattern query "
                              "(default 3)")
    traffic.add_argument("--distinct", type=int, default=4,
                         help="distinct generated queries cycled over "
                              "arrivals (default 4)")
    traffic.add_argument("--deadline", type=int, default=None,
                         metavar="TICKS",
                         help="per-query deadline in virtual ticks")
    traffic.add_argument("--sweep", metavar="G1,G2,...",
                         help="also sweep these interarrival gaps and "
                              "print the saturation curve")
    traffic.add_argument("--chaos", metavar="PROFILE", default=None,
                         choices=sorted(PROFILES),
                         help="run the shared deployment under this "
                              "fault profile with the reliability "
                              "layer enabled (service soak)")
    traffic.add_argument("--verify-serial", action="store_true",
                         help="re-run the arrivals one at a time with "
                              "the same scoped budgets and require "
                              "row- and metric-identical per-query "
                              "outcomes (exit 1 on mismatch)")

    stats = _command(
        subparsers, "stats", cmd_stats,
        "collect and print a graph's statistics (label counts, "
        "degree histograms, edge fan-out, exact per-property "
        "distinct and top-value counts)",
        _add_graph_args, _add_format_args,
    )
    stats.add_argument("--top", type=int, default=5,
                       help="fan-out triples / top values shown per "
                            "section in table mode (default 5)")
    stats.add_argument("--out", metavar="PATH",
                       help="also save the graph as JSON with the "
                            "statistics embedded (load_json re-attaches "
                            "them without recollection)")

    feedback = _command(
        subparsers, "feedback", cmd_feedback,
        "inspect a planner feedback store: recorded plan-vs-actual "
        "profiles and the selectivity corrections they produce",
        _add_format_args,
    )
    feedback.add_argument("store", metavar="PATH",
                          help="feedback store JSON written by "
                               "`repro query --feedback-store`")

    analyze = _command(subparsers, "analyze", cmd_analyze,
                       "run a BSP algorithm",
                       _add_graph_args, _add_cluster_args)
    analyze.add_argument(
        "algorithm",
        choices=["pagerank", "wcc", "sssp", "triangles", "degree"],
    )
    analyze.add_argument("--iterations", type=int, default=20,
                         help="pagerank iterations")
    analyze.add_argument("--source", type=int, default=0,
                         help="sssp source vertex")
    analyze.add_argument("--top", type=int, default=10,
                         help="print the top-N vertices")
    return parser


def _command(subparsers, name, func, summary, *arg_groups):
    """Sub-command *name*, dispatched to *func* by :func:`main`, with
    the shared flag groups *arg_groups* (``_add_*_args``)."""
    sub = subparsers.add_parser(name, help=summary)
    sub.set_defaults(func=func)
    for add_args in arg_groups:
        add_args(sub)
    return sub


def _add_format_args(sub):
    """The shared report-output convention (``stats``, ``feedback``,
    ``lint``); :func:`_print_report` reads it."""
    sub.add_argument("--format", choices=["text", "json"], default="text",
                     help="report format on stdout (default: text)")
    sub.add_argument("--json-out", metavar="PATH",
                     help="also write the JSON report to PATH "
                          "(CI artifact)")


def _add_query_args(sub):
    """The flags of a query-running command (``query``, ``trace``,
    ``chaos``, ``monitor``), all read by :func:`_run_query`."""
    _add_engine_args(sub)
    sub.add_argument("pgql", help="the PGQL query text")
    sub.add_argument("--semantics", default="homomorphism",
                     choices=[s.value for s in MatchSemantics])
    sub.add_argument("--plan", default=SchedulingPolicy.APPEARANCE.value,
                     choices=[p.value for p in SchedulingPolicy],
                     help="vertex-ordering policy: appearance (query "
                          "text order, the default), selectivity (greedy "
                          "heuristic), or cost (statistics-backed cost "
                          "model; also decides the common-neighbor "
                          "operator)")
    sub.add_argument("--common-neighbors",
                     action=argparse.BooleanOptionalAction, default=None,
                     help="force the specialized common-neighbor hop "
                          "on/off (default: off, except --plan cost "
                          "where the cost model decides)")
    sub.add_argument("--timeout", type=int, default=None, metavar="TICKS",
                     help="abort the query after TICKS simulated ticks "
                          "(exit code %d, partial metrics printed)"
                          % EXIT_ABORTED)


def _add_graph_args(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", metavar="PATH",
                        help="graph file (.json or edge list)")
    source.add_argument("--random", metavar="VxE",
                        help="uniform random graph, e.g. 1000x5000")
    source.add_argument("--bsbm", type=int, metavar="PRODUCTS",
                        help="BSBM-like e-commerce graph")
    sub.add_argument("--seed", type=int, default=0)


def _add_cluster_args(sub):
    sub.add_argument("--machines", type=int, default=4)
    sub.add_argument("--workers", type=int, default=4)


def _add_engine_args(sub):
    """The flags :func:`_build_engine` reads."""
    _add_graph_args(sub)
    _add_cluster_args(sub)
    sub.add_argument("--ghost-threshold", type=int, default=None,
                     help="replicate vertices with total degree >= N "
                          "(PGX.D ghost nodes; off by default)")


def load_graph(args):
    if args.graph:
        if args.graph.endswith(".json"):
            return load_json(args.graph)
        return load_edge_list(args.graph)
    if args.random:
        try:
            vertices, edges = (int(part) for part in args.random.split("x"))
        except ValueError:
            raise SystemExit("--random expects VxE, e.g. 1000x5000")
        return uniform_random_graph(vertices, edges, seed=args.seed)
    from repro.workloads import generate_bsbm

    return generate_bsbm(args.bsbm, seed=args.seed).graph


def _cluster_config(args, **overrides):
    return ClusterConfig(num_machines=args.machines,
                         workers_per_machine=args.workers,
                         seed=args.seed,
                         **overrides)


def _build_engine(args, **config_overrides):
    """The engine of every query-running command: the graph, the
    cluster config (plus *config_overrides*), ghost replication when
    ``--ghost-threshold`` asks for it."""
    graph = load_graph(args)
    config = _cluster_config(args, **config_overrides)
    if args.ghost_threshold is not None:
        from repro.graph import DistributedGraph

        graph = DistributedGraph.create(
            graph, config.num_machines,
            ghost_threshold=args.ghost_threshold,
        )
    return PgxdAsyncEngine(graph, config)


def _planner_options(args, feedback=None):
    return PlannerOptions(
        semantics=MatchSemantics(args.semantics),
        scheduling=SchedulingPolicy(args.plan),
        use_common_neighbors=args.common_neighbors,
        feedback=feedback,
    )


def _run_query(args, recording=None, feedback=None, query=None,
               **config_overrides):
    """The one query run of ``query``, ``chaos``, ``trace`` and
    ``monitor``: each supplies its :class:`Recording` (or None), its
    cluster overrides, and what it prints afterwards.  *query* is
    ``args.pgql`` unless the caller already parsed it.  A run that
    stops short raises to :func:`main`, which prints its report."""
    engine = _build_engine(args, **config_overrides)
    return engine.query(args.pgql if query is None else query,
                        _planner_options(args, feedback),
                        ExecutionContext(recording=recording,
                                         deadline=args.timeout))


def _print_counts(result):
    print("rows     :", len(result.rows))
    print("metrics  :", result.metrics.summary())


def _print_stop(stopped):
    """The report of a run that stopped short, then its exit code."""
    print("%s: %s" % (stopped.title, stopped.reason))
    if stopped.tick is not None:
        print("%-9s: %s" % ("at tick", stopped.tick))
    for label, text in stop_report(stopped):
        print("%-9s: %s" % (label, text))
    return EXIT_ABORTED


def _print_report(args, text, document):
    """Print *text*, or the JSON *document* under ``--format json``;
    write the document to ``--json-out`` too."""
    print(document if args.format == "json" else text)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(document)
            handle.write("\n")


def _parse_spec(flag, spec, shape, example):
    """The integers of a *flag* spec shaped like *shape* (``N@T``,
    ``M@T``, ``M@T+D``: one letter per integer)."""
    pattern = re.sub("[A-Z]", r"(-?\\d+)", re.escape(shape))
    match = re.fullmatch(pattern, spec)
    if match is None:
        raise SystemExit("%s expects %s, e.g. %s" % (flag, shape, example))
    return tuple(int(field) for field in match.groups())


def cmd_query(args):
    store = None
    if args.feedback_store:
        from repro.obs.feedback import FeedbackStore

        store = FeedbackStore(args.feedback_store)
    if args.explain:
        plan = _build_engine(args).plan(args.pgql,
                                        _planner_options(args, store))
        print(plan.describe())
        return 0
    result = _run_query(
        args, Recording() if args.explain_analyze else None, store
    )
    print(result.result_set.pretty(limit=args.limit_print))
    print()
    _print_counts(result)
    if store is not None and result.plan is not None:
        profile = result.execution_profile()
        if profile is not None:
            recorded = store.record(
                result.plan.query, result.plan.graph,
                getattr(result.plan, "choice", None), profile,
            )
            if recorded is not None:
                store.save()
                print("feedback :", "recorded %s -> %s"
                      % (recorded, args.feedback_store))
    if args.explain_analyze:
        print()
        print(result.explain_analyze())
    return 0


def cmd_chaos(args):
    rates = (("drop_rate", args.drop), ("duplicate_rate", args.dup),
             ("reorder_rate", args.reorder), ("max_delay", args.max_delay))
    overrides = {name: value for name, value in rates if value is not None}
    if args.stall:
        overrides["stalls"] = tuple(
            _parse_spec("--stall", spec, "M@T+D", "1@50+30")
            for spec in args.stall
        )
    if args.crash:
        overrides["crashes"] = (
            _parse_spec("--crash", args.crash, "M@T", "2@100"),
        )
    chaos_config = profile(args.profile, seed=args.seed, **overrides)

    result = _run_query(args, chaos=chaos_config, reliability=True)
    if args.limit_print:
        print(result.result_set.pretty(limit=args.limit_print))
        print()
    _print_counts(result)
    print("chaos    :", result.metrics.reliability_summary())

    if args.verify:
        clean = _run_query(args)
        if sorted(result.rows) == sorted(clean.rows):
            print("verify   : OK (results identical to fault-free run)")
        else:
            print("verify   : MISMATCH (%d rows under chaos, %d fault-free)"
                  % (len(result.rows), len(clean.rows)))
            return 1
    return 0


def cmd_trace(args):
    recording = Recording(max_events=args.max_events)
    result = _run_query(args, recording)
    _print_counts(result)
    print(recording.summary())
    print()
    # EXPLAIN ANALYZE already folds in the recording's per-stage
    # figures; the profile adds only what it lacks.
    print(result.explain_analyze())
    print()
    profile = recording.profile()
    print("\n".join(profile.machine_lines() + [
        "stage %d: msgs=%d" % (s, profile.stage_work_messages.get(s, 0))
        for s in range(profile.num_stages)
    ]))
    print()
    print(recording.timeline(width=args.width))
    if args.chrome_out:
        recording.to_chrome_json(args.chrome_out)
        print()
        print("chrome trace written to %s (open in chrome://tracing)"
              % args.chrome_out)
    return 0


def cmd_monitor(args):
    from repro.obs.dashboard import Dashboard
    from repro.obs.export import series_csv, series_jsonl
    from repro.pgql import as_query
    from repro.plan.paths import has_quantified_paths

    dashboard = Dashboard(
        width=args.width,
        interactive=False if args.snapshots else None,
    )
    dashboard.refresh_every = args.refresh or (
        8 if dashboard.interactive else 32
    )
    recording = Recording(interval=args.interval)
    query = as_query(args.pgql)
    if not has_quantified_paths(query):
        # Union expansions each sample into a recording of their own;
        # their merged series is rendered once at the end, not live.
        dashboard.attach(recording.series)
    try:
        result = _run_query(args, recording, query=query)
    except QueryAborted as aborted:
        code = _print_stop(aborted)
        if recording.series.num_samples:
            print(recording.summary())
        return code
    # One last frame for the run's end state.
    dashboard.on_sample(recording.series, recording.meta.get("ticks", 0))
    print()
    _print_counts(result)
    print(recording.summary())
    if args.prom_out:
        with open(args.prom_out, "w") as handle:
            handle.write(recording.prometheus())
        print("prometheus text written to", args.prom_out)
    if args.series_out:
        exporter = (
            series_csv if args.series_out.endswith(".csv") else series_jsonl
        )
        with open(args.series_out, "w") as handle:
            handle.write(exporter(recording.series))
        print("series written to", args.series_out)
    return 0


def cmd_bench(args):
    from repro import bench

    # A bad baseline fails before the matrix runs, not after.
    baseline = bench.load_bench(args.compare) if args.compare else None
    doc = bench.run_bench(tag=args.tag, quick=args.quick,
                          seed=args.seed, progress=print,
                          bulk_kernels=not args.no_bulk_kernels)
    out = args.out or ("BENCH_%s.json" % args.tag)
    bench.write_bench(doc, out)
    print("wrote", out)
    for key, record in sorted(doc["workloads"].items()):
        print(
            "  %-28s ticks=%-7d ops=%-9d rows=%-6d peak_buf=%d/%d"
            % (
                key,
                record["ticks"],
                record["total_ops"],
                record["rows"],
                record["peak_buffered_contexts"],
                record["budget"],
            )
        )
    if baseline is not None:
        regressions, lines = bench.compare(doc, baseline,
                                           threshold=args.threshold)
        print()
        print("compare vs %s (threshold %.0f%%):"
              % (args.compare, args.threshold))
        for line in lines:
            print(" ", line)
        if regressions:
            print()
            print("REGRESSION: %d gated metric(s) worse than baseline"
                  % len(regressions))
            return EXIT_REGRESSION
        print()
        print("OK: no gated metric regressed past the threshold")
    return 0


def _lint_rules(args):
    """Instantiate the (possibly ``--select``-ed) rule objects."""
    from repro.analysis import default_rules, rule_by_id

    if args.select:
        rules = []
        for rule_id in args.select.replace(",", " ").split():
            rule = rule_by_id(rule_id)
            if rule is None:
                raise SystemExit(
                    "repro lint: unknown rule in --select: %s "
                    "(rules: RPR001..RPR009)" % rule_id
                )
            rules.append(rule)
    else:
        rules = default_rules()
    if args.all_scopes:
        for rule in rules:
            rule.scope = ()
    return rules


def cmd_lint(args):
    from repro.analysis import analyze, explain, json_report, text_report

    if args.explain:
        text = explain(args.explain)
        if text is None:
            print("unknown rule: %s (rules: RPR001..RPR009)"
                  % args.explain)
            return 2
        print(text)
        return 0

    result = analyze(args.paths or ["src/repro"], rules=_lint_rules(args))
    _print_report(args, text_report(result), json_report(result))
    return EXIT_LINT if result.fails(args.fail_on) else 0


#: The per-tenant table of ``serve`` and ``traffic``: one column per
#: ``QueryService.stats()`` key, as (header, format).
_TENANT_COLUMNS = {
    "query_id": ("query", "%-6s"),
    "status": ("status", "%-10s"),
    "priority": ("pri", "%3s"),
    "admission_wait": ("wait", "%8s"),
    "latency": ("latency", "%8s"),
    "virtual_ticks": ("vticks", "%8s"),
    "rows": ("rows", "%8s"),
}


def _print_tenants(records, skip=()):
    """The tenant table over ``stats()`` rows; "-" for a value the
    tenant never reached (no admission, no result)."""
    columns = [(key, header, form)
               for key, (header, form) in _TENANT_COLUMNS.items()
               if key not in skip]
    print(" ".join(form % header for _key, header, form in columns))
    for record in records:
        print(" ".join(
            form % ("-" if record[key] is None else record[key])
            for key, _header, form in columns
        ))


def cmd_serve(args):
    from repro.service import QueryService, ServiceConfig

    cancels = sorted(
        (_parse_spec("--cancel", spec, "N@T", "1@500")
         for spec in args.cancel),
        key=lambda pair: pair[1],
    )
    for index, _tick in cancels:
        if not 0 <= index < len(args.queries):
            raise SystemExit(
                "--cancel index %d out of range (%d queries)"
                % (index, len(args.queries))
            )
    engine = _build_engine(args)
    service = QueryService(engine, ServiceConfig(
        max_concurrent=args.slots,
        scope_window=args.scope_window,
    ))
    handles = []
    for index, pgql in enumerate(args.queries):
        priority = (
            args.priority[index] if index < len(args.priority) else 1
        )
        handles.append(service.submit(
            pgql, priority=priority, deadline=args.timeout
        ))
    while True:
        while cancels and cancels[0][1] <= service.now:
            handles[cancels.pop(0)[0]].cancel()
        if not service.step():
            break
    print("scope window :", service.scope_config.flow_control_window,
          "(machine-wide %d across %d slots)"
          % (engine.config.flow_control_window, args.slots))
    print("global ticks :", service.now)
    print("peak active  :", service.peak_active)
    print()
    records = service.stats()
    _print_tenants(records)
    aborted = [record for record in records
               if record["status"] == "aborted"]
    for record in aborted:
        print()
        print("abort [%s]:" % record["query_id"])
        _print_stop(service.scope(record["query_id"]).aborted)
    return EXIT_ABORTED if aborted else 0


def cmd_traffic(args):
    from repro.service import (
        TrafficConfig,
        run_traffic,
        saturation_sweep,
        verify_serial_parity,
    )

    gaps = None
    if args.sweep:
        try:
            gaps = tuple(int(part) for part in args.sweep.split(","))
        except ValueError:
            raise SystemExit("--sweep expects G1,G2,..., e.g. 256,64,16")
    overrides = {}
    if args.chaos:
        overrides = {"chaos": profile(args.chaos, seed=args.seed),
                     "reliability": True}
    engine = _build_engine(args, **overrides)
    traffic = TrafficConfig(
        arrivals=args.arrivals,
        mean_interarrival=args.gap,
        seed=args.seed,
        slots=args.slots,
        scope_window=args.scope_window,
        query_edges=args.query_edges,
        distinct_queries=args.distinct,
        deadline=args.deadline,
    )

    if args.verify_serial:
        report, serial, mismatches = verify_serial_parity(engine, traffic)
    else:
        report = run_traffic(engine, traffic)

    print("traffic  :", report.summary())
    print("window   : scope=%d of machine-wide %d (%d slots)" % (
        report.service.scope_config.flow_control_window,
        engine.config.flow_control_window,
        args.slots,
    ))
    if args.chaos:
        print("chaos    : profile=%s (reliability on)" % args.chaos)
    print()
    _print_tenants(report.records, skip=("priority",))

    if gaps:
        print()
        print("saturation curve (offered load sweep):")
        print("%8s %10s %8s %8s %8s %12s %6s" % (
            "gap", "completed", "p50", "p95", "p99", "done/kilotick",
            "peak",
        ))
        for gap, point in saturation_sweep(engine, traffic, gaps=gaps):
            print("%8d %10d %8s %8s %8s %12.2f %6d" % (
                gap,
                point.completed,
                point.percentile(50) if point.latencies else "-",
                point.percentile(95) if point.latencies else "-",
                point.percentile(99) if point.latencies else "-",
                point.throughput_per_kilotick,
                point.peak_active,
            ))

    if args.verify_serial:
        print()
        if mismatches:
            print("serial parity: MISMATCH (%d)" % len(mismatches))
            for line in mismatches:
                print("  " + line)
            return 1
        print("serial parity: OK — %d queries row- and metric-identical "
              "to the one-at-a-time run (serial ticks=%d)"
              % (serial.completed + serial.aborted + serial.cancelled,
                 serial.total_ticks))
    return 0


def cmd_stats(args):
    graph = load_graph(args)
    stats = graph.statistics()
    _print_report(args, stats.table(top=args.top), stats.to_json())
    if args.out:
        from repro.graph import save_json

        save_json(graph, args.out, include_stats=True)
        print()
        print("graph + statistics written to", args.out)
    return 0


def cmd_feedback(args):
    from repro.obs.feedback import FeedbackStore, q_error

    if not os.path.exists(args.store):
        raise SystemExit("repro feedback: no such store: %s" % args.store)
    store = FeedbackStore(args.store)
    lines = ["feedback store: %s (%d quer%s)"
             % (args.store, len(store), "y" if len(store) == 1 else "ies")]
    for fingerprint, entry in store.entries():
        lines.append("")
        lines.append("%s  %s" % (fingerprint, entry["pgql"]))
        lines.append("  order=%s  common_neighbors=%s"
                     % (entry["order"], entry["use_common_neighbors"]))
        for row in entry["operators"]:
            lines.append("  %-46s est~%-10.2f actual=%-8d q=%.2f"
                         % (row["op"], row["estimated"], row["actual"],
                            q_error(row["estimated"], row["actual"])))
    _print_report(args, "\n".join(lines),
                  json.dumps(store.to_dict(), indent=2, sort_keys=True))
    return 0


def cmd_analyze(args):
    from repro.analytics import (
        BspEngine,
        DegreeCentrality,
        PageRank,
        SingleSourceShortestPaths,
        TriangleCount,
        WeaklyConnectedComponents,
    )

    engine = BspEngine(load_graph(args), _cluster_config(args))
    programs = {
        "pagerank": lambda: PageRank(iterations=args.iterations),
        "wcc": WeaklyConnectedComponents,
        "sssp": lambda: SingleSourceShortestPaths(args.source),
        "triangles": TriangleCount,
        "degree": DegreeCentrality,
    }
    result = engine.run(programs[args.algorithm]())

    if args.algorithm == "triangles":
        print("triangles:", sum(result.values.values()))
    elif args.algorithm == "wcc":
        labels = set(result.values.values())
        print("components:", len(labels))
    else:
        ranked = sorted(result.values.items(), key=lambda kv: kv[1],
                        reverse=(args.algorithm != "sssp"))
        print("top %d vertices:" % args.top)
        for vertex, value in ranked[: args.top]:
            print("  %8d  %s" % (vertex, value))
    print()
    print("supersteps:", result.supersteps)
    print("metrics   :", result.metrics.summary())
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QueryAborted, QueryStalled) as stopped:
        return _print_stop(stopped)
    # The process boundary: stopped runs are reported just above, and
    # every other typed error becomes one line and an exit code.
    except ReproError as error:  # repro: allow(RPR005)
        print("repro %s: error: %s" % (args.command, error),
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
