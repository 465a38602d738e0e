#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md by running every reproduced experiment.

Runs the same harness functions the benchmark suite asserts on (one per
table/figure/ablation — see DESIGN.md §4), captures their printed
tables, and writes the paper-versus-measured record.  Takes several
minutes; the FIG6 sweep dominates.

Usage::

    python scripts/collect_experiments.py [output.md]
"""

import contextlib
import io
import sys
import time

sys.path.insert(0, ".")  # run from the repository root

from benchmarks.conftest import BENCH_BASE  # noqa: E402
from benchmarks.test_abl1_intermediate_state import run_abl1  # noqa: E402
from benchmarks.test_abl2_flow_control import run_abl2  # noqa: E402
from benchmarks.test_abl3_dynamic_memory import run_abl3  # noqa: E402
from benchmarks.test_abl4_async_vs_sync import run_abl4  # noqa: E402
from benchmarks.test_abl5_scheduling import run_abl5  # noqa: E402
from benchmarks.test_abl6_common_neighbors import run_abl6  # noqa: E402
from benchmarks.test_abl7_work_sharing import run_abl7  # noqa: E402
from benchmarks.test_abl8_ghost_nodes import run_abl8  # noqa: E402
from benchmarks.test_abl9_partitioning import run_abl9  # noqa: E402
from benchmarks.test_fig5_bsbm import run_fig5  # noqa: E402
from benchmarks.test_fig6_random import run_fig6  # noqa: E402
from benchmarks.test_txt1_overhead import (  # noqa: E402
    MACHINES,
    run_overhead_experiment,
)


def _txt1_measured(result):
    """The TXT1 sentence, read off the collected ticks: the 2-machine
    ratio to PGX, the run of machine counts the time stays flat over,
    then the ticks of the larger counts."""
    pgx_ticks, ticks = result
    flat = 1
    while flat < len(ticks) and ticks[flat] == ticks[0]:
        flat += 1
    if flat > 1:
        shape = "is flat at %d ticks from %d to %d machines" % (
            ticks[0], MACHINES[0], MACHINES[flat - 1])
    else:
        shape = "is %d ticks on %d machines" % (ticks[0], MACHINES[0])
    if flat < len(ticks):
        shape += ", then rises to %s ticks on %s machines" % (
            _and(ticks[flat:]), _and(MACHINES[flat:]))
    return (
        "On two machines the distributed engine takes %d ticks to PGX's "
        "%d (%.0fx) on the tiny query; its time %s (bootstrap plus the "
        "all-to-all COMPLETED traffic of the termination protocol)."
        % (ticks[0], pgx_ticks, ticks[0] / max(1, pgx_ticks), shape)
    )


def _abl4_measured(results):
    """The ABL4 sentence, read off the collected ticks: the range the
    async ticks stay in and the blocking blowup at each latency."""
    latencies = sorted(results)
    async_ticks = [results[latency][0] for latency in latencies]
    blowups = [
        "%.1fx" % (results[latency][1] / max(1, results[latency][0]))
        for latency in latencies
    ]
    return (
        "Blocking (RPC-style) traversal degrades linearly with network "
        "latency while the async engine stays nearly flat, between %d "
        "and %d ticks; blocking takes %s the async ticks at latencies %s."
        % (min(async_ticks), max(async_ticks), _and(blowups),
           _and(latencies))
    )


def _abl3_measured(outcomes):
    """The ABL3 sentence, read off the collected metrics: how often the
    dynamic mode asks to borrow and is granted capacity, and its
    suspensions and ticks against the static windows'."""
    static, dynamic = outcomes[False].metrics, outcomes[True].metrics
    return (
        "Under a tight budget on a skewed partition the dynamic mode "
        "asks to borrow capacity %d times and is granted it %d times; "
        "it suspends %d times to the %d of the static windows of Potter "
        "et al. and completes in %d ticks to their %d."
        % (dynamic.quota_requests, dynamic.quota_granted,
           dynamic.flow_control_blocks, static.flow_control_blocks,
           dynamic.ticks, static.ticks)
    )


def _abl8_measured(outcomes):
    """The ABL8 sentence, read off the collected metrics: the work
    messages without ghosts and the cut at each ghost threshold."""
    off = outcomes[None].metrics.work_messages
    cuts = [
        "to %d (%.1fx) with vertices of degree >= %d ghosted"
        % (result.metrics.work_messages,
           off / max(1, result.metrics.work_messages), threshold)
        for threshold, result in outcomes.items() if threshold is not None
    ]
    return (
        "On a power-law graph whose hubs are hop targets, replicated "
        "ghost data lets senders pre-filter remote hops: a selective "
        "target filter cuts the work messages from %d %s, with identical "
        "results." % (off, _and(cuts))
    )


def _and(values):
    values = [str(value) for value in values]
    if len(values) == 1:
        return values[0]
    return "%s and %s" % (", ".join(values[:-1]), values[-1])

EXPERIMENTS = [
    (
        "TXT1 — tiny-query overhead (§4.1, in text)",
        "PGX completes a tiny query in 3 ms; PGX.D/Async needs "
        "37 ms on two machines and more than 50 ms on 32 — fixed "
        "distributed overhead that grows with the cluster.",
        _txt1_measured,
        lambda: run_overhead_experiment(),
    ),
    (
        "FIG5 — BSBM query-5 parts relative to single-machine PGX",
        "Figure 5: 10 parts of BSBM query 5 (product similarity), "
        "bars = time relative to PGX on 1-32 machines.  Heavy parts drop "
        "below 1.0 and keep improving; short parts (P8, P9 there) never "
        "beat PGX and worsen with more machines.",
        "The tiny part (P1, a niche product with almost no "
        "similar products) stays above PGX at every distributed size, "
        "while all heavy parts cross below 1.0 by 4-8 machines and "
        "improve further, with diminishing returns at 16-32 — the same "
        "win/loss pattern and crossover region as the paper.",
        None,  # filled in main() (needs the workload)
    ),
    (
        "FIG6 — random 4-edge-pattern queries on a uniform random graph",
        "Figure 6: 10 random queries with four edge patterns each "
        "on 2-32 machines; heavy queries scale very well, fast queries "
        "gain little and pay overhead.",
        "The heavy group (starred) speeds up by an order of "
        "magnitude from 2 to 32 machines; the fast group's speedup is "
        "clearly smaller — same split the paper reports.  (At this "
        "simulation scale even 'fast' queries carry some parallelizable "
        "bootstrap work, so they still improve somewhat rather than "
        "flatten entirely.)",
        None,
    ),
    (
        "ABL1 — intermediate-state explosion (§1/§2 claim)",
        "BFT/join evaluation materializes exponentially many "
        "intermediate results; DFT keeps few active ones.",
        "BFT and join peaks track the (exploding) match "
        "count one-for-one; the async DFT engine's live state stays "
        "bounded by the flow-control budget, orders of magnitude lower.",
        lambda: run_abl1(),
    ),
    (
        "ABL2 — strict flow control bounds memory (§3.3)",
        "Per-(stage, machine) windows give a deterministic "
        "completion guarantee under finite memory.",
        "Identical results at every budget; the peak "
        "buffered-context count shrinks with the window, and the engine "
        "pays with worker suspensions and time instead of failing.",
        lambda: run_abl2(),
    ),
    (
        "ABL3 — dynamic memory management (§3.3)",
        "Redistributing completed stages' windows and borrowing "
        "capacity between machines 'improves the utilization of the "
        "memory used for message buffers'.",
        _abl3_measured,
        lambda: run_abl3(),
    ),
    (
        "ABL4 — asynchrony hides communication latency (§1)",
        "Asynchronous DFT overlaps communication with work from "
        "other stages.",
        _abl4_measured,
        lambda: run_abl4(),
    ),
    (
        "ABL5 — selectivity-based query scheduling (§5 future work)",
        "For the person/song/band query 'we would prefer to "
        "start by matching the vertex band'.",
        "The selectivity scheduler picks band as the root "
        "and cuts total work by >4x and shipped contexts by orders of "
        "magnitude, with identical results.",
        lambda: run_abl5(),
    ),
    (
        "ABL6 — specialized common-neighbor hop engine (§3.2/§5)",
        "Compute common neighbors 'by simply exchanging the "
        "edges of one another' instead of per-neighbor traffic.",
        "With both sources bound, CN_COLLECT/CN_PROBE ships "
        "fewer messages and completes faster than the decomposed "
        "neighbor-hop + edge-check plan, with identical results.",
        lambda: run_abl6(),
    ),
    (
        "ABL7 — intra-machine work sharing (§1/§3.3/§4.1)",
        "The paper names missing 'intra-machine workload balancing' as a "
        "reason its short queries do not scale; describes computations "
        "'submitted internally to facilitate work-sharing'.",
        "Enabling the bounded local work-sharing queues "
        "more than halves the completion time of a single-origin heavy "
        "query and collapses worker idle time, with identical results.",
        lambda: run_abl7(),
    ),
    (
        "ABL8 — ghost nodes (§4, disabled in the paper's experiments)",
        "PGX.D can replicate high-degree vertices ('ghost nodes'); the "
        "paper turns the feature off for its runs.  We implement it and "
        "measure what it buys.",
        _abl8_measured,
        lambda: run_abl8(),
    ),
    (
        "ABL9 — partitioning sensitivity (§4, experimental settings)",
        "The paper partitions vertices randomly 'except that the system "
        "attempts to distribute a similar number of edges to each "
        "machine'.",
        "On a hub-heavy graph, the paper's edge-balanced random "
        "placement balances edges better and completes faster than "
        "contiguous block placement, whose hub-owning machines become "
        "stragglers; results are identical under every partitioner.",
        lambda: run_abl9(),
    ),
]


def capture(func):
    buffer = io.StringIO()
    started = time.time()  # repro: allow(RPR001) progress timer printed to stdout, never written to the document
    with contextlib.redirect_stdout(buffer):
        result = func()
    elapsed = time.time() - started  # repro: allow(RPR001) progress timer printed to stdout, never written to the document
    return buffer.getvalue().strip(), result, elapsed


def main(output_path="EXPERIMENTS.md"):
    from repro.graph import uniform_random_graph
    from repro.workloads import generate_bsbm, query5_parts, \
        random_query_suite

    bsbm = generate_bsbm(num_products=10_000, seed=7, num_features=250)
    parts = query5_parts(bsbm, num_parts=10, seed=7)
    random_graph = uniform_random_graph(2_500, 12_500, seed=11, num_types=8)
    random_queries = random_query_suite(num_queries=10, num_edges=4, seed=11)

    runners = {
        "FIG5": lambda: run_fig5(bsbm, parts),
        "FIG6": lambda: run_fig6(random_graph, random_queries),
    }

    sections = []
    for title, paper, measured, func in EXPERIMENTS:
        if func is None:
            func = runners[title.split(" ")[0]]
        print("running %s ..." % title.split(" — ")[0], flush=True)
        table, result, elapsed = capture(func)
        print("  done in %.1fs" % elapsed, flush=True)
        if callable(measured):
            measured = measured(result)
        sections.append((title, paper, measured, table))

    with open(output_path, "w") as handle:
        handle.write(_render(sections))
    print("wrote", output_path)


def _render(sections):
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Every table and figure of the paper's evaluation (§4), plus one",
        "ablation per design claim (DESIGN.md §4).  All numbers are",
        "**simulated ticks** from the deterministic cluster model — the",
        "substitution for the authors' 32-machine InfiniBand testbed",
        "(DESIGN.md §2) — so shapes, ratios, and crossovers are the",
        "reproduction targets, not absolute milliseconds.",
        "",
        "Cost model: %s." % ", ".join(
            "%s=%s" % item for item in sorted(BENCH_BASE.items())
        ),
        "",
        "Regenerate this file with:",
        "",
        "```bash",
        "python scripts/collect_experiments.py",
        "```",
        "",
        "The benchmark suite (`pytest benchmarks/ --benchmark-only`)",
        "asserts every shape claim below on each run.",
        "",
    ]
    for title, paper, measured, table in sections:
        lines.append("## %s" % title)
        lines.append("")
        lines.append("**Paper.** %s" % paper)
        lines.append("")
        lines.append("**Measured.** %s" % measured)
        lines.append("")
        lines.append("```")
        lines.append(table)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    main(*sys.argv[1:])
