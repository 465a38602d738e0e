"""TXT1 — distributed overhead on tiny queries (paper §4.1, in text).

    "PGX takes 3 ms to complete a tiny query on a tiny graph, compared
    to 37 ms of PGX.D/Async on two machines, and more than 50 ms on 32
    machines."

We run a single-origin one-hop query on a tiny graph and report the
absolute simulated time of single-machine PGX versus the distributed
engine at 2..32 machines.  The reproduced shape: the distributed engine
is roughly an order of magnitude slower than PGX on such a query, and
the overhead never shrinks as machines are added and is larger on 32
machines than on 2 (termination and bootstrap traffic scale with M).
"""

from repro.baselines import SharedMemoryEngine
from repro.graph import uniform_random_graph
from repro.runtime import PgxdAsyncEngine

from .conftest import bench_config, print_table

TINY_QUERY = "SELECT v, b WHERE (v WITH id() = 5)-[]->(b)"
MACHINES = [2, 4, 8, 16, 32]


def run_overhead_experiment():
    graph = uniform_random_graph(100, 400, seed=3)
    pgx = SharedMemoryEngine(graph, bench_config(1))
    pgx_ticks = pgx.query(TINY_QUERY).metrics.ticks

    rows = [("PGX (1 machine)", pgx_ticks, "1.0x")]
    distributed_ticks = []
    for machines in MACHINES:
        engine = PgxdAsyncEngine(graph, bench_config(machines))
        result = engine.query(TINY_QUERY)
        assert len(result.rows) == len(pgx.query(TINY_QUERY).rows)
        distributed_ticks.append(result.metrics.ticks)
        rows.append((
            "PGX.D/Async (%d machines)" % machines,
            result.metrics.ticks,
            "%.1fx" % (result.metrics.ticks / max(1, pgx_ticks)),
        ))
    print_table(
        "TXT1: tiny-query overhead (paper: 3 ms vs 37 ms vs >50 ms)",
        ("engine", "ticks", "vs PGX"),
        rows,
    )
    return pgx_ticks, distributed_ticks


def test_txt1_overhead(benchmark):
    pgx_ticks, distributed_ticks = benchmark.pedantic(
        run_overhead_experiment, rounds=1, iterations=1
    )
    # Shape 1: the distributed engine pays a large fixed overhead.
    assert distributed_ticks[0] > 5 * pgx_ticks
    # Shape 2: overhead never shrinks as machines are added, and 32
    # machines take longer than 2 (37 ms -> >50 ms).
    assert all(
        fewer <= more
        for fewer, more in zip(distributed_ticks, distributed_ticks[1:])
    )
    assert distributed_ticks[-1] > distributed_ticks[0]
