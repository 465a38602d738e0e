#!/usr/bin/env python
"""One recording end to end: events, metrics, time series, exporters,
bench.

Runs one query under a context that carries a ``Recording`` — the
caller builds it and keeps it — and walks through everything it holds:

* the one-line summary, the per-machine profile folded out of the event
  stream, and the Prometheus text exposition rendered from the
  recording (latency histograms, per-machine gauges/counters);
* the per-tick time series — the bounded-memory claim as a curve, with
  ``max(buffered_max) == peak_buffered_contexts <= budget`` checked
  explicitly;
* a dashboard frame rendered from the recorded series (the same frame
  ``python -m repro monitor`` animates live);
* the exporter round-trip (JSONL series back into typed rows);
* a quick benchmark document and a self-comparison through the
  regression gate.

Run with::

    python examples/monitoring.py
"""

from repro import ClusterConfig, ExecutionContext, PgxdAsyncEngine, \
    Recording, uniform_random_graph
from repro.bench import compare, run_bench, validate
from repro.obs import parse_series_jsonl, series_jsonl
from repro.obs.dashboard import render_frame


def main():
    graph = uniform_random_graph(600, 3_000, seed=5)
    query = (
        "SELECT a, b, c WHERE (a)-[]->(b)-[]->(c), "
        "a.type = 1, c.value > 2000"
    )
    engine = PgxdAsyncEngine(graph, ClusterConfig(num_machines=4, seed=5))

    print("graph:", graph)
    print("query:", query)
    recording = Recording()
    result = engine.query(query, context=ExecutionContext(recording=recording))

    print("\n--- summary " + "-" * 48)
    print("metrics  :", result.metrics.summary())
    print(recording.summary())
    print(recording.profile().summary())

    print("\n--- the bounded-memory claim, as a curve " + "-" * 20)
    sampler = recording.series
    peak = sampler.peak("buffered_max")
    print("budget (stages * senders * bulk * (window+1)):", sampler.budget)
    print("peak buffered contexts, from the series     :", peak)
    print("peak buffered contexts, from QueryMetrics   :",
          result.metrics.peak_buffered_contexts)
    assert peak == result.metrics.peak_buffered_contexts <= sampler.budget

    print("\n--- dashboard frame (what `repro monitor` animates) " + "-" * 8)
    for line in render_frame(sampler, recording.meta["ticks"]):
        print(line)

    print("\n--- Prometheus exposition (first lines) " + "-" * 20)
    for line in recording.prometheus().splitlines()[:12]:
        print(line)

    print("\n--- series export round-trip " + "-" * 31)
    text = series_jsonl(sampler)
    meta, rows = parse_series_jsonl(text)
    print("exported %d samples x %d machines = %d rows; budget %d"
          % (meta["samples"], meta["num_machines"], len(rows),
             meta["budget"]))

    print("\n--- bench + regression gate " + "-" * 32)
    doc = run_bench(tag="example", quick=True, seed=0)
    assert validate(doc) == []
    regressions, lines = compare(doc, doc, threshold=25.0)
    for line in lines:
        print(" ", line)
    print("regressions vs self:", len(regressions))


if __name__ == "__main__":
    main()
