"""Shared-memory single-machine matcher (the paper's "PGX" baseline).

Figure 5 of the paper normalizes PGX.D/Async runtimes to single-machine
PGX.  This engine plays that role: it schedules the same stage
semantics (``runtime.hops``) over the same compiled execution plan as a
plain depth-first recursion over the whole graph — no partitioning, no
messages, no flow control, no termination protocol — and models time as
``ops / (workers * ops_per_tick)`` (perfect intra-machine parallelism,
which flatters the baseline exactly like a mature shared-memory engine
would).

It is also the correctness oracle for the distributed engine's tests:
both engines must produce identical result multisets.
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import QueryMetrics
from repro.engine_api import Engine
from repro.plan import plan_query
from repro.runtime.aggregation import finalize
from repro.runtime.engine import QueryResult
from repro.runtime.hops import (
    RESULT,
    AllScanItem,
    CNItem,
    hop_steps,
    vertex_function,
)


class SharedMemoryEngine(Engine):
    """PGX-like in-memory pattern matcher over an unpartitioned graph."""

    def __init__(self, graph, config=None):
        self.graph = graph
        self.config = config or ClusterConfig(num_machines=1)

    def _run(self, query, options, context):
        return self.execute_plan(plan_query(query, self.graph, options))

    def execute_plan(self, plan):
        graph = self.graph
        stages = plan.stages
        rows = []
        ops = live_frames = peak_frames = 0

        def visit(index, ctx, vertex, candidates=()):
            """One stage at one vertex, then depth-first into every
            continuation its hop produces.

            Reaching a vertex is paid for by the step that produced it,
            so the vertex function is charged ``work_cost - 1``.
            """
            nonlocal ops, live_frames, peak_frames
            stage = stages[index]
            hop = stage.hop
            live_frames += 1
            if live_frames > peak_frames:
                peak_frames = live_frames
            ops += stage.work_cost - 1
            ctx = vertex_function(graph, graph, stage, ctx, vertex)
            if ctx is not None:
                for _scanned, target, item in hop_steps(
                    graph, graph, hop, ctx, vertex, candidates=candidates
                ):
                    ops += hop.work_cost
                    if item is None:
                        continue
                    if item is RESULT:
                        rows.append(ctx)
                    elif item.__class__ is AllScanItem:
                        for target in graph.vertices():
                            ops += 1
                            visit(index + 1, item.ctx + (target,), target)
                    elif item.__class__ is CNItem:
                        visit(index + 1, item.ctx, target, item.candidates)
                    else:
                        visit(index + 1, item, target)
            live_frames -= 1

        root = plan.root.single_vertex_id
        if root is None:
            roots = graph.vertices()
        else:
            roots = [root] if 0 <= root < graph.num_vertices else []
        for vertex in roots:
            ops += 1
            visit(0, (vertex,), vertex)
        result_set = finalize(plan.output, rows)
        ticks = -(-ops // (
            self.config.workers_per_machine * self.config.ops_per_tick
        ))
        metrics = QueryMetrics(
            ticks=ticks,
            num_machines=1,
            total_ops=ops,
            num_results=len(rows),
            peak_live_frames=peak_frames,
        )
        return QueryResult(result_set, metrics, plan)
