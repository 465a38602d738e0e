"""Level-synchronous breadth-first baseline (paper §1/§2 comparison).

This engine evaluates the same execution plan stage by stage with a
global barrier between stages — the "run each operator separately in a
breadth-first manner" strategy the paper contrasts against.  All
machines fully expand stage *n* into a materialized stage-(n+1) frontier
before anyone starts stage *n+1*, which demonstrates both problems the
paper calls out:

* **intermediate state explosion** — the whole frontier is alive at the
  barrier (``peak_intermediate``), whereas the DFT engine keeps only
  O(workers × stages × flow-control-budget) contexts;
* **communication in the critical path** — every superstep pays the full
  exchange latency before any machine can proceed.

The time model matches the async engine's: per superstep,
``max_machine_ops / (workers * ops_per_tick)`` compute ticks plus one
network latency for the exchange plus a barrier cost.
"""

from collections import defaultdict

from repro.cluster.config import NETWORK_BANDWIDTH, ClusterConfig
from repro.cluster.metrics import QueryMetrics
from repro.engine_api import Engine
from repro.errors import PlanError
from repro.graph.distributed import DistributedGraph
from repro.plan import plan_query
from repro.plan.distributed import HopKind
from repro.runtime.aggregation import finalize
from repro.runtime.engine import QueryResult
from repro.runtime.hops import RESULT, AllScanItem, hop_steps, vertex_function

#: Fixed cost (ticks) of a global barrier, covering the synchronization
#: round-trips of a bulk-synchronous step.
BARRIER_TICKS = 4


class BftEngine(Engine):
    """Distributed breadth-first / bulk-synchronous matcher."""

    def __init__(self, graph, config=None, partitioner=None):
        self.config = config or ClusterConfig()
        self.dist_graph = DistributedGraph.for_cluster(
            graph, self.config.num_machines, partitioner=partitioner
        )
        self.graph = self.dist_graph.graph

    def _run(self, query, options, context):
        return self.execute_plan(plan_query(query, self.graph, options))

    def execute_plan(self, plan):
        for stage in plan.stages:
            if stage.hop.kind in (HopKind.CN_COLLECT, HopKind.CN_PROBE):
                raise PlanError(
                    "the BFT baseline does not support hop kind %r "
                    "(plan with use_common_neighbors=False)"
                    % (stage.hop.kind,)
                )
        graph = self.graph
        dist_graph = self.dist_graph
        num_machines = self.config.num_machines
        workers = self.config.workers_per_machine
        ops_per_tick = self.config.ops_per_tick

        # Stage-0 frontier: every local vertex (or the single origin).
        frontier = defaultdict(list)
        root = plan.root
        if root.single_vertex_id is not None:
            origin = root.single_vertex_id
            if 0 <= origin < graph.num_vertices:
                frontier[dist_graph.owner(origin)].append((origin,))
        else:
            for machine in range(num_machines):
                frontier[machine] = [
                    (vertex,) for vertex in
                    dist_graph.local(machine).local_vertices().tolist()
                ]

        ticks = 0
        total_ops = 0
        peak_intermediate = sum(len(rows) for rows in frontier.values())
        rows_out = []

        for stage in plan.stages:
            # One superstep: every machine runs the stage on its whole
            # frontier; continuations wait at the barrier in the owner's
            # next frontier.
            hop = stage.hop
            next_frontier = defaultdict(list)
            machine_ops = [0] * num_machines
            for machine in range(num_machines):
                local = dist_graph.local(machine)
                ops = 0
                for ctx in frontier[machine]:
                    vertex = ctx[stage.vertex_slot]
                    ops += stage.work_cost
                    ctx = vertex_function(graph, local, stage, ctx, vertex)
                    if ctx is None:
                        continue
                    for _scanned, target, item in hop_steps(
                        graph, local, hop, ctx, vertex, num_machines
                    ):
                        ops += hop.work_cost
                        if item is None:
                            continue
                        if item is RESULT:
                            rows_out.append(ctx)
                        elif item.__class__ is AllScanItem:
                            peer = dist_graph.local(item.dest)
                            for target in peer.local_vertices().tolist():
                                ops += 1
                                next_frontier[item.dest].append(
                                    item.ctx + (target,)
                                )
                        else:
                            next_frontier[local.owner(target)].append(item)
                machine_ops[machine] = ops
            total_ops += sum(machine_ops)
            compute_ticks = -(-max(machine_ops, default=0)
                              // (workers * ops_per_tick))
            ticks += compute_ticks + BARRIER_TICKS
            if hop.kind is not HopKind.OUTPUT and num_machines > 1:
                exchanged = sum(
                    len(rows) for rows in next_frontier.values()
                )
                ticks += self.config.network_latency
                ticks += exchanged // NETWORK_BANDWIDTH
            frontier = next_frontier
            alive = sum(len(rows) for rows in frontier.values())
            peak_intermediate = max(peak_intermediate, alive)

        result_set = finalize(plan.output, rows_out)
        metrics = QueryMetrics(
            ticks=ticks,
            num_machines=num_machines,
            total_ops=total_ops,
            num_results=len(rows_out),
            peak_buffered_contexts=peak_intermediate,
        )
        return QueryResult(result_set, metrics, plan)
