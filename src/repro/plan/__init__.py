"""Planning pipeline: PGQL text -> logical -> distributed -> execution plan.

``plan_query`` glues the paper's steps i-iii together; the runtime's
engine performs step iv (binding the compiled plan to machines and
launching the computation).
"""

from repro.pgql import as_query
from repro.plan.distributed import (
    DistributedPlan,
    Hop,
    HopKind,
    Visit,
    VisitKind,
    build_distributed_plan,
)
from repro.plan.execution import (
    IMPOSSIBLE_LABEL,
    CompiledHop,
    CompiledStage,
    ContextLayout,
    ExecutionPlan,
    OutputSpec,
    build_execution_plan,
)
from repro.plan.logical import (
    CartesianRootMatch,
    CommonNeighborMatch,
    EdgeCheck,
    LogicalPlan,
    NeighborMatch,
    RootVertexMatch,
    build_logical_plan,
)
from repro.plan.cost import (
    CostEstimate,
    CostModel,
    PlanCandidate,
    PlanChoice,
    candidate_orders,
    choose_plan,
)
from repro.plan.options import MatchSemantics, PlannerOptions, SchedulingPolicy
from repro.plan.paths import expand_quantified_paths, has_quantified_paths
from repro.plan.scheduling import selectivity_order


def plan_query(query, graph, options=None):
    """Compile a PGQL query (text or parsed Query) against *graph*.

    Runs the paper's steps i-iii and returns the compiled
    :class:`ExecutionPlan` shared by every simulated machine.
    """
    options = options or PlannerOptions()
    query = as_query(query)

    vertex_order = options.vertex_order
    use_common_neighbors = options.use_common_neighbors
    choice = None
    if vertex_order is None:
        if options.scheduling is SchedulingPolicy.COST:
            choice = choose_plan(
                query, graph,
                force_common_neighbors=use_common_neighbors,
                feedback=options.feedback,
            )
            vertex_order = list(choice.order)
            use_common_neighbors = choice.use_common_neighbors
        elif options.scheduling is SchedulingPolicy.SELECTIVITY:
            scores = CostModel(graph).variable_scores(query)
            vertex_order = selectivity_order(query, scores)
            choice = PlanChoice(
                policy="selectivity",
                order=vertex_order,
                use_common_neighbors=bool(use_common_neighbors),
                scores=scores,
                forced_common_neighbors=use_common_neighbors,
            )

    logical = build_logical_plan(
        query,
        vertex_order=vertex_order,
        use_common_neighbors=bool(use_common_neighbors),
    )
    distributed = build_distributed_plan(logical)
    plan = build_execution_plan(distributed, graph, options)
    plan.choice = choice
    return plan


__all__ = [
    "plan_query",
    "PlannerOptions",
    "MatchSemantics",
    "SchedulingPolicy",
    "LogicalPlan",
    "build_logical_plan",
    "RootVertexMatch",
    "CartesianRootMatch",
    "NeighborMatch",
    "CommonNeighborMatch",
    "EdgeCheck",
    "DistributedPlan",
    "build_distributed_plan",
    "Visit",
    "VisitKind",
    "Hop",
    "HopKind",
    "ExecutionPlan",
    "build_execution_plan",
    "CompiledStage",
    "CompiledHop",
    "ContextLayout",
    "OutputSpec",
    "IMPOSSIBLE_LABEL",
    "expand_quantified_paths",
    "has_quantified_paths",
    "selectivity_order",
    "CostModel",
    "CostEstimate",
    "PlanCandidate",
    "PlanChoice",
    "candidate_orders",
    "choose_plan",
]
