"""PGX.D/Async reproduction: a distributed graph pattern matching engine.

Reimplementation of *PGX.D/Async: A Scalable Distributed Graph Pattern
Matching Engine* (GRADES'17) on a deterministic simulated cluster.

Quickstart::

    from repro import GraphBuilder, PgxdAsyncEngine, ClusterConfig

    builder = GraphBuilder()
    alice = builder.add_vertex(label="person", age=31)
    bob = builder.add_vertex(label="person", age=19)
    builder.add_edge(alice, bob, label="friend")
    graph = builder.build()

    engine = PgxdAsyncEngine(graph, ClusterConfig(num_machines=4))
    result = engine.query(
        "SELECT a, b WHERE (a WITH age > 18)-[:friend]->(b)"
    )
    print(result.rows)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced figure.
"""

from repro.baselines import (
    BftEngine,
    JoinEngine,
    SharedMemoryEngine,
)
from repro.cluster.config import ClusterConfig
from repro.cluster.metrics import QueryMetrics
from repro.context import ExecutionContext
from repro.engine_api import (
    Engine,
    QueryHandle,
    QueryStatus,
    available_engines,
)
from repro.chaos import ChaosConfig
from repro.errors import (
    AnalysisError,
    ClusterConfigError,
    FlowControlError,
    GraphError,
    PgqlError,
    PgqlSyntaxError,
    PgqlValidationError,
    PlanError,
    QueryAborted,
    QueryStalled,
    RemoteAccessError,
    ReproError,
    RuntimeFault,
)
from repro.graph import (
    DistributedGraph,
    EdgeBalancedRandomPartitioner,
    GraphBuilder,
    HashPartitioner,
    PropertyGraph,
    chain_graph,
    load_edge_list,
    load_json,
    save_edge_list,
    save_json,
    uniform_random_graph,
)
from repro.pgql import parse, parse_and_validate
from repro.plan import (
    MatchSemantics,
    PlannerOptions,
    SchedulingPolicy,
    plan_query,
)
from repro.obs import (
    Recording,
    TimeSeriesSampler,
    TraceProfile,
)
from repro.runtime import (
    PgxdAsyncEngine,
    QueryResult,
    ResultSet,
    run_query,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # engines (unified Engine contract, see repro.engine_api)
    "Engine",
    "available_engines",
    "PgxdAsyncEngine",
    "SharedMemoryEngine",
    "BftEngine",
    "JoinEngine",
    # submit/handle surface + execution context
    "QueryHandle",
    "QueryStatus",
    "ExecutionContext",
    "run_query",
    "QueryResult",
    "ResultSet",
    "ClusterConfig",
    "QueryMetrics",
    # observability
    "Recording",
    "TraceProfile",
    "TimeSeriesSampler",
    # graph
    "GraphBuilder",
    "PropertyGraph",
    "DistributedGraph",
    "EdgeBalancedRandomPartitioner",
    "HashPartitioner",
    "uniform_random_graph",
    "chain_graph",
    "load_edge_list",
    "save_edge_list",
    "load_json",
    "save_json",
    # pgql / planning
    "parse",
    "parse_and_validate",
    "plan_query",
    "PlannerOptions",
    "MatchSemantics",
    "SchedulingPolicy",
    # errors
    "ReproError",
    "AnalysisError",
    "GraphError",
    "RemoteAccessError",
    "PgqlError",
    "PgqlSyntaxError",
    "PgqlValidationError",
    "PlanError",
    "RuntimeFault",
    "QueryAborted",
    "QueryStalled",
    # chaos & reliability
    "ChaosConfig",
    "FlowControlError",
    "ClusterConfigError",
]
