"""Conformance tests for the unified Engine protocol (repro.engine_api)."""

import pytest

import repro
from repro import (
    BftEngine,
    ClusterConfig,
    Engine,
    JoinEngine,
    PgxdAsyncEngine,
    SharedMemoryEngine,
    available_engines,
)
from repro.engine_api import QueryHandle, QueryStatus
from repro.errors import PgqlValidationError, PlanError, QueryAborted
from repro.graph import GraphBuilder
from repro.runtime.engine import QueryResult

ALL_ENGINES = [PgxdAsyncEngine, SharedMemoryEngine, BftEngine, JoinEngine]

QUERY = "SELECT a, b WHERE (a)-[]->(b), a.value > b.value"


def _make(cls, graph):
    if cls in (PgxdAsyncEngine, BftEngine):
        return cls(graph, ClusterConfig(num_machines=2))
    return cls(graph)


class TestEngineProtocol:
    def test_engine_is_abstract(self):
        with pytest.raises(TypeError):
            Engine()

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_subclass_of_engine(self, cls):
        assert issubclass(cls, Engine)

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_uniform_constructor(self, cls, random_graph):
        engine = _make(cls, random_graph)
        assert engine.graph is random_graph
        assert isinstance(engine, Engine)
        assert cls.__name__ in repr(engine)

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_config_kwarg_accepted(self, cls, random_graph):
        # Every engine takes config as the second (optional) argument.
        engine = cls(random_graph, config=ClusterConfig(num_machines=2))
        assert engine.config.num_machines == 2

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_query_returns_populated_result(self, cls, random_graph):
        result = _make(cls, random_graph).query(QUERY)
        assert isinstance(result, QueryResult)
        assert result.metrics.num_results == len(result.rows)
        assert result.metrics.total_ops > 0
        assert result.metrics.ticks > 0
        assert result.result_set.columns

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_all_engines_agree(self, cls, random_graph):
        expected = sorted(_make(SharedMemoryEngine, random_graph)
                          .query(QUERY).rows)
        assert sorted(_make(cls, random_graph).query(QUERY).rows) == expected

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_quantified_paths_supported_everywhere(self, cls, random_graph):
        query = "SELECT DISTINCT a, b WHERE (a)-/{1,2}/->(b)"
        expected = sorted(_make(SharedMemoryEngine, random_graph)
                          .query(query).rows)
        result = _make(cls, random_graph).query(query)
        assert sorted(result.rows) == expected


class TestResultTail:
    """DISTINCT, ORDER BY, LIMIT and column names: every engine's rows go
    through one tail, so they agree row for row, in order."""

    @pytest.mark.parametrize("query", [
        "SELECT a WHERE (a) ORDER BY a DESC LIMIT 2",
        "SELECT DISTINCT a.type WHERE (a)-[]->(b) ORDER BY a.type",
        "SELECT DISTINCT a.type AS t, a.type * 2 WHERE (a) "
        "ORDER BY t DESC LIMIT 3",
        "SELECT a, a.value, e.weight WHERE (a)-[e]->(b) "
        "ORDER BY e.weight, a LIMIT 5",
    ])
    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_engines_agree_in_order(self, cls, random_graph, query):
        expected = _make(SharedMemoryEngine, random_graph).query(query)
        result = _make(cls, random_graph).query(query)
        assert result.rows == expected.rows
        assert result.columns == expected.columns
        assert 2 <= len(result.rows) <= 5


def _mixed_graph():
    """Three vertices, the last unlabeled; ``name`` holds strings."""
    builder = GraphBuilder()
    builder.add_vertex(label="p", name="x", age=3)
    builder.add_vertex(label="q", name="y", age=5)
    builder.add_vertex(name="z", age=5)
    for src, dst in [(0, 1), (1, 2), (2, 0)]:
        builder.add_edge(src, dst)
    return builder.build()


class TestTypedErrors:
    """A type mismatch or a division by zero in a result expression, or
    an aggregate over values it cannot fold, is a PgqlValidationError on
    every engine; the join baseline refuses to aggregate up front."""

    PLAIN = [
        "SELECT a.name < 1 WHERE (a)",
        "SELECT a.age / 0 WHERE (a)",
        "SELECT a.name + 1 WHERE (a)",
        "SELECT a WHERE (a) ORDER BY a.name < 1",
    ]
    AGGREGATING = [
        "SELECT a.age, COUNT(*) WHERE (a) GROUP BY a.age "
        "HAVING a.label() > 1",
        "SELECT SUM(a.name) WHERE (a)",
        "SELECT AVG(a.label()) WHERE (a)",
        "SELECT MIN(a.label()) WHERE (a)",
    ]

    @pytest.mark.parametrize("query", PLAIN + AGGREGATING)
    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_typed_failure(self, cls, query):
        expected = PlanError if cls is JoinEngine \
            and query in self.AGGREGATING else PgqlValidationError
        with pytest.raises(expected):
            _make(cls, _mixed_graph()).query(query)


class TestSubmit:
    """Every engine conforms to the non-blocking submit/handle surface."""

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_submit_returns_live_handle(self, cls, random_graph):
        handle = _make(cls, random_graph).submit(QUERY)
        assert isinstance(handle, QueryHandle)
        assert isinstance(handle.status, QueryStatus)
        assert not handle.done
        assert handle.query_id == "q0"
        assert "q0" in repr(handle)

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_result_matches_query(self, cls, random_graph):
        rows = sorted(_make(cls, random_graph).query(QUERY).rows)
        handle = _make(cls, random_graph).submit(QUERY)
        result = handle.result()
        assert sorted(result.rows) == rows
        assert handle.status is QueryStatus.DONE
        assert handle.done
        assert handle.metrics is result.metrics
        assert handle.metrics.num_results == len(result.rows)
        # result() is idempotent once terminal.
        assert handle.result() is result

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_cancel_before_result(self, cls, random_graph):
        handle = _make(cls, random_graph).submit(QUERY)
        assert handle.cancel()
        # The service path cancels at the next scheduling grant, the
        # sync path immediately; terminal state is the contract.
        with pytest.raises(QueryAborted):
            handle.result()
        assert handle.status is QueryStatus.CANCELLED

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_cancel_after_done_refused(self, cls, random_graph):
        handle = _make(cls, random_graph).submit(QUERY)
        handle.result()
        assert not handle.cancel()
        assert handle.status is QueryStatus.DONE

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_query_ids_are_distinct(self, cls, random_graph):
        engine = _make(cls, random_graph)
        first = engine.submit(QUERY)
        second = engine.submit("SELECT a WHERE (a)-[]->(b)")
        assert first.query_id != second.query_id

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_metrics_none_before_execution(self, cls, random_graph):
        engine = _make(cls, random_graph)
        # A second submission queues behind the first on the async
        # engine's single service; either way no work ran yet.
        engine.submit(QUERY)
        handle = engine.submit(QUERY)
        assert handle.metrics is None

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_quantified_paths_submit(self, cls, random_graph):
        query = "SELECT DISTINCT a, b WHERE (a)-/{1,2}/->(b)"
        expected = sorted(_make(cls, random_graph).query(query).rows)
        handle = _make(cls, random_graph).submit(query)
        assert sorted(handle.result().rows) == expected

    @pytest.mark.parametrize("cls", ALL_ENGINES)
    def test_submit_deadline_aborts(self, cls, random_graph):
        handle = _make(cls, random_graph).submit(QUERY, deadline=1)
        if cls is PgxdAsyncEngine:
            with pytest.raises(QueryAborted):
                handle.result()
            assert handle.status is QueryStatus.ABORTED
            assert handle.metrics is not None
        else:
            # The baselines have no tick-clock enforcement; the
            # deadline is accepted but unenforced.
            handle.result()
            assert handle.status is QueryStatus.DONE

    def test_submit_deadline_aborts_a_quantified_path(self, random_graph):
        # The union fallback carries the same context the service
        # branch does: deadline, priority and the caller's recorders.
        engine = _make(PgxdAsyncEngine, random_graph)
        fixed = engine.submit("SELECT a, b WHERE (a)-[]->(b)", deadline=3)
        union = engine.submit("SELECT a, b WHERE (a)-/{1,3}/->(b)",
                              deadline=3, priority=2)
        for handle in (fixed, union):
            with pytest.raises(QueryAborted) as info:
                handle.result()
            assert info.value.tick == 3
            assert handle.status is QueryStatus.ABORTED

    def test_async_submit_routes_through_service(self, random_graph):
        engine = _make(PgxdAsyncEngine, random_graph)
        handle = engine.submit(QUERY)
        assert handle.status is QueryStatus.RUNNING
        handle.result()
        assert engine.service().scope(handle.query_id).status \
            is QueryStatus.DONE


class TestRegistry:
    def test_available_engines_names(self):
        registry = available_engines()
        assert set(registry) == {"async", "shared-memory", "bft", "join"}
        assert registry["async"] is PgxdAsyncEngine
        assert all(issubclass(cls, Engine) for cls in registry.values())

    def test_registry_engines_runnable(self, random_graph):
        for cls in available_engines().values():
            result = _make(cls, random_graph).query(
                "SELECT a WHERE (a)-[]->(b)"
            )
            assert result.metrics.num_results == len(result.rows)

    def test_top_level_exports(self):
        for name in ("Engine", "available_engines", "PgxdAsyncEngine",
                     "SharedMemoryEngine", "BftEngine", "JoinEngine"):
            assert hasattr(repro, name)
            assert name in repro.__all__
