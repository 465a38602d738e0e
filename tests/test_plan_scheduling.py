"""Unit tests for selectivity estimation and query scheduling (§5)."""

from repro.graph import GraphBuilder
from repro.pgql import parse_and_validate
from repro.plan import (
    CostModel,
    PlannerOptions,
    SchedulingPolicy,
    plan_query,
)
from repro.plan.scheduling import selectivity_order


def music_graph():
    """The §5 example graph: persons like songs from bands."""
    builder = GraphBuilder()
    persons = [
        builder.add_vertex(label="person",
                           gender="female" if i % 2 else "male")
        for i in range(20)
    ]
    songs = [
        builder.add_vertex(label="song",
                           style="rock" if i % 4 == 0 else "pop")
        for i in range(10)
    ]
    bands = [
        builder.add_vertex(label="band", name="band%d" % i)
        for i in range(5)
    ]
    for i, person in enumerate(persons):
        builder.add_edge(person, songs[i % len(songs)], label="likes")
    for i, song in enumerate(songs):
        builder.add_edge(song, bands[i % len(bands)], label="from")
    return builder.build()


PAPER_QUERY = (
    'SELECT person, band WHERE '
    '(person)-[:likes]->(song)-[:from]->(band), '
    'person.gender = "female", song.style = "rock", '
    'band.name = "band1"'
)


class TestSelectivityEstimation:
    def test_equality_on_rare_value_scores_low(self):
        graph = music_graph()
        query = parse_and_validate(PAPER_QUERY)
        scores = CostModel(graph).variable_scores(query)
        # band.name = "band1" matches exactly one of 35 vertices.
        assert scores["band"] < scores["song"] < scores["person"]

    def test_label_contributes(self):
        graph = music_graph()
        query = parse_and_validate(
            "SELECT b WHERE (a)-[]->(b:band)"
        )
        scores = CostModel(graph).variable_scores(query)
        assert scores["b"] < scores["a"]

    def test_id_equality_is_most_selective(self):
        graph = music_graph()
        query = parse_and_validate(
            "SELECT a WHERE (a WITH id() = 3)-[]->(b)"
        )
        scores = CostModel(graph).variable_scores(query)
        assert scores["a"] == 1.0 / graph.num_vertices

    def test_range_filter_halves(self):
        graph = music_graph()
        query = parse_and_validate("SELECT a WHERE (a)-[]->(b), a.id() < 5")
        scores = CostModel(graph).variable_scores(query)
        assert scores["a"] == 0.5


class TestOrdering:
    def test_paper_example_starts_from_band(self):
        """§5: 'we would prefer to start by matching the vertex band'."""
        graph = music_graph()
        query = parse_and_validate(PAPER_QUERY)
        order = selectivity_order(
            query, CostModel(graph).variable_scores(query)
        )
        assert order[0] == "band"
        # Connectivity-first growth: song joins before person.
        assert order == ["band", "song", "person"]

    def test_scheduled_plan_does_less_work(self):
        graph = music_graph()
        naive = plan_query(PAPER_QUERY, graph)
        scheduled = plan_query(
            PAPER_QUERY, graph,
            PlannerOptions(scheduling=SchedulingPolicy.SELECTIVITY),
        )
        assert naive.stages[0].var == "person"
        assert scheduled.stages[0].var == "band"

    def test_order_is_permutation(self):
        graph = music_graph()
        query = parse_and_validate(
            "SELECT a WHERE (a)-[]->(b)-[]->(c), (d)"
        )
        order = selectivity_order(
            query, CostModel(graph).variable_scores(query)
        )
        assert sorted(order) == sorted(query.vertex_vars())

    def test_explicit_order_wins_over_policy(self):
        graph = music_graph()
        plan = plan_query(
            PAPER_QUERY, graph,
            PlannerOptions(
                scheduling=SchedulingPolicy.SELECTIVITY,
                vertex_order=["song", "person", "band"],
            ),
        )
        assert plan.stages[0].var == "song"
