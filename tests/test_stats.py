"""The statistics subsystem: exact counts, collection, serialization."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph import GraphBuilder
from repro.graph.loaders import graph_from_dict, graph_to_dict, load_json, save_json
from repro.graph.property_table import PropertyColumn
from repro.graph.types import PropertyType
from repro.stats import (
    TOP_VALUES,
    GraphStatistics,
    PropertyStats,
    collect_statistics,
)


def music_graph():
    """2 bands, 4 songs (3 by band0), 5 persons; skewed fan_of."""
    builder = GraphBuilder()
    b0 = builder.add_vertex(label="band", name="b0")
    b1 = builder.add_vertex(label="band", name="b1")
    songs = [
        builder.add_vertex(label="song", year=2000 + i) for i in range(4)
    ]
    persons = [
        builder.add_vertex(label="person", name="p%d" % i, age=20 + i)
        for i in range(5)
    ]
    for song in songs[:3]:
        builder.add_edge(b0, song, label="recorded")
    builder.add_edge(b1, songs[3], label="recorded")
    for person in persons:
        builder.add_edge(person, b0, label="fan_of")
    builder.add_edge(persons[0], b1, label="fan_of")
    return builder.build()


class TestPropertyStats:
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.just(PropertyType.LONG),
                      st.lists(st.integers(-20, 20), max_size=120)),
            st.tuples(st.just(PropertyType.STRING),
                      st.lists(st.text("abc", max_size=3), max_size=120)),
        )
    )
    def test_exact_counts_of_random_columns(self, typed_values):
        ptype, values = typed_values
        column = PropertyColumn("p", ptype, len(values))
        column.fill(values)
        stats = PropertyStats.from_column(column)
        exact = Counter(values)

        assert stats.distinct == len(set(values))
        assert len(stats.top_values) == min(TOP_VALUES, len(exact))
        for value, count in stats.top_values.items():
            assert count == exact[value]
            assert stats.eq_selectivity(value) == count / len(values)
        if stats.top_values:
            floor = min(stats.top_values.values()) / len(values)
            for value in set(values) - set(stats.top_values):
                assert stats.eq_selectivity(value) <= floor
        clone = PropertyStats.from_dict(
            json.loads(json.dumps(stats.to_dict()))
        )
        assert clone.to_dict() == stats.to_dict()
        assert clone.top_values == stats.top_values

    def test_top_values_rank_by_count_then_repr(self):
        column = PropertyColumn("p", PropertyType.STRING, 7)
        column.fill(["y", "x", "z", "x", "y", "z", "z"])
        stats = PropertyStats.from_column(column)
        assert list(stats.top_values.items()) == [
            ("z", 3), ("x", 2), ("y", 2),
        ]


class TestCollect:
    def test_label_counts_and_fanout(self):
        stats = collect_statistics(music_graph())
        assert stats.vertex_label_counts == {"band": 2, "song": 4,
                                             "person": 5}
        assert stats.edge_label_counts == {"recorded": 4, "fan_of": 6}
        assert stats.edge_triples[("band", "recorded", "song")] == 4
        assert stats.expected_neighbors("band", "recorded", "out") == 2.0
        # In-direction: fans per band, songs' recording band.
        assert stats.expected_neighbors("band", "fan_of", "in") == 3.0
        assert stats.expected_neighbors("song", "recorded", "in") == 1.0

    def test_degree_histograms_both_sides(self):
        stats = collect_statistics(music_graph())
        assert stats.out_degrees["person"].max == 2  # p0 likes two bands
        assert stats.in_degrees["band"].max == 5     # b0's fans
        assert stats.in_degrees["person"].max == 0
        assert stats.out_degrees_all.count == stats.num_vertices

    def test_neighbor_label_fraction_and_edge_probability(self):
        stats = collect_statistics(music_graph())
        assert stats.neighbor_label_fraction(
            "band", "recorded", "out", "song") == 1.0
        assert stats.neighbor_label_fraction(
            "song", "recorded", "in", "band") == 1.0
        # 4 recorded edges over 2 bands x 4 songs = 0.5 expected edges.
        assert stats.edge_probability("band", "recorded", "song") == 0.5

    def test_property_selectivities(self):
        stats = collect_statistics(music_graph())
        name = stats.vertex_prop_stats("name")
        assert name is not None
        # 7 named vertices of 11 total; each name unique among them.
        assert 0.0 < name.eq_selectivity("p0") < 0.2
        year = stats.vertex_prop_stats("year")
        assert year.range_selectivity("<", 2002) > 0.0


class TestGraphIntegration:
    def test_statistics_cached_and_refreshable(self):
        graph = music_graph()
        first = graph.statistics()
        assert graph.statistics() is first
        assert graph.statistics(refresh=True) is not first

    def test_build_time_collection(self):
        builder = GraphBuilder()
        builder.add_vertex(label="v")
        graph = builder.build(collect_stats=True)
        assert graph.statistics().vertex_label_counts == {"v": 1}

    def test_in_degree_stats_counterpart(self):
        stats = music_graph().statistics()
        out, in_ = stats.out_degrees_all, stats.in_degrees_all
        assert (out.min, in_.min) == (0, 0)
        assert in_.max == 5  # b0's fan_of in-degree
        assert out.max == 3  # b0 recorded three songs
        assert out.mean == in_.mean  # same edge total on both sides

    def test_json_round_trip_preserves_stats(self, tmp_path):
        graph = music_graph()
        original = graph.statistics()
        path = str(tmp_path / "g.json")
        save_json(graph, path, include_stats=True)
        loaded = load_json(path)
        # Attached on load: no recollection pass needed or triggered.
        assert loaded.statistics().to_dict() == original.to_dict()

    def test_dict_round_trip_without_stats_stays_lean(self):
        graph = music_graph()
        doc = graph_to_dict(graph)
        assert "statistics" not in doc
        assert graph_from_dict(doc).num_vertices == graph.num_vertices

    def test_statistics_document_round_trip(self):
        stats = collect_statistics(music_graph())
        clone = GraphStatistics.from_json(stats.to_json())
        assert clone.to_dict() == stats.to_dict()

    def test_table_renders(self):
        text = collect_statistics(music_graph()).table(top=2)
        assert "vertex label" in text
        assert "band" in text and "fan_of" in text
        assert "distinct=8" in text  # 7 names and the unset default
        assert "'b0'                     count=1" in text


def schema_1_document():
    """A statistics document as written before ``/2``: sketch state."""
    return {
        "schema": "repro-graph-stats/1",
        "num_vertices": 2,
        "num_edges": 0,
        "vertex_label_counts": [[None, 2]],
        "edge_label_counts": [],
        "out_degrees": [],
        "in_degrees": [],
        "out_degrees_all": {"count": 2, "min": 0, "max": 0, "mean": 0.0,
                            "buckets": [2]},
        "in_degrees_all": {"count": 2, "min": 0, "max": 0, "mean": 0.0,
                           "buckets": [2]},
        "edge_triples": [],
        "vertex_properties": {
            "age": {
                "name": "age", "type": "long", "count": 2,
                "distinct": {"capacity": 256,
                             "hashes": [1152921504606846976,
                                        6917529027641081856]},
                "top_values": {"capacity": 16, "total": 2,
                               "entries": [[30, 1, 0], [40, 1, 0]]},
                "numeric_min": 30, "numeric_max": 40,
            },
        },
        "edge_properties": {},
    }


class TestForeignDocuments:
    """ROADMAP 6d: a typed failure, never a raw KeyError."""

    @pytest.mark.parametrize("mutate", [
        lambda doc: doc,
        lambda doc: doc.pop("schema"),
        lambda doc: doc.update(schema="somebody-else/9"),
    ])
    def test_from_json_rejects_other_schemas(self, mutate):
        doc = schema_1_document()
        mutate(doc)
        with pytest.raises(GraphError) as excinfo:
            GraphStatistics.from_json(json.dumps(doc))
        message = str(excinfo.value)
        assert repr(doc.get("schema")) in message
        assert "repro-graph-stats/2" in message

    @pytest.mark.parametrize("text", [
        "[]", "nope", '{"schema": "repro-graph-stats/2"}',
    ], ids=["not-an-object", "not-json", "no-fields"])
    def test_from_json_rejects_non_documents(self, text):
        with pytest.raises(GraphError, match="statistics document"):
            GraphStatistics.from_json(text)

    def test_graph_loaders_reject_older_statistics(self, tmp_path):
        doc = graph_to_dict(music_graph())
        doc["stats"] = schema_1_document()
        with pytest.raises(GraphError, match="repro-graph-stats/1"):
            graph_from_dict(doc)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphError, match="repro-graph-stats/1"):
            load_json(str(path))
