"""Shared fixtures for the test suite."""

import pytest
from hypothesis import settings

from repro.cluster import ClusterConfig
from repro.graph import GraphBuilder, uniform_random_graph

#: ``--hypothesis-profile soak``: the two properties of
#: ``tests/test_idle_path.py`` take their example count from a selected
#: profile that asks for more than hypothesis's default (CI runs them so
#: under ``PYTHONHASHSEED`` 1 and 2; tier-1 covers 0 at its own counts).
settings.register_profile("soak", max_examples=400)


@pytest.fixture
def social_graph():
    """Small labeled/propertied graph used across front-end tests.

    People 0-3 (ages 31, 17, 25, 16), items 4-5 (laptop 1400.0,
    book 20.0); friendships and purchases with ``when`` years.
    """
    builder = GraphBuilder()
    ages = [31, 17, 25, 16]
    for index, age in enumerate(ages):
        builder.add_vertex(label="person", age=age, name="p%d" % index)
    builder.add_vertex(label="item", price=1400.0, name="laptop")
    builder.add_vertex(label="item", price=20.0, name="book")
    builder.add_edge(0, 1, label="friend", since=2015)
    builder.add_edge(1, 2, label="friend", since=2018)
    builder.add_edge(2, 0, label="friend", since=2020)
    builder.add_edge(0, 4, label="bought", when=2019)
    builder.add_edge(1, 4, label="bought", when=2021)
    builder.add_edge(3, 5, label="bought", when=2022)
    return builder.build()


@pytest.fixture
def random_graph():
    """Deterministic uniform random graph (80 vertices, 320 edges)."""
    return uniform_random_graph(80, 320, seed=1234, num_types=4)


@pytest.fixture
def small_config():
    """A 3-machine cluster config used in most runtime tests."""
    return ClusterConfig(num_machines=3, workers_per_machine=2)
