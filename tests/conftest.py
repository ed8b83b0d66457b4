"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.graph.generators import erdos_renyi, random_connected_graph
from repro.graph.graph import Graph, complete_graph, cycle_graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import PATTERNS, get_pattern
from repro.pattern.pattern_graph import PatternGraph


@pytest.fixture
def triangle() -> Graph:
    return get_pattern("triangle")


@pytest.fixture
def small_data_graph() -> Graph:
    """A ~30-vertex random graph, relabeled under the (degree, id) order."""
    g, _ = relabel_by_degree_order(erdos_renyi(30, 0.25, seed=42))
    return g


@pytest.fixture
def medium_data_graph() -> Graph:
    """A denser ~60-vertex random graph, relabeled."""
    g, _ = relabel_by_degree_order(erdos_renyi(60, 0.15, seed=7))
    return g


@pytest.fixture
def paper_demo_graph() -> Graph:
    """A small hand-made graph in the spirit of Fig. 1(b)."""
    return Graph(
        [
            (1, 2), (1, 3), (1, 5), (1, 7), (1, 8),
            (2, 3), (2, 5), (2, 7),
            (3, 4), (3, 5), (3, 7),
            (4, 5), (4, 6),
            (5, 8), (6, 7), (7, 8),
        ]
    )


def all_pattern_names():
    """Every named pattern small enough for exhaustive testing."""
    return sorted(PATTERNS)


def pattern_graph(name: str) -> PatternGraph:
    return PatternGraph(get_pattern(name), name=name)


@pytest.fixture
def chunks_of(monkeypatch):
    """``chunks_of(size)`` makes the process backend cut its task list into
    chunks of ``size`` tasks (the last one may be shorter) instead of by
    weight, for the rest of the test."""
    from repro.engine.backends.process import ProcessBackend

    def cut(size):
        def stops(weights, num_workers):
            return [
                min(base + size, len(weights))
                for base in range(0, len(weights), size)
            ]

        monkeypatch.setattr(ProcessBackend, "_chunk_stops", staticmethod(stops))

    return cut
