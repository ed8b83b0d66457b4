"""PatternGraph: a pattern plus its cached analysis.

Bundles everything plan generation asks of a pattern graph — automorphism
group, symmetry-breaking partial order, SE classes, vertex covers — behind
one object, computed once.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..graph.graph import Graph, Vertex
from .automorphism import automorphism_count, automorphisms
from .equivalence import class_index, equivalence_classes
from .symmetry import Condition, along, grochow_kellis
from .vertex_cover import cover_prefix_length, minimum_vertex_cover


class PatternGraph:
    """A connected pattern graph with cached structural analysis.

    >>> from repro.graph.patterns import TRIANGLE
    >>> p = PatternGraph(TRIANGLE)
    >>> p.num_automorphisms
    6
    >>> p.symmetry_conditions
    [(1, 2), (1, 3), (2, 3)]
    """

    def __init__(self, graph: Graph, name: str = "pattern") -> None:
        if graph.num_vertices == 0:
            raise ValueError("pattern graph must be non-empty")
        if not graph.is_connected():
            raise ValueError(
                "pattern graph must be connected; decompose a disconnected "
                "pattern into components and enumerate each separately "
                "(Section II-A)"
            )
        self.graph = graph
        self.name = name

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        return self.graph.vertices

    @property
    def n(self) -> int:
        """n = |V(P)|."""
        return self.graph.num_vertices

    @property
    def m(self) -> int:
        """m = |E(P)|."""
        return self.graph.num_edges

    def neighbors(self, u: Vertex) -> FrozenSet[Vertex]:
        return self.graph.neighbors(u)

    def degree(self, u: Vertex) -> int:
        return self.graph.degree(u)

    # ------------------------------------------------------------------
    @cached_property
    def automorphisms(self) -> List[Dict[Vertex, Vertex]]:
        return automorphisms(self.graph)

    @cached_property
    def num_automorphisms(self) -> int:
        return automorphism_count(self.graph)

    @cached_property
    def symmetry_conditions(self) -> List[Condition]:
        """Partial order (lo, hi) pairs: f(lo) ≺ f(hi), over the pattern's
        own automorphism group with the default anchors."""
        return grochow_kellis(self.vertices, self.automorphisms)

    def anchored_conditions(self, order: Sequence[Vertex]) -> List[Condition]:
        """Grochow–Kellis over the same group, anchored along ``order``.

        >>> from repro.graph.patterns import TRIANGLE
        >>> PatternGraph(TRIANGLE).anchored_conditions([2, 3, 1])
        [(2, 1), (2, 3), (3, 1)]
        """
        return grochow_kellis(self.vertices, self.automorphisms, along(order))

    @cached_property
    def se_classes(self) -> List[List[Vertex]]:
        return equivalence_classes(self.graph)

    @cached_property
    def se_class_index(self) -> Dict[Vertex, int]:
        return class_index(self.graph)

    @cached_property
    def min_vertex_cover(self) -> FrozenSet[Vertex]:
        return minimum_vertex_cover(self.graph)

    def cover_prefix(self, order: Sequence[Vertex]) -> int:
        """Shortest prefix of ``order`` forming a vertex cover (VCBC)."""
        return cover_prefix_length(self.graph, order)

    def __repr__(self) -> str:
        return f"PatternGraph({self.name!r}, n={self.n}, m={self.m})"
