"""Labeled pattern graphs and label-aware symmetry breaking.

A labeled pattern's automorphisms must preserve labels — the symmetry
group can only shrink, so the Grochow–Kellis partial order computed on the
label-preserving subgroup still bijects matches and subgraphs.  Overriding
``automorphisms`` is all it takes: :class:`PatternGraph` computes every
condition set from that group.  Syntactic equivalence is refined by label
for the same reason (dual orders must be label-isomorphic to really be
duals).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Mapping

from ..graph.graph import Graph, Vertex
from ..pattern.automorphism import automorphisms
from ..pattern.equivalence import equivalence_classes, syntactically_equivalent
from ..pattern.pattern_graph import PatternGraph
from .graphs import Label


class LabeledPatternGraph(PatternGraph):
    """A :class:`PatternGraph` whose vertices carry labels.

    >>> from repro.graph.graph import complete_graph
    >>> p = LabeledPatternGraph(complete_graph(3), {1: "A", 2: "A", 3: "B"})
    >>> p.symmetry_conditions   # only the two A-vertices are symmetric
    [(1, 2)]
    """

    def __init__(
        self,
        graph: Graph,
        labels: Mapping[Vertex, Label],
        name: str = "labeled-pattern",
    ) -> None:
        super().__init__(graph, name=name)
        missing = [u for u in graph.vertices if u not in labels]
        if missing:
            raise ValueError(f"pattern vertices without labels: {missing}")
        self.labels: Dict[Vertex, Label] = {u: labels[u] for u in graph.vertices}

    def label_of(self, u: Vertex) -> Label:
        return self.labels[u]

    # ------------------------------------------------------------------
    # Label-aware overrides
    # ------------------------------------------------------------------
    @cached_property
    def automorphisms(self) -> List[Dict[Vertex, Vertex]]:
        """Only label-preserving automorphisms count."""
        return [
            g
            for g in automorphisms(self.graph)
            if all(self.labels[u] == self.labels[g[u]] for u in self.vertices)
        ]

    @cached_property
    def num_automorphisms(self) -> int:
        return len(self.automorphisms)

    @cached_property
    def se_classes(self) -> List[List[Vertex]]:
        """Structural SE classes refined by label (dual-pruning safety)."""
        refined: List[List[Vertex]] = []
        for cls in equivalence_classes(self.graph):
            by_label: Dict[Label, List[Vertex]] = {}
            for v in cls:
                by_label.setdefault(self.labels[v], []).append(v)
            refined.extend(sorted(by_label.values(), key=lambda c: c[0]))
        return refined

    @cached_property
    def se_class_index(self) -> Dict[Vertex, int]:
        out: Dict[Vertex, int] = {}
        for i, cls in enumerate(self.se_classes):
            for v in cls:
                out[v] = i
        return out

    def __repr__(self) -> str:
        return (
            f"LabeledPatternGraph({self.name!r}, n={self.n}, m={self.m}, "
            f"labels={sorted(set(self.labels.values()), key=repr)})"
        )
