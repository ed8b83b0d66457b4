"""Labeled (property) graphs — the paper's second future-work direction.

The conclusion announces "extending BENU to property graphs".  This
subpackage does the vertex-label core of that extension: data and pattern
vertices carry labels, and a match must preserve them
(``label_P(u) = label_G(f(u))`` on top of Definition 1).

The design reuses the unlabeled machinery end to end:

* labels restrict candidate sets — a per-label vertex index on the data
  graph becomes one extra intersection operand in the plan;
* symmetry breaking uses the *label-preserving* automorphism subgroup, so
  the bijection between matches and subgraphs still holds;
* compiled plans receive the label index as injected constants — the
  codegen, caches, cluster and baselines are untouched.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, FrozenSet, Hashable, Iterable, Mapping, Tuple, Union

from ..graph.graph import Edge, Graph, Vertex

Label = Hashable


class LabeledGraph:
    """An undirected simple graph with one label per vertex.

    ``edges`` may also be a :class:`Graph`, which is labeled as it is:
    its adjacency is shared, not rebuilt (``vertices`` is then ignored).

    >>> g = LabeledGraph([(1, 2), (2, 3)], {1: "A", 2: "B", 3: "A"})
    >>> sorted(g.vertices_with_label("A"))
    [1, 3]
    """

    def __init__(
        self,
        edges: Union[Graph, Iterable[Edge]],
        labels: Mapping[Vertex, Label],
        vertices: Iterable[Vertex] = (),
    ) -> None:
        self.graph = (
            edges if isinstance(edges, Graph) else Graph(edges, vertices=vertices)
        )
        missing = [v for v in self.graph.vertices if v not in labels]
        if missing:
            raise ValueError(f"vertices without labels: {missing[:5]}")
        self.labels: Dict[Vertex, Label] = {
            v: labels[v] for v in self.graph.vertices
        }

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        return self.graph.vertices

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        return self.graph.neighbors(v)

    def degree(self, v: Vertex) -> int:
        return self.graph.degree(v)

    def label_of(self, v: Vertex) -> Label:
        return self.labels[v]

    @cached_property
    def label_index(self) -> Dict[Label, FrozenSet[Vertex]]:
        """label → frozenset of vertices carrying it (the candidate pools)."""
        buckets: Dict[Label, set] = {}
        for v, lbl in self.labels.items():
            buckets.setdefault(lbl, set()).add(v)
        return {lbl: frozenset(vs) for lbl, vs in buckets.items()}

    def vertices_with_label(self, label: Label) -> FrozenSet[Vertex]:
        return self.label_index.get(label, frozenset())

    def label_frequencies(self) -> Dict[Label, int]:
        """How many vertices carry each label (selectivity statistics)."""
        return {lbl: len(vs) for lbl, vs in self.label_index.items()}

    def relabel_vertices(self, mapping: Dict[Vertex, Vertex]) -> "LabeledGraph":
        """Rename vertex ids (labels follow their vertices)."""
        return LabeledGraph(
            [(mapping[u], mapping[v]) for u, v in self.graph.edges()],
            {mapping[v]: lbl for v, lbl in self.labels.items()},
            vertices=[mapping[v] for v in self.graph.vertices],
        )

    def __repr__(self) -> str:
        return (
            f"LabeledGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"labels={len(self.label_index)})"
        )
