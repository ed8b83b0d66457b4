"""Reference matcher for labeled subgraph enumeration (test oracle)."""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from ..graph.graph import Vertex
from ..pattern.isomorphism import enumerate_matches
from .graphs import LabeledGraph
from .pattern import LabeledPatternGraph

Match = Tuple[Vertex, ...]


def enumerate_labeled_matches(
    pattern: LabeledPatternGraph,
    data: LabeledGraph,
    use_symmetry: bool = True,
) -> Iterator[Match]:
    """Yield label-preserving matches of ``pattern`` in ``data``.

    Built on the unlabeled oracle with a label post-filter — slow but
    unquestionably correct, which is all an oracle needs.  A ``None``
    pattern label is unconstrained, as in ``label_pools``.
    """
    conditions = pattern.symmetry_conditions if use_symmetry else ()
    vertices = pattern.vertices
    for match in enumerate_matches(
        pattern.graph, data.graph, partial_order=conditions
    ):
        if all(
            pattern.label_of(u) in (None, data.label_of(v))
            for u, v in zip(vertices, match)
        ):
            yield match


def count_labeled_matches(
    pattern: LabeledPatternGraph, data: LabeledGraph
) -> int:
    """Number of label-preserving matches (one per subgraph)."""
    return sum(1 for _ in enumerate_labeled_matches(pattern, data))
