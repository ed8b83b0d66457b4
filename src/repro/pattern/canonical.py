"""Canonical forms for pattern graphs.

The query service caches execution plans per *structure*, not per
labeling: two clients submitting the same pattern with different vertex
ids should hit the same cached plan.  That requires a canonical form —
a relabeling of the pattern onto ``0..n-1`` that every isomorphic copy
maps to identically.

The algorithm is exact and sized for pattern graphs (n ≤ ~10, the
paper's patterns have 3–6 vertices):

1. refine vertex colors by iterated neighborhood hashing (1-WL), which
   is isomorphism-invariant and shrinks the search space;
2. search over all orderings that list vertices in non-decreasing final
   color (vertices are only interchangeable within a color class), and
   pick the ordering whose adjacency encoding is lexicographically
   smallest, pruning orderings whose partial encoding already exceeds
   the best.

Because step 1 is invariant and step 2 minimizes over every
color-respecting ordering, isomorphic graphs produce identical
canonical edge sets; :func:`canonical_key` hashes that edge set.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from ..graph.graph import Graph, Vertex

#: Refinement rounds; n rounds always suffice to stabilize on n vertices.
_WL_ROUNDS_CAP = 16


def wl_colors(graph: Graph) -> Dict[Vertex, int]:
    """Stable 1-WL vertex colors, as dense ints (isomorphism-invariant).

    >>> from repro.graph.graph import path_graph
    >>> colors = wl_colors(path_graph(3))
    >>> colors[1] == colors[3], colors[1] == colors[2]
    (True, False)
    """
    colors = {v: graph.degree(v) for v in graph.vertices}
    for _ in range(min(graph.num_vertices, _WL_ROUNDS_CAP)):
        signatures = {
            v: (colors[v], tuple(sorted(colors[w] for w in graph.neighbors(v))))
            for v in graph.vertices
        }
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures.values())))}
        refined = {v: palette[signatures[v]] for v in graph.vertices}
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined
    return colors


def _encode(graph: Graph, order: List[Vertex]) -> Tuple[int, ...]:
    """Adjacency encoding of a (possibly partial) ordering.

    Row i lists, for each earlier position j < i, whether order[i] is
    adjacent to order[j]; flattening the rows gives a total order on
    orderings that two isomorphic graphs minimize to the same value.
    """
    bits: List[int] = []
    for i, v in enumerate(order):
        nbrs = graph.neighbors(v)
        for j in range(i):
            bits.append(1 if order[j] in nbrs else 0)
    return tuple(bits)


def canonical_order(graph: Graph) -> List[Vertex]:
    """The vertex ordering realizing the canonical form.

    Position k in the returned list becomes canonical id k.
    """
    if graph.num_vertices == 0:
        return []
    colors = wl_colors(graph)
    # Group vertices by color; orderings enumerate color classes in
    # ascending color, permuting only within a class.
    classes: Dict[int, List[Vertex]] = {}
    for v in graph.vertices:
        classes.setdefault(colors[v], []).append(v)
    class_sequence = [sorted(classes[c]) for c in sorted(classes)]

    best_order: Optional[List[Vertex]] = None
    best_bits: Optional[List[int]] = None
    order: List[Vertex] = []
    bits: List[int] = []
    used: set = set()

    def extend() -> None:
        nonlocal best_order, best_bits
        depth = len(order)
        if depth == graph.num_vertices:
            if best_bits is None or bits < best_bits:
                best_bits = list(bits)
                best_order = list(order)
            return
        # The color class the next position draws from is fixed by depth.
        consumed = 0
        for cls in class_sequence:
            if consumed + len(cls) > depth:
                candidates = [v for v in cls if v not in used]
                break
            consumed += len(cls)
        for v in candidates:
            nbrs = graph.neighbors(v)
            row = [1 if order[j] in nbrs else 0 for j in range(depth)]
            bits.extend(row)
            # Prune: a partial encoding lexicographically above the best
            # complete one can never win (prefixes align position-wise
            # because row lengths depend only on depth).
            if best_bits is None or bits <= best_bits[: len(bits)]:
                order.append(v)
                used.add(v)
                extend()
                used.discard(v)
                order.pop()
            del bits[len(bits) - len(row):]

    extend()
    assert best_order is not None
    return best_order


def canonical_relabeling(graph: Graph) -> Dict[Vertex, Vertex]:
    """Mapping original-vertex → canonical id in ``0..n-1``.

    Isomorphic graphs relabel onto the *same* canonical graph:

    >>> g1 = Graph([(1, 2), (2, 3)])
    >>> g2 = Graph([(7, 9), (9, 4)])
    >>> g1.relabel(canonical_relabeling(g1)) == g2.relabel(canonical_relabeling(g2))
    True
    """
    return {v: i for i, v in enumerate(canonical_order(graph))}


def canonical_form(graph: Graph) -> Tuple[Graph, Dict[Vertex, Vertex]]:
    """``(canonical_graph, mapping)`` with mapping original → canonical."""
    mapping = canonical_relabeling(graph)
    return graph.relabel(mapping), mapping


def canonical_key(graph: Graph) -> str:
    """A hex digest identifying ``graph`` up to isomorphism.

    Isomorphic graphs (any vertex labels) get equal keys; non-isomorphic
    ones collide only if sha256 does.
    """
    return canonical_digest(canonical_form(graph)[0])


def canonical_digest(canonical: Graph) -> str:
    """The hex digest of an already-canonical graph (see :func:`canonical_key`)."""
    payload = ";".join(
        f"{a},{b}" for a, b in sorted(tuple(sorted(e)) for e in canonical.edges())
    )
    text = f"n={canonical.num_vertices}|{payload}"
    return hashlib.sha256(text.encode("ascii")).hexdigest()
