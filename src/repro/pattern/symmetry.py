"""Symmetry breaking à la Grochow–Kellis (the paper's Section II-A).

Automorphisms of P make several matches correspond to one subgraph.  The
symmetry-breaking technique [Grochow & Kellis, RECOMB'07] computes a partial
order < on V(P) such that, under the extra constraints
``u_i < u_j ⇒ f(u_i) ≺ f(u_j)``, every subgraph isomorphic to P has exactly
one surviving match.

Algorithm (:func:`grochow_kellis`): repeatedly pick an *anchor* in a
non-trivial orbit of the current automorphism subgroup, constrain it to be
≺-minimal within its orbit, and descend into its stabilizer until the group
is trivial.  Any anchor keeps the bijection; the rule only decides where the
conditions land.  :func:`largest_orbit` is the pattern's own rule (a vertex
of a largest orbit, smallest id first); :func:`along` anchors the earliest
vertex of a matching order, so a plan following that order filters as soon
as it can.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Sequence, Set, Tuple

from ..graph.graph import Graph, Vertex
from .automorphism import automorphisms, stabilizer

#: A symmetry-breaking condition ``(lo, hi)`` meaning f(lo) ≺ f(hi).
Condition = Tuple[Vertex, Vertex]
#: Picks the anchor among the vertices of non-trivial orbits, given every
#: vertex's orbit under the current subgroup.
AnchorRule = Callable[[List[Vertex], Mapping[Vertex, Set[Vertex]]], Vertex]


def largest_orbit(candidates: List[Vertex], orbit_of) -> Vertex:
    """A vertex of a largest orbit, smallest id first."""
    return max(candidates, key=lambda v: (len(orbit_of[v]), -v))


def along(order: Sequence[Vertex]) -> AnchorRule:
    """The anchor rule that picks the candidate earliest in ``order``."""
    position = {u: i for i, u in enumerate(order)}
    return lambda candidates, orbit_of: min(candidates, key=position.__getitem__)


def grochow_kellis(
    vertices: Sequence[Vertex],
    group: List[Dict[Vertex, Vertex]],
    anchor: AnchorRule = largest_orbit,
) -> List[Condition]:
    """Conditions ``(lo, hi)`` breaking every automorphism in ``group``.

    The list is empty iff the group is trivial.  A labeled pattern passes
    its label-preserving subgroup: the conditions must break exactly the
    symmetries its matches have.

    >>> from repro.graph.graph import complete_graph
    >>> g = complete_graph(3)
    >>> grochow_kellis(g.vertices, automorphisms(g), along([3, 1, 2]))
    [(3, 1), (3, 2), (1, 2)]
    """
    conditions: List[Condition] = []
    while len(group) > 1:
        orbit_of = {v: {g[v] for g in group} for v in vertices}
        candidates = [v for v in vertices if len(orbit_of[v]) > 1]
        chosen = anchor(candidates, orbit_of)
        for other in sorted(orbit_of[chosen]):
            if other != chosen:
                conditions.append((chosen, other))
        group = stabilizer(group, chosen)
    return conditions


def symmetry_breaking_conditions(pattern: Graph) -> List[Condition]:
    """The pattern's own partial order on V(P): :func:`grochow_kellis` over
    Aut(P) with :func:`largest_orbit` anchors.

    Returns pairs ``(lo, hi)`` meaning the match must satisfy
    ``f(lo) ≺ f(hi)``.  The list is empty iff Aut(P) is trivial.

    >>> from repro.graph.graph import complete_graph
    >>> symmetry_breaking_conditions(complete_graph(3))
    [(1, 2), (1, 3), (2, 3)]
    """
    return grochow_kellis(pattern.vertices, automorphisms(pattern))


def conditions_as_map(conditions: List[Condition]) -> Dict[Vertex, Dict[str, List[Vertex]]]:
    """Index conditions by vertex for plan generation.

    For each vertex ``u`` returns ``{"lt": [...], "gt": [...]}`` — vertices
    that must map strictly greater / smaller than ``u``'s image.
    """
    out: Dict[Vertex, Dict[str, List[Vertex]]] = {}
    for lo, hi in conditions:
        out.setdefault(lo, {"lt": [], "gt": []})["lt"].append(hi)
        out.setdefault(hi, {"lt": [], "gt": []})["gt"].append(lo)
    return out


def satisfies_conditions(
    match: Dict[Vertex, Vertex], conditions: List[Condition]
) -> bool:
    """Check a complete match against the partial-order constraints.

    Data-vertex comparison uses plain integer ``<``; the data graph is
    assumed relabeled so that integer order realizes the total order ≺.
    """
    return all(match[lo] < match[hi] for lo, hi in conditions)
