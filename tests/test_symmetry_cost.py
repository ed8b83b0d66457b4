"""Algorithm 3 prices symmetry breaking.

A plan filters every partial match on the §II-A symmetry-breaking
conditions between its enumerated vertices, so the cost model prices a
prefix at its *symmetry-broken* estimate: the match estimate times the
share of orderings the direct conditions inside the prefix admit.

What must hold:

* over the whole pattern the share is exactly 1/|Aut(P)|;
* on every prefix of every order it equals a brute-force count of the
  orderings the prefix's direct conditions admit;
* a searched plan predicts RES = whole-pattern estimate / |Aut(P)|;
* automorphic orders no longer tie, so every numbering of a shape gets a
  plan of one cost: one INT count per shape, the cheapest one.
"""

import itertools
import math

import pytest

from repro.engine.benu import build_plan, run_benu
from repro.graph.generators import chung_lu
from repro.graph.graph import Graph
from repro.graph.patterns import PATTERNS, get_pattern
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.cost import GraphStats, estimate_matches, symmetry_share

#: |Aut(P)| of every bundled pattern.
AUTOMORPHISMS = {
    "triangle": 6, "square": 8, "chordal_square": 4, "clique4": 24,
    "clique5": 120, "demo": 2, "q1": 2, "q2": 2, "q3": 6, "q4": 2,
    "q5": 10, "q6": 8, "q7": 4, "q8": 2, "q9": 4,
}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_whole_pattern_share_is_one_over_automorphisms(name):
    pg = PatternGraph(get_pattern(name), name)
    assert pg.num_automorphisms == AUTOMORPHISMS[name]
    share = symmetry_share(pg.symmetry_conditions, pg.vertices)
    assert share == pytest.approx(1 / AUTOMORPHISMS[name], rel=1e-12)


def _brute_share(conditions, prefix):
    """Orderings of the prefix's images its direct conditions admit."""
    inside = set(prefix)
    pairs = [(lo, hi) for lo, hi in conditions if lo in inside and hi in inside]
    admitted = sum(
        all(rank[prefix.index(lo)] < rank[prefix.index(hi)] for lo, hi in pairs)
        for rank in itertools.permutations(range(len(prefix)))
    )
    return admitted / math.factorial(len(prefix))


@pytest.mark.parametrize("name", ["square", "q2"])
def test_share_matches_brute_force_on_every_prefix(name):
    pg = PatternGraph(get_pattern(name), name)
    conditions = pg.symmetry_conditions
    for order in itertools.permutations(pg.vertices):
        for i in range(1, len(order) + 1):
            prefix = list(order[:i])
            assert symmetry_share(conditions, prefix) == pytest.approx(
                _brute_share(conditions, prefix), rel=1e-12
            ), (order, i)


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_searched_plan_predicts_res_per_automorphism_class(name):
    data = chung_lu(120, 5.0, exponent=2.5, seed=5)
    pattern = get_pattern(name)
    plan = build_plan(pattern, data)
    whole = estimate_matches(pattern, GraphStats.of(data))
    assert plan.predicted_counts["RES"] == pytest.approx(
        whole / AUTOMORPHISMS[name], rel=1e-9
    )


#: Position edges of the renumbered shapes, and the INT count every
#: numbering's plan must reach on the seeded graph below.  House is left
#: out: its three plans (22,455 / 70,527 / 92,380 INT) differ in where
#: the bound lands *and* in what the ER estimate cannot see (ROADMAP
#: item 5).
SHAPES = {
    "square": ([(0, 1), (1, 2), (2, 3), (0, 3)], 2_861),
    "paw": ([(0, 1), (1, 2), (0, 2), (0, 3)], 1_141),
    "tailed_square": ([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)], 31_220),
}


def _numberings(edges):
    k = 1 + max(v for e in edges for v in e)
    return sorted(
        {
            tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
            for p in itertools.permutations(range(k))
        }
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_numbering_gets_one_int_count(shape):
    edges, want = SHAPES[shape]
    data = chung_lu(300, 5.0, exponent=2.5, seed=2019)
    ints = {}
    counts = set()
    for numbering in _numberings(edges):
        result = run_benu(Graph([(a + 1, b + 1) for a, b in numbering]), data)
        ints[numbering] = result.counters.int_ops
        counts.add(result.count)
    assert len(counts) == 1
    assert set(ints.values()) == {want}, ints
