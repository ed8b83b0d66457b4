"""Parity tests for the two intersections the benchmark ledger times.

``intersect_merge`` (the python side of ``measure_crossover``) and
``intersect_views`` (row ∩ row through the rows' cached frozensets) must
agree with the C-level set oracle (``frozenset &``) on adversarial
shapes — empty operands, disjoint ranges, nested subsets, long shared
runs, heavy size skew — and with an independent oracle built from
``np.intersect1d`` on seeded random sorted arrays.  The
``measure_crossover`` probe of :mod:`repro.kernels.vectorized` must
still measure.

numpy is only an oracle here; without it the numpy classes skip.  When
hypothesis is installed, an extra suite runs the merge parity under its
shrinking search; without hypothesis only that class skips.
"""

import random
from array import array

import pytest

try:
    import numpy as np
except ImportError:  # pragma: no cover - CI's tier-1 job installs pytest only
    np = None

from repro.graph.csr import AdjacencyView, CSRAdjacency
from repro.graph.graph import Graph
from repro.kernels import vectorized as vec
from repro.kernels.intersect import intersect_merge, intersect_views

needs_numpy = pytest.mark.skipif(np is None, reason="numpy unavailable")


def _oracle(a, b):
    return sorted(frozenset(a) & frozenset(b))


def _sorted_sample(rng, universe, k):
    k = min(k, universe)
    return sorted(rng.sample(range(universe), k))


def _view(ids):
    return AdjacencyView(array("q", ids))


ADVERSARIAL_PAIRS = [
    ([], []),
    ([], [1, 2, 3]),
    ([5], [5]),
    ([1, 2, 3], [4, 5, 6]),                  # disjoint
    ([1, 2, 3, 4, 5], [2, 3, 4]),            # nested subset
    (list(range(100)), list(range(50, 150))),  # long shared run
    ([7], list(range(0, 10_000, 3))),        # extreme skew
    (list(range(0, 1000, 2)), list(range(1, 1000, 2))),  # interleaved, empty
    (list(range(0, 900, 3)), list(range(0, 3000, 2))),    # 300-row ∩ hub row
    (                                                     # hub row ∩ hub row
        sorted(random.Random(31).sample(range(4000), 1500)),
        sorted(random.Random(32).sample(range(4000), 1200)),
    ),
]


class TestSetOracleParity:
    """merge and views == ``frozenset &``, element for element."""

    @pytest.mark.parametrize("a,b", ADVERSARIAL_PAIRS)
    def test_adversarial_parity(self, a, b):
        want = _oracle(a, b)
        assert intersect_merge(a, b) == want
        assert intersect_merge(b, a) == want
        # Row ∩ row at every size is one frozenset intersection.
        assert intersect_views(_view(a), _view(b)) == set(want)

    def test_randomized_parity(self):
        rng = random.Random(2024)
        for trial in range(200):
            universe = rng.choice([10, 100, 2000])
            a = _sorted_sample(rng, universe, rng.randrange(0, universe))
            b = _sorted_sample(rng, universe, rng.randrange(0, universe))
            want = _oracle(a, b)
            assert intersect_merge(a, b) == want, (trial, a, b)
            assert intersect_views(_view(a), _view(b)) == set(want), trial


def _arr(seq):
    return np.asarray(seq, dtype=np.int64)


def _np_intersect(a, b):
    return np.intersect1d(_arr(a), _arr(b), assume_unique=True).tolist()


SIZES = [0, 1, 2, 3, 7, 50, 400]


@needs_numpy
class TestKernelParity:
    """merge == the numpy oracle, element for element."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("na", SIZES)
    @pytest.mark.parametrize("nb", [0, 1, 8, 300])
    def test_merge_parity(self, seed, na, nb):
        rng = random.Random((seed, na, nb).__hash__())
        a = _sorted_sample(rng, 10_000, na)
        b = _sorted_sample(rng, 10_000, nb)
        assert intersect_merge(a, b) == _np_intersect(a, b)


def _views(*rows):
    """AdjacencyViews over a real CSR graph containing the given rows.

    Row contents are shifted past the row indices so no edge is a self
    loop; intersections between rows are preserved by the common shift.
    """
    base = len(rows)
    edges = [(u, base + v) for u, row in enumerate(rows) for v in row]
    csr = CSRAdjacency.from_graph(Graph(edges, vertices=range(len(rows))))
    return [csr.row(u) for u in range(len(rows))]


@needs_numpy
class TestDispatch:
    """CSR rows intersect through their frozensets at any row size."""

    def test_views_below_crossover_stay_python(self):
        a, b = _views([1, 2, 3], [2, 3, 4])
        got = intersect_views(a, b)
        assert isinstance(got, frozenset)
        assert got == set(a.ids) & set(b.ids)

    def test_crossover_none_disables_dispatch_entirely(self):
        a, b = _views(range(0, 4000, 2), range(0, 6000, 3))
        got = intersect_views(a, b)
        assert isinstance(got, frozenset)
        assert sorted(got) == _np_intersect(a.ids, b.ids)

    def test_measure_crossover_returns_probed_or_sentinel(self):
        value = vec.measure_crossover(sizes=(32, 64), repeats=2)
        assert value in (32, 64, 256)


try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs pytest only
    HAVE_HYPOTHESIS = False


@needs_numpy
@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
class TestHypothesisParity:
    """The same parity claim under hypothesis's shrinking search."""

    if HAVE_HYPOTHESIS:
        sorted_sets = st.lists(
            st.integers(min_value=0, max_value=5_000), max_size=120
        ).map(lambda xs: sorted(set(xs)))

        @settings(max_examples=60, deadline=None)
        @given(a=sorted_sets, b=sorted_sets)
        def test_merge(self, a, b):
            assert intersect_merge(a, b) == _np_intersect(a, b)
