"""Property tests: the python kernels agree with numpy's set routines.

Randomized sorted-array suites (seeded, so failures reproduce) check the
python kernels of :mod:`repro.kernels.intersect` against an independent
oracle built from ``np.intersect1d`` and boolean masks — including
symmetry bounds, injectivity exclusions and the empty/singleton/disjoint
edges.  Dispatch tests pin that no intersection takes a numpy path at
any row size, and that the ``measure_crossover`` probe of
:mod:`repro.kernels.vectorized` still measures.

numpy is only the oracle here; CI without numpy skips the module.  When
hypothesis is installed locally, an extra exhaustive-ish suite runs the
same assertions under its shrinking search; CI without hypothesis skips
only that class.
"""

import random
from array import array
from dataclasses import fields

import pytest

np = pytest.importorskip("numpy", exc_type=ImportError)

from repro.graph.csr import CSRAdjacency
from repro.graph.graph import Graph
from repro.kernels import vectorized as vec
from repro.kernels.intersect import (
    KernelStats,
    intersect_adaptive,
    intersect_filtered,
    intersect_gallop,
    intersect_merge,
    intersect_views,
)


def _sorted_unique(rng, size, universe=10_000):
    return sorted(rng.sample(range(universe), size))


def _arr(seq):
    return np.asarray(seq, dtype=np.int64)


def _np_intersect(a, b):
    return np.intersect1d(_arr(a), _arr(b), assume_unique=True).tolist()


def _np_filtered(ops, lo, hi, exclude):
    """The filtered intersection as numpy computes it, ascending."""
    out = _arr(ops[0])
    for op in ops[1:]:
        out = np.intersect1d(out, _arr(op), assume_unique=True)
    if lo is not None:
        out = out[out > lo]
    if hi is not None:
        out = out[out < hi]
    return np.setdiff1d(out, _arr(exclude)).tolist()


SIZES = [0, 1, 2, 3, 7, 50, 400]


class TestKernelParity:
    """python kernels == the numpy oracle, element for element."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("na", SIZES)
    @pytest.mark.parametrize("nb", [0, 1, 8, 300])
    def test_merge_parity(self, seed, na, nb):
        rng = random.Random((seed, na, nb).__hash__())
        a = _sorted_unique(rng, na)
        b = _sorted_unique(rng, nb)
        assert intersect_merge(a, b) == _np_intersect(a, b)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("nsmall", [0, 1, 5, 40])
    def test_gallop_parity(self, seed, nsmall):
        rng = random.Random((seed, nsmall).__hash__())
        small = _sorted_unique(rng, nsmall)
        large = _sorted_unique(rng, 800)
        # Force overlap so the intersection is non-trivial.
        small = sorted(set(small) | set(large[::97]))
        assert intersect_gallop(small, large) == _np_intersect(small, large)

    def test_gallop_element_past_end_of_large(self):
        # The lo == hi guard: a small element beyond large's maximum.
        got = intersect_gallop([5, 999], [1, 5, 7])
        assert got == _np_intersect([5, 999], [1, 5, 7]) == [5]

    def test_adaptive_matches_merge_and_gallop(self):
        rng = random.Random(7)
        a = _sorted_unique(rng, 10)
        b = _sorted_unique(rng, 900)
        stats = KernelStats()
        got = intersect_adaptive(a, b, stats=stats)
        assert got == _np_intersect(a, b) == intersect_merge(a, b)
        # Symmetry: argument order must not matter.
        assert intersect_adaptive(b, a, stats=stats) == got
        assert stats.gallop == 2

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("nops", [1, 2, 3, 4])
    def test_filtered_parity_with_bounds_and_exclusions(self, seed, nops):
        rng = random.Random((seed, nops).__hash__())
        ops = [_sorted_unique(rng, rng.choice([0, 1, 6, 60, 500])) for _ in range(nops)]
        lo = rng.choice([None, 2_000, 9_999])
        hi = rng.choice([None, 8_000, 1])
        pool = sorted(set().union(*map(set, ops))) or [0]
        exclude = tuple(rng.sample(pool, min(len(pool), rng.choice([0, 1, 3]))))
        got = intersect_filtered(ops, lo, hi, exclude, stats=KernelStats())
        assert sorted(got) == _np_filtered(ops, lo, hi, exclude)
        assert len(set(got)) == len(got)

    def test_bounds_slice_edges(self):
        seq = [10, 20, 30, 40]
        for lo, hi, want in (
            (None, None, [10, 20, 30, 40]),
            (10, None, [20, 30, 40]),
            (None, 40, [10, 20, 30]),
            (40, None, []),
            (None, 10, []),
        ):
            assert _np_filtered([seq], lo, hi, ()) == want
            for op in (seq, tuple(seq), array("q", seq)):
                got = intersect_filtered([op], lo, hi, stats=KernelStats())
                assert list(got) == want

    def test_exclude_edges(self):
        for ids, exclude, want in (
            ([1, 2, 3], (2,), [1, 3]),
            ([1, 2, 3], (99,), [1, 2, 3]),
            ([1, 2, 3], (1, 2, 3), []),
            ([], (1,), []),
        ):
            got = intersect_filtered([ids], exclude=exclude, stats=KernelStats())
            assert list(got) == _np_filtered([ids], None, None, exclude) == want


def _views(*rows):
    """AdjacencyViews over a real CSR graph containing the given rows.

    Row contents are shifted past the row indices so no edge is a self
    loop; intersections between rows are preserved by the common shift.
    """
    base = len(rows)
    edges = [(u, base + v) for u, row in enumerate(rows) for v in row]
    csr = CSRAdjacency.from_graph(Graph(edges, vertices=range(len(rows))))
    return [csr.row(u) for u in range(len(rows))]


class TestDispatch:
    """No intersection takes a numpy path, at any row size."""

    def test_views_below_crossover_stay_python(self):
        a, b = _views([1, 2, 3], [2, 3, 4])
        stats = KernelStats()
        got = intersect_views(a, b, stats=stats)
        assert stats.hash == stats.total() == 1
        assert got == set(a.ids) & set(b.ids)

    def test_crossover_none_disables_dispatch_entirely(self):
        assert "vector" not in {f.name for f in fields(KernelStats)}
        a, b = _views(range(0, 4000, 2), range(0, 6000, 3))
        stats = KernelStats()
        got = intersect_views(a, b, stats=stats)
        assert stats.hash == stats.total() == 1
        assert sorted(got) == _np_intersect(a.ids, b.ids)
        assert set(intersect_filtered([a.ids, b.ids], stats=stats)) == got
        assert stats.hash == stats.total() == 2

    def test_filtered_views_dispatch_with_bounds(self):
        a, b = _views(range(0, 400, 2), range(0, 600, 3))
        stats = KernelStats()
        got = intersect_filtered(
            [a.ids, b.ids], lo=10, hi=500, exclude=(12,), stats=stats
        )
        assert stats.hash == stats.total() == 1
        oracle = sorted(
            v
            for v in set(a.ids) & set(b.ids)
            if 10 < v < 500 and v != 12
        )
        assert sorted(got) == oracle

    def test_measure_crossover_returns_probed_or_sentinel(self):
        value = vec.measure_crossover(sizes=(32, 64), repeats=2)
        assert value in (32, 64, 256)


try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs pytest only
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
class TestHypothesisParity:
    """The same parity claims under hypothesis's shrinking search."""

    sorted_sets = st.lists(
        st.integers(min_value=0, max_value=5_000), max_size=120
    ).map(lambda xs: sorted(set(xs)))

    @settings(max_examples=60, deadline=None)
    @given(a=sorted_sets, b=sorted_sets)
    def test_merge(self, a, b):
        assert intersect_merge(a, b) == _np_intersect(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(sorted_sets, min_size=1, max_size=4),
        lo=st.one_of(st.none(), st.integers(0, 5_000)),
        hi=st.one_of(st.none(), st.integers(0, 5_000)),
        exclude=st.lists(st.integers(0, 5_000), max_size=3).map(tuple),
    )
    def test_filtered(self, ops, lo, hi, exclude):
        got = intersect_filtered(ops, lo, hi, exclude, stats=KernelStats())
        assert sorted(got) == _np_filtered(ops, lo, hi, exclude)
