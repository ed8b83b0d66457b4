"""Randomized parity tests for the intersection kernel library.

Every kernel must agree with the C-level set oracle (``frozenset &``) on
the *element multiset* — across adversarial shapes: empty operands,
disjoint ranges, nested subsets, long shared runs, and heavy size skew.
"""

import random
from array import array

import pytest

from repro.graph.csr import AdjacencyView
from repro.kernels.intersect import (
    GALLOP_RATIO,
    KernelStats,
    STATS,
    intersect_adaptive,
    intersect_filtered,
    intersect_gallop,
    intersect_merge,
    intersect_views,
)


def _oracle(a, b):
    return sorted(frozenset(a) & frozenset(b))


def _sorted_sample(rng, universe, k):
    k = min(k, universe)
    return sorted(rng.sample(range(universe), k))


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


class TestBaseKernels:
    @pytest.mark.parametrize("a,b", ADVERSARIAL_PAIRS)
    def test_adversarial_parity(self, a, b):
        want = _oracle(a, b)
        assert intersect_merge(a, b) == want
        assert intersect_gallop(a, b) == want
        assert intersect_gallop(b, a) == want
        assert intersect_adaptive(a, b, stats=KernelStats()) == want
        # Row ∩ row at every size is one frozenset intersection.
        stats = KernelStats()
        assert intersect_views(_view(a), _view(b), stats=stats) == set(want)
        assert stats.hash == stats.total() == 1

    def test_randomized_parity(self):
        rng = random.Random(2024)
        for trial in range(200):
            universe = rng.choice([10, 100, 2000])
            a = _sorted_sample(rng, universe, rng.randrange(0, universe))
            b = _sorted_sample(rng, universe, rng.randrange(0, universe))
            want = _oracle(a, b)
            assert intersect_merge(a, b) == want, (trial, a, b)
            assert intersect_gallop(a, b) == want, (trial, a, b)
            assert (
                intersect_adaptive(a, b, stats=KernelStats()) == want
            ), (trial, a, b)

    def test_adaptive_dispatch_counts(self):
        stats = KernelStats()
        balanced = (list(range(100)), list(range(50, 150)))
        skewed = ([3, 9], list(range(1000)))
        intersect_adaptive(*balanced, stats=stats)
        assert (stats.merge, stats.gallop) == (1, 0)
        intersect_adaptive(*skewed, stats=stats)
        assert (stats.merge, stats.gallop) == (1, 1)
        # Order must not matter for dispatch: smaller operand drives.
        intersect_adaptive(skewed[1], skewed[0], stats=stats)
        assert stats.gallop == 2
        assert len(skewed[0]) * GALLOP_RATIO <= len(skewed[1])


def _view(ids):
    return AdjacencyView(array("q", ids))


def _filtered_oracle(ops, lo, hi, exclude):
    out = set(ops[0])
    for op in ops[1:]:
        out &= set(op)
    if lo is not None:
        out = {v for v in out if v > lo}
    if hi is not None:
        out = {v for v in out if v < hi}
    return out - set(exclude)


class TestIntersectFiltered:
    """The compiled-plan entry point vs a brute-force oracle."""

    def test_randomized_mixed_operands(self):
        rng = random.Random(7)
        forms = [
            lambda ids: ids,
            tuple,
            frozenset,
            set,
        ]
        for trial in range(300):
            universe = rng.choice([20, 200, 1500])
            n_ops = rng.randrange(1, 4)
            raw = [
                _sorted_sample(rng, universe, rng.randrange(0, universe))
                for _ in range(n_ops)
            ]
            ops = [rng.choice(forms)(ids) for ids in raw]
            lo = rng.randrange(universe) if rng.random() < 0.5 else None
            hi = rng.randrange(universe) if rng.random() < 0.5 else None
            exclude = (
                tuple(rng.sample(range(universe), rng.randrange(0, 3)))
                if rng.random() < 0.5
                else ()
            )
            got = intersect_filtered(ops, lo, hi, exclude, stats=KernelStats())
            want = _filtered_oracle(raw, lo, hi, exclude)
            assert set(got) == want, (trial, raw, lo, hi, exclude)
            if not isinstance(got, (set, frozenset)):
                assert len(set(got)) == len(got)  # sequence results stay duplicate-free

    def test_every_form_pairing(self):
        a = list(range(0, 60, 2))
        b = list(range(0, 60, 3))
        want = _filtered_oracle([a, b], 5, 50, (12,))
        forms = [list, tuple, frozenset, set]
        for fa in forms:
            for fb in forms:
                got = intersect_filtered(
                    [fa(a), fb(b)], 5, 50, (12,), stats=KernelStats()
                )
                assert set(got) == want, (fa.__name__, fb.__name__)

    def test_single_operand(self):
        v = tuple(range(0, 100, 5))
        got = intersect_filtered([v], 10, 80, (25,), stats=KernelStats())
        assert set(got) == {x for x in range(0, 100, 5) if 10 < x < 80} - {25}


class TestKernelStats:
    def test_delta_and_record(self):
        from repro.engine.backends import mirror
        from repro.telemetry.registry import MetricsRegistry

        stats = KernelStats()
        snap = stats.as_tuple()
        intersect_filtered([{1, 2}, {2, 3}], stats=stats)
        delta = stats.delta_since(snap)
        assert sum(delta) == 1
        reg = MetricsRegistry()
        mirror(reg, KernelStats(*delta))
        assert reg.counter_total("benu_kernel_calls_total") == 1

    def test_module_stats_is_default_sink(self):
        before = STATS.total()
        intersect_filtered([{1}, {1, 2}])
        assert STATS.total() == before + 1
