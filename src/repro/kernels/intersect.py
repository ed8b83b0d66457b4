"""The two intersections the benchmark ledger times.

The paper's Table III makes adjacency-set intersection *the* unit of
computation cost.  Compiled plans compute it as C-level ``frozenset``
expressions (:mod:`repro.plan.codegen`) and call nothing here; no
library module imports this package.  What is left is what
``benchmarks/ledger/layers.py`` probes, kept until the benchmark-only
change (ROADMAP item 3) retires those probes.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["intersect_merge", "intersect_views"]


def intersect_merge(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Two-pointer merge intersection of two ascending-sorted sequences.

    The python side of ``measure_crossover`` (ROADMAP item 3).

    >>> intersect_merge([1, 3, 5, 7], [2, 3, 4, 7, 9])
    [3, 7]
    """
    out: List[int] = []
    ap = out.append
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x = a[i]
        y = b[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            ap(x)
            i += 1
            j += 1
    return out


def intersect_views(a, b):
    """Unbounded row ∩ row through the rows' cached frozensets.

    ``a`` and ``b`` are anything with an ``fset()`` (a
    :class:`~repro.graph.csr.AdjacencyView`, say): the per-call cost of
    the C-speed hash intersection compiled plans run inline, which the
    ledger's ``kernels.intersect_ns.*`` times (ROADMAP item 3).
    """
    return a.fset() & b.fset()
