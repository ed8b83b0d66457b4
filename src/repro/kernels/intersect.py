"""Intersection kernels over sorted sequences and hash sets.

The paper's Table III makes adjacency-set intersection *the* unit of
computation cost.  Compiled plans compute it as C-level ``frozenset``
expressions (:mod:`repro.plan.codegen`) and call nothing here; this
library is what the intersection benchmarks measure against them.

Three base kernels, all over ascending-sorted sequences:

* :func:`intersect_merge`   — classic two-pointer merge, O(|A| + |B|);
* :func:`intersect_gallop`  — per-element binary search from the last hit,
  O(|A| log |B|), the winner when |A| ≪ |B|;
* hash probing — iterate the smaller operand through the larger one's
  (lazily cached) frozenset at C speed; the steady-state fast path for
  rows queried repeatedly.

:func:`intersect_adaptive` picks merge vs gallop per call by the size
ratio (``GALLOP_RATIO``).  :func:`intersect_filtered` is a filtered INT
as one call: it reorders multi-way intersections smallest-first, turns
the symmetry-breaking bounds (``v > f_i`` / ``v < f_i``) into ``bisect``
slices on the sorted source operand instead of per-candidate
comparisons, applies injectivity exclusions as O(log n) point removals,
and dispatches each pairwise step to the cheapest kernel.

Every dispatch decision is counted in :data:`STATS`
(``benu_kernel_calls_total``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "GALLOP_RATIO",
    "STATS",
    "KernelStats",
    "intersect_adaptive",
    "intersect_filtered",
    "intersect_gallop",
    "intersect_merge",
    "intersect_views",
]

#: Gallop when the larger operand is at least this many times the smaller.
GALLOP_RATIO = 8

_SET_TYPES = (set, frozenset)


@dataclass
class KernelStats:
    """Per-process counts of which kernel served each intersection."""

    merge: int = 0
    gallop: int = 0
    hash: int = 0
    slice: int = 0
    set: int = 0

    def as_tuple(self) -> Tuple[int, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def total(self) -> int:
        return sum(self.as_tuple())

    def delta_since(self, snapshot: Tuple[int, ...]) -> Tuple[int, ...]:
        """Counts since ``snapshot`` (an earlier :meth:`as_tuple`), in field order."""
        return tuple(now - before for now, before in zip(self.as_tuple(), snapshot))


#: The process-wide ledger the kernels report into by default.
STATS = KernelStats()


# ----------------------------------------------------------------------
# Base kernels (pure, sorted-sequence in, sorted list out)
# ----------------------------------------------------------------------
def intersect_merge(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Two-pointer merge intersection of two ascending-sorted sequences.

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


def intersect_gallop(small: Sequence[int], large: Sequence[int]) -> List[int]:
    """Binary-search each element of ``small`` into ``large``.

    The search window's low end advances monotonically (both inputs are
    sorted), so the total work is O(|small| · log |large|) — the right
    kernel when the operand sizes are badly skewed.

    >>> intersect_gallop([5, 40], list(range(0, 100, 2)))
    [40]
    """
    out: List[int] = []
    ap = out.append
    lo, hi = 0, len(large)
    bl = bisect_left
    for x in small:
        lo = bl(large, x, lo, hi)
        if lo == hi:
            break
        if large[lo] == x:
            ap(x)
            lo += 1
    return out


def intersect_adaptive(
    a: Sequence[int], b: Sequence[int], stats: KernelStats = STATS
) -> List[int]:
    """Merge or gallop, chosen per call by the operand size ratio.

    >>> intersect_adaptive([2, 9], list(range(100)))
    [2, 9]
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) * GALLOP_RATIO <= len(b):
        stats.gallop += 1
        return intersect_gallop(a, b)
    stats.merge += 1
    return intersect_merge(a, b)


# ----------------------------------------------------------------------
# Filtered intersections
# ----------------------------------------------------------------------
def _slice_bounds(op, lo: Optional[int], hi: Optional[int]):
    """Restrict a sorted operand to (lo, hi) exclusive, via bisect."""
    i = bisect_right(op, lo) if lo is not None else 0
    j = bisect_left(op, hi) if hi is not None else len(op)
    if i == 0 and j == len(op):
        return op
    return op[i:j]


def _hash_form(op):
    """``op`` as a hash set (computed for sorted sequences)."""
    return op if isinstance(op, _SET_TYPES) else frozenset(op)


def _bounds_filter(values: Iterable[int], lo, hi):
    if lo is not None and hi is not None:
        return {v for v in values if lo < v < hi}
    if lo is not None:
        return {v for v in values if v > lo}
    return {v for v in values if v < hi}


def _sorted_contains(seq, x) -> bool:
    i = bisect_left(seq, x)
    return i < len(seq) and seq[i] == x


def _exclude(out, exclude: Tuple[int, ...]):
    """Drop the injectivity-excluded vertices (≤ a few per instruction)."""
    if isinstance(out, _SET_TYPES):
        if out.isdisjoint(exclude):
            return out
        return out.difference(exclude)
    if any(_sorted_contains(out, e) for e in exclude):
        drop = set(exclude)
        return [v for v in out if v not in drop]
    return out


def intersect_filtered(
    ops: Sequence,
    lo: Optional[int] = None,
    hi: Optional[int] = None,
    exclude: Tuple[int, ...] = (),
    stats: KernelStats = STATS,
):
    """Multi-way filtered intersection — the generic INT realization.

    ``ops`` may mix sorted operands (ascending lists/tuples) and hash
    sets.  Operands are reordered smallest-first; bounds are realized by
    slicing a sorted operand whenever one exists.  The result is a sorted sequence
    or a set depending on the chosen kernel — callers only rely on the
    *element multiset*, which is identical either way.
    """
    if len(ops) == 1:
        return _intersect1(ops[0], lo, hi, exclude, stats)
    if len(ops) == 2:
        return _intersect2(ops[0], ops[1], lo, hi, exclude, stats)
    return _intersectn(ops, lo, hi, exclude, stats)


def _intersect1(a, lo, hi, exclude, stats: KernelStats = STATS):
    if isinstance(a, _SET_TYPES):
        stats.set += 1
        out = _bounds_filter(a, lo, hi) if (lo is not None or hi is not None) \
            else a
    else:
        stats.slice += 1
        out = _slice_bounds(a, lo, hi)
    return _exclude(out, exclude) if exclude else out


def _intersect2(a, b, lo, hi, exclude, stats: KernelStats = STATS):
    if len(a) > len(b):
        a, b = b, a
    bounded = lo is not None or hi is not None
    if not isinstance(a, _SET_TYPES):
        # Sorted smaller operand: bounds become a slice of the source.
        src = _slice_bounds(a, lo, hi) if bounded else a
        if not isinstance(b, _SET_TYPES) and len(src) * GALLOP_RATIO <= len(b):
            # Plain sorted sequence with no hash cache to amortize:
            # gallop beats building a throwaway frozenset.
            stats.gallop += 1
            out = intersect_gallop(src, b)
        else:
            stats.hash += 1
            out = _hash_form(b).intersection(src)
    elif not isinstance(b, _SET_TYPES):
        # a is a (smaller) hash set, b sorted: slice b, probe a.
        stats.hash += 1
        src = _slice_bounds(b, lo, hi) if bounded else b
        out = a.intersection(src)
    else:
        stats.set += 1
        out = a & b
        if bounded:
            out = _bounds_filter(out, lo, hi)
    return _exclude(out, exclude) if exclude else out


def _intersectn(ops, lo, hi, exclude, stats: KernelStats = STATS):
    ops = sorted(ops, key=len)  # smallest-first: cheapest source operand
    src = ops[0]
    bounded = lo is not None or hi is not None
    if not isinstance(src, _SET_TYPES):
        if bounded:
            src = _slice_bounds(src, lo, hi)
        post_filter = False
    else:
        post_filter = bounded
    rest = [_hash_form(o) for o in ops[1:]]
    stats.hash += 1
    out = rest[0].intersection(src, *rest[1:])
    if post_filter:
        out = _bounds_filter(out, lo, hi)
    return _exclude(out, exclude) if exclude else out


def intersect_views(a, b, stats: KernelStats = STATS):
    """Unbounded row ∩ row through the rows' cached frozensets.

    ``a`` and ``b`` are anything with an ``fset()`` (a
    :class:`~repro.graph.csr.AdjacencyView`, say): the per-call cost of
    the C-speed hash intersection compiled plans run inline.
    """
    stats.hash += 1
    return a.fset() & b.fset()
