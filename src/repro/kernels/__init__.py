"""Intersection kernels over sorted sequences (benchmarked, not compiled in)."""

from .intersect import (
    GALLOP_RATIO,
    STATS,
    KernelStats,
    intersect_adaptive,
    intersect_filtered,
    intersect_gallop,
    intersect_merge,
)

__all__ = [
    "GALLOP_RATIO",
    "STATS",
    "KernelStats",
    "intersect_adaptive",
    "intersect_filtered",
    "intersect_gallop",
    "intersect_merge",
]
