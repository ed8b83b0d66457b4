"""The intersections the benchmark ledger probes (no plan calls them)."""

from .intersect import intersect_merge, intersect_views

__all__ = ["intersect_merge", "intersect_views"]
