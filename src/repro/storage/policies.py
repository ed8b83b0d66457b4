"""Replacement policies for the database cache.

The paper's Section V-A prescribes LRU ("the cache can capture the
intra-task locality via replacement policies like LRU") but leaves the
policy pluggable.  This module provides the classic alternatives so the
choice can be ablated (see ``benchmarks/bench_ablation_cache_policy.py``):

* **LRU** — evict the least-recently-used entry (the paper's choice;
  matches backtracking's revisit-recent-neighborhood locality).  A
  bounded cache's entry table is an ``OrderedDict`` that is its own
  recency order, so LRU needs no policy object;
* **FIFO** — evict the oldest entry regardless of use;
* **LFU** — evict the least-frequently-used entry;
* **RANDOM** — evict a (deterministically seeded) random entry.

A policy tracks keys only; the cache owns values and sizes.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Hashable, Optional


class ReplacementPolicy:
    """Interface: track key touches/inserts, nominate eviction victims."""

    def on_insert(self, key: Hashable) -> None:
        raise NotImplementedError

    def on_hit(self, key: Hashable) -> None:
        raise NotImplementedError

    def on_evict(self, key: Hashable) -> None:
        raise NotImplementedError

    def victim(self) -> Hashable:
        """The key to evict next.  Undefined when empty."""
        raise NotImplementedError


class FIFOPolicy(ReplacementPolicy):
    """First in, first out — ignores reuse entirely."""

    def __init__(self) -> None:
        self._order: "OrderedDict[Hashable, None]" = OrderedDict()

    def on_insert(self, key: Hashable) -> None:
        self._order[key] = None

    def on_hit(self, key: Hashable) -> None:
        pass  # insertion order is never refreshed

    def on_evict(self, key: Hashable) -> None:
        self._order.pop(key, None)

    def victim(self) -> Hashable:
        return next(iter(self._order))


class LFUPolicy(ReplacementPolicy):
    """Least frequently used, ties broken by insertion order."""

    def __init__(self) -> None:
        self._counts: Dict[Hashable, int] = {}
        self._arrival: Dict[Hashable, int] = {}
        self._clock = 0

    def on_insert(self, key: Hashable) -> None:
        self._clock += 1
        self._counts[key] = 1
        self._arrival[key] = self._clock

    def on_hit(self, key: Hashable) -> None:
        self._counts[key] += 1

    def on_evict(self, key: Hashable) -> None:
        self._counts.pop(key, None)
        self._arrival.pop(key, None)

    def victim(self) -> Hashable:
        return min(self._counts, key=lambda k: (self._counts[k], self._arrival[k]))


class RandomPolicy(ReplacementPolicy):
    """Uniform random eviction (seeded, so runs stay reproducible)."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._keys: Dict[Hashable, int] = {}
        self._list: list = []

    def on_insert(self, key: Hashable) -> None:
        self._keys[key] = len(self._list)
        self._list.append(key)

    def on_hit(self, key: Hashable) -> None:
        pass

    def on_evict(self, key: Hashable) -> None:
        idx = self._keys.pop(key, None)
        if idx is None:
            return
        last = self._list.pop()
        if last != key:
            self._list[idx] = last
            self._keys[last] = idx

    def victim(self) -> Hashable:
        return self._list[self._rng.randrange(len(self._list))]


POLICIES = {
    "lru": None,  # a bounded LRU table is its own recency order
    "fifo": FIFOPolicy,
    "lfu": LFUPolicy,
    "random": RandomPolicy,
}


def make_policy(name: str, seed: int = 0) -> Optional[ReplacementPolicy]:
    """Instantiate a replacement policy by name; None for ``"lru"``.

    >>> make_policy("fifo").__class__.__name__
    'FIFOPolicy'
    >>> make_policy("lru") is None
    True
    """
    try:
        cls = POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown replacement policy {name!r}; options: {sorted(POLICIES)}"
        ) from None
    if cls is None:
        return None
    if cls is RandomPolicy:
        return cls(seed=seed)
    return cls()
