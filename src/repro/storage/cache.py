"""The local database cache (Section V-A).

Each worker machine runs one :class:`LRUDatabaseCache` shared by all of its
working threads.  It holds adjacency sets fetched from the distributed
store, capacity-bounded in *bytes* (Fig. 8 sweeps capacity as a fraction of
the data-graph size), with LRU replacement capturing the intra-task
locality of the backtracking search and the sharing capturing inter-task
locality around hot high-degree vertices.

Compiled plans look up through :meth:`LRUDatabaseCache.uncounted_getter`
and settle the hits per task from the DBQ count.  An *unbounded* cache
(the paper's 30 GB default) never evicts: a hit is a plain dict lookup.
A bounded LRU cache — the Fig. 8 regime — is an ``OrderedDict`` that is
its own recency order, and its getter is one closure: a hit is one probe
and a ``move_to_end``; a miss reads the store's priced record, books it
on the cache, store and worker ledgers, evicts with
``popitem(last=False)`` and inserts, all in the same frame.  FIFO, LFU
and random keep a policy object and the method path.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional

from ..graph.graph import Vertex
from .kvstore import DistributedKVStore, QueryStats
from .policies import make_policy


@dataclass
class CacheStats:
    """Hit/miss accounting for one database cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served locally (0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions

    def copy(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions)



class _SelfLoadingEntries(dict):
    """Entry table of an unbounded cache: a missing key loads itself.

    ``table[key]`` on a cached key is a plain dict lookup; on any other
    key ``__missing__`` fetches the value from the store, admits it and
    counts the miss.  (``dict.get`` never calls ``__missing__``, so
    :meth:`LRUDatabaseCache.get` sees an ordinary dict.)
    """

    __slots__ = ("cache",)

    def __missing__(self, key: Vertex):
        return self.cache._miss(key)


class LRUDatabaseCache:
    """Byte-capacity cache over a :class:`DistributedKVStore`.

    The replacement policy is pluggable (``policy`` = "lru" | "fifo" |
    "lfu" | "random"); LRU is the paper's choice and the default — the
    class keeps its historical name.

    ``capacity_bytes=None`` means unbounded (the paper's default setup
    gives the cache 30 GB, far more than any of our stand-in graphs);
    ``capacity_bytes=0`` disables caching entirely.

    >>> from repro.graph.graph import complete_graph
    >>> store = DistributedKVStore.from_graph(complete_graph(3))
    >>> cache = LRUDatabaseCache(store, capacity_bytes=None)
    >>> _ = cache.get(1); _ = cache.get(1)
    >>> (cache.stats.hits, cache.stats.misses, store.stats.queries)
    (1, 1, 1)
    """

    def __init__(
        self,
        store: DistributedKVStore,
        capacity_bytes: Optional[int] = None,
        query_stats: Optional[QueryStats] = None,
        policy: str = "lru",
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity must be non-negative or None")
        self.store = store
        self.capacity_bytes = capacity_bytes
        self.query_stats = query_stats if query_stats is not None else QueryStats()
        self.stats = CacheStats()
        self.policy_name = policy
        # The hit hook.  A bounded LRU table is its own recency order and
        # an unbounded one never evicts: only FIFO, LFU and random keep a
        # policy object (see ``clear``).
        if capacity_bytes is None:
            self._entries = _SelfLoadingEntries()
            self._entries.cache = self
            self._touch = lambda key: None
        else:
            self._entries = OrderedDict()
            self._touch = (
                self._entries.move_to_end if policy == "lru" else self._policy_hit
            )
        self._entry_bytes = {}
        self.clear()

    def _policy_hit(self, key: Vertex) -> None:
        self._policy.on_hit(key)

    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Vertex) -> FrozenSet[Vertex]:
        """Adjacency set of ``key``: from cache, else from the store."""
        entry = self._entries.get(key)
        if entry is None:
            return self._miss(key)
        self.stats.hits += 1
        self._touch(key)
        return entry

    def _miss(self, key: Vertex) -> FrozenSet[Vertex]:
        self.stats.misses += 1
        value = self.store.get(key, self.query_stats)
        self._admit(key, value, self.store.records[key][1])
        return value

    def _admit(self, key: Vertex, value: FrozenSet[Vertex], nbytes: int) -> None:
        if self.capacity_bytes == 0:
            return
        if self.capacity_bytes is not None:
            if nbytes > self.capacity_bytes:
                return  # would evict everything and still not fit
            entries, policy = self._entries, self._policy
            while self._used_bytes + nbytes > self.capacity_bytes:
                if policy is None:
                    victim = entries.popitem(last=False)[0]
                else:
                    victim = policy.victim()
                    policy.on_evict(victim)
                    del entries[victim]
                self._used_bytes -= self._entry_bytes.pop(victim)
                self.stats.evictions += 1
            if policy is not None:
                policy.on_insert(key)
        self._entries[key] = value
        self._entry_bytes[key] = nbytes
        self._used_bytes += nbytes

    def clear(self) -> None:
        self._entries.clear()
        self._entry_bytes.clear()
        self._used_bytes = 0
        policy = make_policy(self.policy_name)  # rejects an unknown name
        self._policy = policy if self.capacity_bytes is not None else None

    def uncounted_getter(self) -> Callable[[Vertex], FrozenSet[Vertex]]:
        """A ``get_adj`` that counts misses but not hits.

        The caller knows how many lookups it made (a task's DBQ count) and
        settles the hits with :meth:`credit_lookups`, so :attr:`stats`
        stays exact.  Unbounded, the getter is the entry table's own
        ``__getitem__`` (its ``__missing__`` is the miss path); a bounded
        LRU cache gets :meth:`_lru_getter`'s one closure; any other bounded
        cache gets one probe and, on a hit, the hit hook.

        >>> from repro.graph.graph import complete_graph
        >>> cache = LRUDatabaseCache(DistributedKVStore.from_graph(complete_graph(3)))
        >>> get = cache.uncounted_getter()
        >>> misses = cache.stats.misses
        >>> _ = get(1); _ = get(1); _ = get(2)
        >>> cache.credit_lookups(3, misses)
        >>> (cache.stats.hits, cache.stats.misses)
        (1, 2)
        """
        if self.capacity_bytes is None:
            return self._entries.__getitem__
        if self.capacity_bytes and self._policy is None:
            return self._lru_getter()
        lookup, touch, miss = self._entries.get, self._touch, self._miss

        def get_adj(key: Vertex) -> FrozenSet[Vertex]:
            entry = lookup(key)
            if entry is None:
                return miss(key)
            touch(key)
            return entry

        return get_adj

    def _lru_getter(self) -> Callable[[Vertex], FrozenSet[Vertex]]:
        """The bounded LRU ``get_adj``: :meth:`get` less the hit count, with
        :meth:`_miss` and :meth:`_admit` inlined.

        A miss books the record ``store.get`` books, on the same ledgers in
        the same order (the float adds are order-sensitive), then evicts
        and inserts as ``_admit`` does.  Ledgers that a run may rebind
        (``query_stats``, ``store.stats``, ``store.on_query``) are read
        per miss.
        """
        entries, entry_bytes, store = self._entries, self._entry_bytes, self.store
        lookup, touch, evict = entries.get, entries.move_to_end, entries.popitem
        records, capacity = store.records, self.capacity_bytes

        def get_adj(key: Vertex) -> FrozenSet[Vertex]:
            entry = lookup(key)
            if entry is not None:
                touch(key)
                return entry
            stats = self.stats
            stats.misses += 1
            record = records.get(key)
            if record is None:
                raise KeyError(f"vertex {key} not stored")
            value, nbytes, cost = record
            ledger = store.stats
            ledger.queries += 1
            ledger.bytes_transferred += nbytes
            ledger.simulated_seconds += cost
            ledger = self.query_stats
            ledger.queries += 1
            ledger.bytes_transferred += nbytes
            ledger.simulated_seconds += cost
            if store.on_query is not None:
                store.on_query(key, nbytes, cost)
            if nbytes > capacity:
                return value  # would evict everything and still not fit
            used = self._used_bytes + nbytes
            while used > capacity:
                used -= entry_bytes.pop(evict(False)[0])
                stats.evictions += 1
            entries[key] = value
            entry_bytes[key] = nbytes
            self._used_bytes = used
            return value

        return get_adj

    def credit_lookups(self, lookups: int, misses_before: int) -> None:
        """Count as hits those of ``lookups`` that were not misses.

        ``misses_before`` is ``stats.misses`` as read before the lookups
        were made through :meth:`uncounted_getter`.
        """
        self.stats.hits += lookups - (self.stats.misses - misses_before)


class CachePool:
    """One warm database cache per worker slot, reused across queries.

    A one-shot BENU job builds its worker caches cold and throws them
    away; a resident query service wants the opposite — hub adjacency
    sets fetched by one query should serve the next.  The pool owns one
    :class:`LRUDatabaseCache` per simulated worker and hands them to the
    cluster's workers run after run (the worker rebinds the query-stats
    ledger per run, so accounting stays per-query while contents stay
    warm).

    >>> from repro.graph.graph import complete_graph
    >>> store = DistributedKVStore.from_graph(complete_graph(3))
    >>> pool = CachePool(store, num_workers=2)
    >>> len(pool.caches)
    2
    """

    def __init__(
        self,
        store: DistributedKVStore,
        num_workers: int,
        capacity_bytes: Optional[int] = None,
        policy: str = "lru",
    ) -> None:
        if num_workers < 1:
            raise ValueError("need at least one worker slot")
        self.store = store
        self.caches = [
            LRUDatabaseCache(store, capacity_bytes=capacity_bytes, policy=policy)
            for _ in range(num_workers)
        ]

    def memory_bytes(self) -> int:
        """Bytes currently held across all pooled caches."""
        return sum(cache.used_bytes for cache in self.caches)

    def clear(self) -> None:
        for cache in self.caches:
            cache.clear()

    def __len__(self) -> int:
        return len(self.caches)

