"""The graph catalog: each data graph loaded, relabeled and stored once.

A one-shot ``run_benu`` pays graph relabeling and distributed-store
construction on every call; a resident service registers a graph once
and every subsequent query reuses:

* the degree-relabeled graph, its id translation and its vertex labels
  in execution space (``PreparedData``);
* the distributed KV store built from it (one per storage profile —
  adjacency backend × latency model);
* warm per-worker database caches (:class:`~repro.storage.cache.CachePool`),
  checked out exclusively per running query and returned warm.

The catalog accounts its resident bytes (``memory_bytes``) and evicts
least-recently-used, unpinned entries when a capacity is configured —
the service pins an entry for the duration of each query using it.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..engine.benu import PreparedData, prepare_data
from ..engine.config import BenuConfig, build_store
from ..faults import NULL_INJECTOR, SITE_CATALOG_EVICT
from ..graph.graph import Graph
from ..labeled.graphs import LabeledGraph
from ..plan.cost import GraphStats
from ..storage.cache import CachePool
from ..storage.kvstore import DistributedKVStore
from ..storage.partition import PartitionInfo
from ..telemetry.events import EV_CATALOG_EVICTED, NULL_EVENTS
from ..telemetry.snapshot import G_CATALOG_BYTES, M_CATALOG_EVICTIONS
from .errors import InvalidQueryError, UnknownGraphError

#: Identifies which distributed store a config needs.
StoreKey = Tuple[str, object]
#: Identifies which warm cache pool a config needs (on top of a store).
PoolKey = Tuple[StoreKey, int, Optional[int], str]


def _store_key(config: BenuConfig) -> StoreKey:
    return (config.adjacency_backend, config.latency)


def _pool_key(config: BenuConfig) -> PoolKey:
    return (
        _store_key(config),
        config.num_workers,
        config.cache_capacity_bytes,
        config.cache_policy,
    )


class CatalogEntry:
    """One registered data graph and its shared, reusable state."""

    def __init__(
        self,
        name: str,
        prepared: PreparedData,
        partition: Optional[PartitionInfo] = None,
        registration: int = 0,
    ) -> None:
        self.name = name
        self.prepared = prepared
        #: This registration's serial in its catalog.  Plans are cached
        #: per registration, so a graph replaced under the same name never
        #: runs on an order picked from its predecessor's statistics.
        self.registration = registration
        #: Set once the entry has left its catalog (replaced or evicted);
        #: a query still running on it cleans up after itself.
        self.retired = False
        self.stats = GraphStats.of(prepared.graph)
        #: This node's slot in a sharded deployment (shard *i* of *N*);
        #: None for an unpartitioned, single-node registration.  Queries
        #: over a partitioned entry run only the owned start-vertex slice.
        self.partition = partition
        self._owned_starts = None
        self.pins = 0
        self.last_used = 0  # logical clock maintained by the catalog
        self._stores: Dict[StoreKey, DistributedKVStore] = {}
        # Pools not currently checked out by a running query.
        self._idle_pools: Dict[PoolKey, List[CachePool]] = {}
        self._checked_out = 0
        self._lock = threading.Lock()

    @property
    def graph(self) -> Graph:
        return self.prepared.graph

    def owned_start_vertices(self):
        """This shard's start-vertex task slice, or None when unpartitioned.

        Ownership is evaluated on *execution-space* ids (after any
        relabeling), so every shard that registered the same full graph
        under the same deterministic relabel computes the same disjoint
        slices without coordination.
        """
        if self.partition is None:
            return None
        if self._owned_starts is None:
            self._owned_starts = self.partition.owned_vertices(
                self.prepared.graph
            )
        return self._owned_starts

    # ------------------------------------------------------------------
    def store_for(self, config: BenuConfig) -> DistributedKVStore:
        """The distributed store for this config's storage profile."""
        key = _store_key(config)
        with self._lock:
            store = self._stores.get(key)
            if store is None:
                store = self._stores[key] = build_store(
                    self.prepared.graph, config
                )
            return store

    def checkout_pool(self, config: BenuConfig) -> Tuple[PoolKey, CachePool]:
        """Borrow a warm cache pool (exclusive for one running query).

        An idle warm pool is reused; otherwise a fresh one is created
        (so concurrent queries on the same graph never share mutable
        cache state — up to one pool per concurrent query accumulates).
        """
        store = self.store_for(config)
        key = _pool_key(config)
        with self._lock:
            idle = self._idle_pools.get(key)
            if idle:
                pool = idle.pop()
            else:
                pool = CachePool(
                    store,
                    num_workers=config.num_workers,
                    capacity_bytes=config.cache_capacity_bytes,
                    policy=config.cache_policy,
                )
            self._checked_out += 1
            return key, pool

    def checkin_pool(self, key: PoolKey, pool: CachePool) -> None:
        with self._lock:
            self._idle_pools.setdefault(key, []).append(pool)
            self._checked_out -= 1

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident bytes: graph adjacency + id translation + vertex pools
        (label index, degree pools) + stores + idle warm caches.

        Checked-out pools are counted by their owner query, not here.
        """
        with self._lock:
            total = self.prepared.graph.memory_bytes()
            total += self.prepared.resident_bytes()
            total += sum(store.total_bytes() for store in self._stores.values())
            total += sum(
                pool.memory_bytes()
                for pools in self._idle_pools.values()
                for pool in pools
            )
            return total


class GraphCatalog:
    """Named, memory-accounted registry of prepared data graphs.

    ``capacity_bytes=None`` disables eviction.  ``on_retire`` is called
    with the registration serial of every entry that leaves the catalog
    (replaced or evicted), so state keyed by registration goes with it.
    All methods are thread-safe.
    """

    def __init__(
        self, capacity_bytes: Optional[int] = None, registry=None,
        events=NULL_EVENTS, injector=NULL_INJECTOR,
        on_retire: Callable[[int], None] = lambda registration: None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity must be non-negative or None")
        self.capacity_bytes = capacity_bytes
        self._registry = registry
        self._events = events
        self._injector = injector
        self._on_retire = on_retire
        self._entries: Dict[str, CatalogEntry] = {}
        self._clock = 0
        self._registrations = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        graph: Graph,
        relabel: bool = True,
        replace: bool = False,
        partition: Optional[PartitionInfo] = None,
        labels: Optional[Mapping] = None,
    ) -> CatalogEntry:
        """Load ``graph`` into the catalog under ``name``.

        The graph is degree-relabeled here, once, unless ``relabel`` is
        False (pre-relabeled sources like the bundled datasets).
        ``partition`` marks the entry as one shard's slice of a
        partitioned deployment — the entry stores every row, and queries
        against it enumerate only the owned start vertices.
        ``labels`` (original-id vertex → label) gives the graph vertex
        labels, so BENU-QL label predicates can run against it; vertices
        absent from the mapping are unlabeled (label ``None``) and never
        match a label predicate.
        """
        if labels is not None:
            graph = LabeledGraph(
                graph, {v: labels.get(v) for v in graph.vertices}
            )
        prepared = prepare_data(graph, BenuConfig(relabel=relabel))
        with self._lock:
            if name in self._entries and not replace:
                raise InvalidQueryError(
                    f"graph {name!r} is already registered (use replace)"
                )
            self._registrations += 1
            entry = CatalogEntry(
                name, prepared, partition=partition,
                registration=self._registrations,
            )
            self._clock += 1
            entry.last_used = self._clock
            replaced = self._entries.get(name)
            self._entries[name] = entry
        if replaced is not None:
            self._retire(replaced)
        self._evict_over_capacity(protect=name)
        return entry

    def get(self, name: str) -> CatalogEntry:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                known = ", ".join(sorted(self._entries)) or "(none)"
                raise UnknownGraphError(
                    f"unknown graph {name!r}; registered: {known}"
                )
            self._clock += 1
            entry.last_used = self._clock
            return entry

    def pin(self, name: str) -> CatalogEntry:
        """Get an entry and protect it from eviction until :meth:`unpin`."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                known = ", ".join(sorted(self._entries)) or "(none)"
                raise UnknownGraphError(
                    f"unknown graph {name!r}; registered: {known}"
                )
            self._clock += 1
            entry.last_used = self._clock
            entry.pins += 1
            return entry

    def unpin(self, entry: CatalogEntry) -> None:
        """Release a pin :meth:`pin` returned.  It takes the entry, not its
        name: a registration may have replaced the name since, and the
        replacement's pins belong to the queries running on it."""
        with self._lock:
            if entry.pins > 0:
                entry.pins -= 1
        self._evict_over_capacity()

    def _retire(self, entry: CatalogEntry) -> None:
        entry.retired = True
        self._on_retire(entry.registration)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Total resident bytes across all entries."""
        with self._lock:
            entries = list(self._entries.values())
        return sum(entry.memory_bytes() for entry in entries)

    def _update_gauge(self) -> None:
        if self._registry is not None:
            self._registry.gauge(
                G_CATALOG_BYTES, "resident bytes held by the graph catalog"
            ).set(self.memory_bytes())

    def _evict_over_capacity(self, protect: Optional[str] = None) -> int:
        """Evict unpinned LRU entries until within capacity.

        The ``protect`` entry (just registered) is evicted last, so a
        single over-budget graph can still be queried.  Returns the
        number of evictions.
        """
        evicted = 0
        if self.capacity_bytes is None:
            self._update_gauge()
            return evicted
        while self.memory_bytes() > self.capacity_bytes:
            if self._injector.enabled:
                self._injector.hit(SITE_CATALOG_EVICT)
            with self._lock:
                victims = [
                    e
                    for e in self._entries.values()
                    if e.pins == 0 and e._checked_out == 0 and e.name != protect
                ]
                if not victims:
                    break
                victim = min(victims, key=lambda e: e.last_used)
                del self._entries[victim.name]
                evicted += 1
            self._retire(victim)
            if self._registry is not None:
                self._registry.counter(
                    M_CATALOG_EVICTIONS, "graphs evicted from the catalog"
                ).inc()
            self._events.emit(EV_CATALOG_EVICTED, graph=victim.name)
        self._update_gauge()
        return evicted
