"""The distributed key-value store (the HBase stand-in).

BENU stores the data graph's adjacency sets in a distributed database and
queries them on demand (Section III).  BENU touches that database only
through ``GetAdj``, and this module simulates what the paper measures of
it:

* one table of priced rows, keyed by vertex id;
* every ``get`` is accounted: query count, bytes transferred (serialized
  adjacency size), and simulated latency (per-query overhead + per-byte
  transfer time on the paper's 1 Gbps Ethernet);
* values are the data graph's own adjacency frozensets — serialization
  cost is *accounted* rather than paid on every query, keeping the hot
  loop fast while byte numbers stay exact.

``put`` prices a row once into a *record* ``(row, nbytes, cost)``; every
query — :meth:`DistributedKVStore.get` and the database cache's miss
path — reads that one record, so there is one accounting rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from ..graph.graph import Graph, Vertex
from .serialization import adjacency_size_bytes, packed_size_bytes

#: ``backend`` -> the byte price of one stored row.
_PRICES = {"frozenset": adjacency_size_bytes, "csr": packed_size_bytes}

#: One stored row, priced at ``put``: (row, byte price, query cost).
Record = Tuple[FrozenSet[Vertex], int, float]


@dataclass
class QueryStats:
    """Accumulated accounting for one client of the store."""

    queries: int = 0
    bytes_transferred: int = 0
    simulated_seconds: float = 0.0

    def merge(self, other: "QueryStats") -> None:
        self.queries += other.queries
        self.bytes_transferred += other.bytes_transferred
        self.simulated_seconds += other.simulated_seconds

    def copy(self) -> "QueryStats":
        return QueryStats(self.queries, self.bytes_transferred, self.simulated_seconds)



@dataclass(frozen=True)
class LatencyModel:
    """Simulated cost of one database query.

    Defaults approximate the paper's testbed: ~0.5 ms round-trip to a
    distributed store on 1 Gbps Ethernet (≈ 125 MB/s payload bandwidth).
    """

    per_query_seconds: float = 5e-4
    per_byte_seconds: float = 8e-9

    def query_cost(self, num_bytes: int) -> float:
        return self.per_query_seconds + num_bytes * self.per_byte_seconds


class DistributedKVStore:
    """Adjacency sets of a data graph, one priced row per vertex.

    Every value is a frozenset.  ``backend`` picks only the byte price
    of a value, which is what the cache capacity and the communication
    ledger count: ``"frozenset"`` prices a row by its delta+varint
    serialization, ``"csr"`` at 8 bytes per id — the wire size of a raw
    int64 posting list.

    >>> from repro.graph.graph import complete_graph
    >>> store = DistributedKVStore.from_graph(complete_graph(3))
    >>> sorted(store.get(1))
    [2, 3]
    >>> store.stats.queries
    1
    """

    def __init__(
        self, latency: LatencyModel = LatencyModel(), backend: str = "frozenset"
    ) -> None:
        price = _PRICES.get(backend)
        if price is None:
            raise ValueError(f"unknown adjacency backend {backend!r}")
        self.latency = latency
        self.backend = backend
        self._price = price
        #: The priced rows: what a query reads.
        self.records: Dict[Vertex, Record] = {}
        self.stats = QueryStats()
        #: Optional telemetry hook called as ``(key, nbytes, cost_seconds)``
        #: on every get; None (the default) keeps the hot path branch-cheap.
        self.on_query = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: Graph,
        latency: LatencyModel = LatencyModel(),
        backend: str = "frozenset",
    ) -> "DistributedKVStore":
        """Load a data graph — the preprocessing step of Algorithm 2 line 1."""
        store = cls(latency, backend=backend)
        for v in graph.vertices:
            store.put(v, graph.neighbors(v))
        return store

    def put(self, key: Vertex, neighbors: FrozenSet[Vertex]) -> None:
        # ``frozenset`` of a frozenset is the same object: a graph's rows
        # are stored, not copied.
        nbytes = self._price(neighbors)
        self.records[key] = (
            frozenset(neighbors), nbytes, self.latency.query_cost(nbytes)
        )

    # ------------------------------------------------------------------
    def get(
        self, key: Vertex, stats: Optional[QueryStats] = None
    ) -> FrozenSet[Vertex]:
        """Fetch one adjacency set, accounting the query.

        ``stats`` lets callers (worker machines) account to their own
        ledger; the store-wide ledger is always updated too.
        """
        record = self.records.get(key)
        if record is None:
            raise KeyError(f"vertex {key} not stored")
        value, nbytes, cost = record
        self.stats.queries += 1
        self.stats.bytes_transferred += nbytes
        self.stats.simulated_seconds += cost
        if stats is not None:
            stats.queries += 1
            stats.bytes_transferred += nbytes
            stats.simulated_seconds += cost
        if self.on_query is not None:
            self.on_query(key, nbytes, cost)
        return value

    def value_bytes(self, key: Vertex) -> int:
        """Serialized size of one stored adjacency set."""
        return self.records[key][1]

    def reset_stats(self) -> None:
        self.stats = QueryStats()

    def __len__(self) -> int:
        return len(self.records)

    def total_bytes(self) -> int:
        """Serialized size of the whole stored graph (Fig. 8 denominator)."""
        return sum(record[1] for record in self.records.values())
