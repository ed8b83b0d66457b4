"""Tests for the distributed KV store simulation."""

import pytest

from repro.graph.graph import complete_graph
from repro.storage.kvstore import DistributedKVStore, LatencyModel, QueryStats
from repro.storage.serialization import adjacency_size_bytes


class TestBasics:
    def test_from_graph_and_get(self):
        g = complete_graph(4)
        store = DistributedKVStore.from_graph(g)
        for v in g.vertices:
            assert store.get(v) == g.neighbors(v)

    def test_missing_key(self):
        store = DistributedKVStore.from_graph(complete_graph(3))
        with pytest.raises(KeyError):
            store.get(99)

    def test_len_counts_keys(self):
        store = DistributedKVStore.from_graph(complete_graph(5))
        assert len(store) == 5


class TestAccounting:
    def test_query_count_and_bytes(self):
        g = complete_graph(4)
        store = DistributedKVStore.from_graph(g)
        store.get(1)
        store.get(1)
        assert store.stats.queries == 2
        expected = 2 * adjacency_size_bytes(g.neighbors(1))
        assert store.stats.bytes_transferred == expected

    def test_client_ledger(self):
        store = DistributedKVStore.from_graph(complete_graph(3))
        mine = QueryStats()
        store.get(1, mine)
        store.get(2)
        assert mine.queries == 1
        assert store.stats.queries == 2

    def test_latency_model(self):
        latency = LatencyModel(per_query_seconds=1.0, per_byte_seconds=0.5)
        assert latency.query_cost(10) == pytest.approx(6.0)
        store = DistributedKVStore.from_graph(complete_graph(3), latency=latency)
        store.get(1)
        nbytes = store.value_bytes(1)
        assert store.stats.simulated_seconds == pytest.approx(1.0 + 0.5 * nbytes)

    def test_reset_stats(self):
        store = DistributedKVStore.from_graph(complete_graph(3))
        store.get(1)
        store.reset_stats()
        assert store.stats.queries == 0

    def test_total_bytes(self):
        g = complete_graph(4)
        store = DistributedKVStore.from_graph(g)
        assert store.total_bytes() == sum(
            adjacency_size_bytes(g.neighbors(v)) for v in g.vertices
        )

    def test_merge_and_copy(self):
        a = QueryStats(1, 10, 0.5)
        b = a.copy()
        b.merge(QueryStats(2, 20, 1.0))
        assert (b.queries, b.bytes_transferred, b.simulated_seconds) == (3, 30, 1.5)
        assert a.queries == 1  # copy detached
