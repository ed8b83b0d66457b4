"""Tests for the LRU database cache (Section V-A)."""

from dataclasses import astuple

import pytest

from repro.graph.generators import chung_lu
from repro.graph.graph import complete_graph, star_graph
from repro.storage.cache import CacheStats, LRUDatabaseCache
from repro.storage.kvstore import DistributedKVStore
from repro.storage.policies import POLICIES


def store_for(graph):
    return DistributedKVStore.from_graph(graph)


class TestHitsAndMisses:
    def test_first_get_misses_second_hits(self):
        cache = LRUDatabaseCache(store_for(complete_graph(3)))
        cache.get(1)
        cache.get(1)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert cache.store.stats.queries == 1

    def test_hit_rate(self):
        cache = LRUDatabaseCache(store_for(complete_graph(3)))
        assert cache.stats.hit_rate == 0.0
        cache.get(1)
        cache.get(1)
        cache.get(1)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_values_correct_after_cache(self):
        g = complete_graph(4)
        cache = LRUDatabaseCache(store_for(g))
        for _ in range(2):
            for v in g.vertices:
                assert cache.get(v) == g.neighbors(v)

    def test_merge_stats(self):
        a = CacheStats(1, 2, 3)
        a.merge(CacheStats(10, 20, 30))
        assert (a.hits, a.misses, a.evictions) == (11, 22, 33)


class TestCapacity:
    def test_unbounded_never_evicts(self):
        g = star_graph(50)
        cache = LRUDatabaseCache(store_for(g), capacity_bytes=None)
        for v in g.vertices:
            cache.get(v)
        assert cache.stats.evictions == 0
        assert len(cache) == g.num_vertices

    def test_zero_capacity_disables_caching(self):
        g = complete_graph(3)
        cache = LRUDatabaseCache(store_for(g), capacity_bytes=0)
        cache.get(1)
        cache.get(1)
        assert cache.stats.hits == 0
        assert cache.store.stats.queries == 2
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUDatabaseCache(store_for(complete_graph(3)), capacity_bytes=-1)

    def test_eviction_respects_capacity(self):
        g = complete_graph(6)
        store = store_for(g)
        per_entry = store.value_bytes(1)
        cache = LRUDatabaseCache(store, capacity_bytes=per_entry * 2)
        for v in g.vertices:
            cache.get(v)
        assert cache.used_bytes <= per_entry * 2
        assert cache.stats.evictions > 0

    def test_lru_order(self):
        g = complete_graph(4)
        store = store_for(g)
        per_entry = store.value_bytes(1)
        cache = LRUDatabaseCache(store, capacity_bytes=per_entry * 2)
        cache.get(1)
        cache.get(2)
        cache.get(1)       # refresh 1: now 2 is least recent
        cache.get(3)       # evicts 2
        cache.get(1)
        assert cache.stats.hits == 2  # the refresh + the final get(1)
        before = cache.store.stats.queries
        cache.get(2)       # 2 was evicted: must re-query
        assert cache.store.stats.queries == before + 1

    def test_oversized_value_not_admitted(self):
        g = star_graph(100)  # hub adjacency is big
        store = store_for(g)
        hub_bytes = store.value_bytes(1)
        cache = LRUDatabaseCache(store, capacity_bytes=hub_bytes - 1)
        cache.get(1)
        assert len(cache) == 0  # too big to cache, nothing evicted for it

    def test_clear(self):
        cache = LRUDatabaseCache(store_for(complete_graph(3)))
        cache.get(1)
        cache.clear()
        assert len(cache) == 0 and cache.used_bytes == 0


class TestInterfaces:
    def test_query_stats_ledger_counts_misses_only(self):
        from repro.storage.kvstore import QueryStats

        ledger = QueryStats()
        cache = LRUDatabaseCache(store_for(complete_graph(3)), query_stats=ledger)
        cache.get(1)
        cache.get(1)
        assert ledger.queries == 1


class TestUncountedGetter:
    """``uncounted_getter`` + per-task ``credit_lookups`` replay ``get``."""

    @staticmethod
    def _replay(graph, capacity, policy, counted, queried=None, clear_every=0):
        """``queried`` (a list) turns telemetry on and collects every
        ``on_query`` call; ``clear_every`` clears the cache before every
        that-many-th task."""
        import random

        store = DistributedKVStore.from_graph(graph, backend="csr")
        if queried is not None:
            store.on_query = lambda *call: queried.append(call)
        cache = LRUDatabaseCache(store, capacity_bytes=capacity, policy=policy)
        rng = random.Random(11)
        # Skewed toward low ids, so some rows stay hot and some go cold.
        keys = [min(rng.choice(graph.vertices) for _ in range(2)) for _ in range(3000)]
        get = cache.get if counted else cache.uncounted_getter()
        done = tasks = 0
        while done < len(keys):
            # One task's lookups, settled the way a worker settles them.
            task = keys[done : done + rng.randint(1, 40)]
            done += len(task)
            tasks += 1
            if clear_every and tasks % clear_every == 0:
                cache.clear()
            misses_before = cache.stats.misses
            for key in task:
                assert len(get(key)) == graph.degree(key)
            if not counted:
                cache.credit_lookups(len(task), misses_before)
        return (
            astuple(cache.stats),
            cache.used_bytes,
            astuple(store.stats),
            list(cache._entries),
        )

    CAPACITIES = ["none", "zero", "row", "quarter"]

    @staticmethod
    def _capacity(graph, capacity):
        return {
            "none": None,
            "zero": 0,
            "row": 8 * max(graph.degree(v) for v in graph.vertices),
            "quarter": 8 * 2 * graph.num_edges // 4,
        }[capacity]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("capacity", ["none", "zero", "row", "quarter"])
    def test_same_ledger_and_order_as_get(self, policy, capacity):
        graph = chung_lu(120, 5.0, exponent=2.3, seed=3)
        total = 8 * 2 * graph.num_edges
        capacity_bytes = {
            "none": None,
            "zero": 0,
            "row": 8 * max(graph.degree(v) for v in graph.vertices),
            "quarter": total // 4,
        }[capacity]
        want = self._replay(graph, capacity_bytes, policy, counted=True)
        got = self._replay(graph, capacity_bytes, policy, counted=False)
        assert got == want
        if capacity in ("row", "quarter"):
            assert want[0][2] > 0  # the trace really evicts

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_telemetry_sees_every_miss_as_get_does(self, policy, capacity):
        """With ``on_query`` set, each miss reports the same
        ``(key, nbytes, cost)`` as the counted ``get``, in the same order."""
        graph = chung_lu(120, 5.0, exponent=2.3, seed=3)
        capacity_bytes = self._capacity(graph, capacity)
        want_calls, got_calls = [], []
        want = self._replay(graph, capacity_bytes, policy, True, want_calls)
        got = self._replay(graph, capacity_bytes, policy, False, got_calls)
        assert got == want
        assert got_calls == want_calls
        assert len(got_calls) == want[0][1]  # one call per miss

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_clear_between_tasks(self, policy, capacity):
        graph = chung_lu(120, 5.0, exponent=2.3, seed=3)
        capacity_bytes = self._capacity(graph, capacity)
        want = self._replay(graph, capacity_bytes, policy, True, clear_every=7)
        got = self._replay(graph, capacity_bytes, policy, False, clear_every=7)
        assert got == want

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_missing_key_raises_as_the_store_does(self, policy, capacity):
        graph = complete_graph(4)
        store = DistributedKVStore.from_graph(graph)
        with pytest.raises(KeyError) as want:
            store.get(99)
        cache = LRUDatabaseCache(
            store, capacity_bytes=self._capacity(graph, capacity), policy=policy
        )
        get = cache.uncounted_getter()
        with pytest.raises(KeyError) as got:
            get(99)
        assert str(got.value) == str(want.value)
        assert get(1) == graph.neighbors(1)  # the cache still serves
