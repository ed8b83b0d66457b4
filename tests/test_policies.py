"""Tests for cache replacement policies."""

import pytest

from repro.graph.graph import complete_graph
from repro.storage.cache import LRUDatabaseCache
from repro.storage.kvstore import DistributedKVStore
from repro.storage.policies import (
    POLICIES,
    FIFOPolicy,
    LFUPolicy,
    RandomPolicy,
    make_policy,
)


class TestFactory:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_known_policies(self, name):
        policy = make_policy(name)
        if name == "lru":
            # A bounded LRU cache's OrderedDict is its own recency order.
            assert policy is None
            return
        policy.on_insert("a")
        assert policy.victim() == "a"

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="unknown replacement policy"):
            make_policy("mru")


class TestFIFO:
    def test_hits_do_not_refresh(self):
        p = FIFOPolicy()
        for k in "abc":
            p.on_insert(k)
        p.on_hit("a")
        assert p.victim() == "a"


class TestLFU:
    def test_evicts_least_frequent(self):
        p = LFUPolicy()
        for k in "abc":
            p.on_insert(k)
        p.on_hit("a")
        p.on_hit("a")
        p.on_hit("b")
        assert p.victim() == "c"

    def test_tie_broken_by_arrival(self):
        p = LFUPolicy()
        p.on_insert("x")
        p.on_insert("y")
        assert p.victim() == "x"


class TestRandom:
    def test_victim_is_tracked_key(self):
        p = RandomPolicy(seed=3)
        for k in "abcdef":
            p.on_insert(k)
        p.on_evict("c")
        for _ in range(20):
            assert p.victim() in set("abdef")

    def test_deterministic_with_seed(self):
        def victims(seed):
            p = RandomPolicy(seed=seed)
            for k in "abcdef":
                p.on_insert(k)
            return [p.victim() for _ in range(5)]

        assert victims(1) == victims(1)


class TestCacheIntegration:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_values_always_correct(self, name):
        g = complete_graph(8)
        store = DistributedKVStore.from_graph(g)
        per_entry = store.value_bytes(1)
        cache = LRUDatabaseCache(store, capacity_bytes=3 * per_entry, policy=name)
        for _ in range(3):
            for v in g.vertices:
                assert cache.get(v) == g.neighbors(v)
        assert cache.used_bytes <= 3 * per_entry
        assert cache.stats.evictions > 0

    def test_fifo_vs_lru_on_looping_access(self):
        """A revisit-heavy trace favors LRU — the paper's rationale."""
        g = complete_graph(10)
        store = DistributedKVStore.from_graph(g)
        per_entry = store.value_bytes(1)
        trace = [1, 2, 3, 1, 2, 3, 1, 2, 3, 4, 1, 2, 3, 5, 1, 2, 3]

        def misses(policy):
            cache = LRUDatabaseCache(
                store, capacity_bytes=4 * per_entry, policy=policy
            )
            for v in trace:
                cache.get(v)
            return cache.stats.misses

        assert misses("lru") <= misses("fifo")

    def test_clear_resets_policy_state(self):
        g = complete_graph(4)
        store = DistributedKVStore.from_graph(g)
        cache = LRUDatabaseCache(store, policy="lfu")
        cache.get(1)
        cache.clear()
        cache.get(2)
        assert len(cache) == 1

    def test_config_rejects_unknown_policy(self):
        from repro.engine.config import BenuConfig

        with pytest.raises(ValueError, match="cache policy"):
            BenuConfig(cache_policy="mru")

    def test_run_benu_with_each_policy(self):
        from repro.engine.benu import count_subgraphs
        from repro.engine.config import BenuConfig
        from repro.graph.generators import erdos_renyi
        from repro.graph.patterns import get_pattern

        g = erdos_renyi(25, 0.3, seed=3)
        expected = None
        for name in sorted(POLICIES):
            config = BenuConfig(cache_policy=name, cache_capacity_bytes=512)
            got = count_subgraphs(get_pattern("triangle"), g, config)
            if expected is None:
                expected = got
            assert got == expected, name
