"""Tests for workers and the simulated cluster."""

import pytest

from repro.engine.cluster import SimulatedCluster
from repro.engine.config import BenuConfig
from repro.engine.local_task import LocalSearchTask
from repro.engine.worker import Worker
from repro.graph.generators import chung_lu, erdos_renyi
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.codegen import compile_plan
from repro.plan.generation import generate_raw_plan
from repro.plan.optimizer import optimize
from repro.storage.kvstore import DistributedKVStore


@pytest.fixture
def data_graph():
    g, _ = relabel_by_degree_order(erdos_renyi(40, 0.2, seed=3))
    return g


def plan_for(name):
    pg = PatternGraph(get_pattern(name), name)
    return optimize(generate_raw_plan(pg, list(pg.vertices)))


class TestWorker:
    def test_executes_and_accounts(self, data_graph):
        config = BenuConfig(num_workers=1, threads_per_worker=2, relabel=False)
        store = DistributedKVStore.from_graph(data_graph)
        worker = Worker(0, store, config)
        compiled = compile_plan(plan_for("triangle"))
        vset = frozenset(data_graph.vertices)
        for v in data_graph.vertices:
            worker.execute_task(compiled, LocalSearchTask(v), vset)
        assert len(worker.reports) == data_graph.num_vertices
        assert worker.busy_seconds > 0
        assert worker.makespan_seconds <= worker.busy_seconds
        assert worker.total_counters().dbq_ops > 0
        # Shared cache: far fewer store queries than get_adj calls.
        assert worker.query_stats.queries < worker.total_counters().dbq_ops

    def test_thread_load_balancing(self, data_graph):
        config = BenuConfig(num_workers=1, threads_per_worker=4, relabel=False)
        store = DistributedKVStore.from_graph(data_graph)
        worker = Worker(0, store, config)
        compiled = compile_plan(plan_for("triangle"))
        vset = frozenset(data_graph.vertices)
        for v in data_graph.vertices:
            worker.execute_task(compiled, LocalSearchTask(v), vset)
        loads = worker.thread_loads
        assert max(loads) <= sum(loads)
        assert min(loads) > 0  # greedy assignment used all threads

    def test_lpt_deterministic_on_equal_loads(self, data_graph):
        # Regression: LPT ties must break toward the lowest thread id, so
        # identical task streams land on identical threads across runs.
        config = BenuConfig(num_workers=1, threads_per_worker=4, relabel=False)
        compiled = compile_plan(plan_for("triangle"))
        vset = frozenset(data_graph.vertices)
        assignments = []
        for _ in range(2):
            store = DistributedKVStore.from_graph(data_graph)
            worker = Worker(0, store, config)
            for v in data_graph.vertices:
                worker.execute_task(compiled, LocalSearchTask(v), vset)
            assignments.append([r.thread_id for r in worker.reports])
        assert assignments[0] == assignments[1]
        # All threads start at load 0: the first `threads` tasks must fill
        # threads 0..3 in order, not whatever heap order falls out.
        assert assignments[0][:4] == [0, 1, 2, 3]


class TestCluster:
    def test_count_matches_oracle(self, data_graph):
        from repro.pattern.isomorphism import enumerate_matches

        config = BenuConfig(num_workers=3, relabel=False)
        cluster = SimulatedCluster(data_graph, config)
        plan = plan_for("q1")
        result = cluster.run_plan(plan)
        oracle = sum(
            1
            for _ in enumerate_matches(
                plan.pattern.graph,
                data_graph,
                partial_order=plan.pattern.symmetry_conditions,
            )
        )
        assert result.count == oracle

    def test_worker_count_independence(self, data_graph):
        plan = plan_for("square")
        counts = set()
        for workers in (1, 2, 5):
            config = BenuConfig(num_workers=workers, relabel=False)
            counts.add(SimulatedCluster(data_graph, config).run_plan(plan).count)
        assert len(counts) == 1

    def test_collect_mode(self, data_graph):
        config = BenuConfig(num_workers=2, collect=True, relabel=False)
        result = SimulatedCluster(data_graph, config).run_plan(plan_for("triangle"))
        assert result.matches is not None
        assert len(result.matches) == result.count
        for a, b, c in result.matches:
            assert data_graph.has_edge(a, b)
            assert data_graph.has_edge(b, c)
            assert data_graph.has_edge(a, c)
            assert a < b < c  # symmetry breaking on the triangle

    def test_metrics_populated(self, data_graph):
        config = BenuConfig(num_workers=2, relabel=False)
        result = SimulatedCluster(data_graph, config).run_plan(plan_for("q1"))
        assert result.num_tasks >= data_graph.num_vertices
        assert result.num_workers == 2
        assert result.makespan_seconds > 0
        assert len(result.per_worker_busy_seconds) == 2
        assert len(result.per_task_sim_seconds) == result.num_tasks
        assert result.communication.queries > 0
        assert result.cache.lookups > 0
        assert "pattern=q1" in result.summary()

    def test_more_workers_reduce_makespan(self):
        g, _ = relabel_by_degree_order(chung_lu(400, 8.0, seed=11))
        plan = plan_for("triangle")
        makespans = []
        for workers in (1, 4):
            config = BenuConfig(
                num_workers=workers, threads_per_worker=1, relabel=False
            )
            result = SimulatedCluster(g, config).run_plan(plan)
            makespans.append(result.makespan_seconds)
        assert makespans[1] < makespans[0]

    def test_explicit_tasks_override(self, data_graph):
        config = BenuConfig(num_workers=1, relabel=False)
        cluster = SimulatedCluster(data_graph, config)
        plan = plan_for("triangle")
        some = [LocalSearchTask(v) for v in list(data_graph.vertices)[:5]]
        result = cluster.run_plan(plan, tasks=some)
        assert result.num_tasks == 5

    def test_cache_off_increases_communication(self, data_graph):
        plan = plan_for("q1")
        with_cache = SimulatedCluster(
            data_graph, BenuConfig(num_workers=1, relabel=False)
        ).run_plan(plan)
        without = SimulatedCluster(
            data_graph,
            BenuConfig(num_workers=1, cache_capacity_bytes=0, relabel=False),
        ).run_plan(plan)
        assert without.communication.queries > with_cache.communication.queries
        assert without.count == with_cache.count
