"""Tests for the process execution backend (real OS multiprocessing).

Drives ``ProcessBackend`` through ``execute_plan(...,
execution_backend="process")`` and ``ExecutionRequest``: correctness
against the simulated reference under both row prices, and the
restart-robust aggregation (per-chunk records — a pool recycling its
workers mid-run can neither drop nor double-count a chunk).
"""

import gc
import threading
import weakref
from dataclasses import replace

import pytest

from repro.engine.backends import ExecutionRequest, ProcessBackend
from repro.engine.benu import (
    PreparedData,
    build_plan,
    count_subgraphs,
    execute_plan,
)
from repro.engine.config import BenuConfig
from repro.graph.generators import chung_lu
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern


def process_count(plan, data, num_workers, split_threshold=64, backend="frozenset"):
    """``plan`` over ``data`` on the process backend, ids as given."""
    config = BenuConfig(
        execution_backend="process",
        num_workers=num_workers,
        split_threshold=split_threshold,
        adjacency_backend=backend,
        relabel=False,
    )
    return execute_plan(plan, PreparedData(data), config)


@pytest.fixture(scope="module")
def data_graph():
    g, _ = relabel_by_degree_order(chung_lu(400, 6.0, seed=31))
    return g


@pytest.fixture(scope="module")
def plan(data_graph):
    return build_plan(get_pattern("chordal_square"), data_graph)


class TestCorrectness:
    def test_single_worker_matches_reference(self, plan, data_graph):
        result = process_count(plan, data_graph, num_workers=1)
        reference = count_subgraphs(
            get_pattern("chordal_square"), data_graph, BenuConfig(relabel=False)
        )
        assert result.count == reference
        assert result.execution_backend == "process"

    def test_multi_worker_matches_single(self, plan, data_graph):
        one = process_count(plan, data_graph, num_workers=1)
        many = process_count(plan, data_graph, num_workers=3)
        assert many.count == one.count
        assert many.counters.enu_steps == one.counters.enu_steps
        assert many.num_workers == 3

    def test_task_splitting_consistent(self, plan, data_graph):
        unsplit = process_count(
            plan, data_graph, num_workers=2, split_threshold=None
        )
        split = process_count(plan, data_graph, num_workers=2, split_threshold=8)
        assert unsplit.count == split.count
        assert split.num_tasks > unsplit.num_tasks

    def test_counters_aggregated(self, plan, data_graph):
        result = process_count(plan, data_graph, num_workers=2)
        assert result.counters.results == result.count
        assert result.counters.dbq_ops > 0
        assert result.wall_seconds > 0
        assert len(result.per_task_sim_seconds) == result.num_tasks
        assert result.makespan_seconds > 0

    def test_runner_defaults(self, plan, data_graph):
        # A pool of two reports its size and the one-worker count.
        result = process_count(plan, data_graph, 2)
        assert result.num_workers == 2
        assert result.count == process_count(plan, data_graph, 1).count


class TestCsrBackend:
    def test_csr_matches_frozenset(self, plan, data_graph):
        fs = process_count(plan, data_graph, num_workers=2)
        cs = process_count(plan, data_graph, num_workers=2, backend="csr")
        assert cs.count == fs.count
        assert cs.counters.enu_steps == fs.counters.enu_steps
        assert cs.adjacency_backend == "csr"
        assert fs.adjacency_backend == "frozenset"

    def test_single_worker_csr_inline(self, plan, data_graph):
        result = process_count(plan, data_graph, num_workers=1, backend="csr")
        reference = process_count(plan, data_graph, num_workers=1)
        assert result.count == reference.count
        # One transport: the one worker reads the graph's frozensets.
        assert result.shm_bytes == 0

    def test_snapshot_records_no_kernel_or_shm_metric(self, plan, data_graph):
        # No plan calls a kernel and no transport maps shared memory, so
        # the run ledger records neither.
        result = process_count(plan, data_graph, num_workers=2, backend="csr")
        names = result.telemetry.registry.names()
        assert not [n for n in names if n.startswith(("benu_kernel", "benu_shm"))]
        assert result.kernel_counts == {}

    def test_unknown_backend_rejected(self, plan, data_graph):
        with pytest.raises(ValueError):
            process_count(plan, data_graph, num_workers=1, backend="btree")


class TestRestartRobustAccounting:
    """Every chunk record is self-contained — workers replaced mid-run
    (the pool-restart failure the old since-previous-result scheme
    silently miscounted under) change nothing about the aggregated
    totals."""

    @pytest.mark.parametrize("adjacency", ["frozenset", "csr"])
    def test_pool_restarts_do_not_skew_totals(
        self, data_graph, adjacency, chunks_of
    ):
        plan = build_plan(get_pattern("clique4"), data_graph, optimization_level=0)
        config = BenuConfig(
            num_workers=2,
            split_threshold=8,
            adjacency_backend=adjacency,
            execution_backend="process",
            relabel=False,
        )

        def run(backend, config):
            return backend.execute(
                ExecutionRequest(plan=plan, graph=data_graph, config=config)
            )

        stable = run(ProcessBackend(), config)
        # Every worker crashes on its first attempt-0 task, so every
        # one-task chunk lands in a fresh worker process: maximal churn.
        chunks_of(1)
        churned = run(
            ProcessBackend(), replace(config, faults="worker.task:crash@1")
        )
        assert churned.tasks_retried == churned.num_tasks > 0
        assert churned.count == stable.count
        assert churned.counters == stable.counters


class TestSpeedup:
    def test_parallelism_helps_on_heavy_workload(self):
        """Two workers share the work: the same count, more than one worker
        with tasks, and the busiest one's simulated seconds below the
        one-worker total.  Simulated seconds are a function of the
        counters, so this holds on a loaded box, where wall clocks do not.
        """
        g, _ = relabel_by_degree_order(chung_lu(1500, 8.0, seed=5))
        plan = build_plan(get_pattern("q4"), g, compressed=True)
        one = process_count(plan, g, num_workers=1)
        two = process_count(plan, g, num_workers=2)
        assert two.count == one.count
        busy = [seconds for seconds in two.per_worker_busy_seconds if seconds > 0]
        assert len(busy) > 1
        assert max(busy) < sum(one.per_worker_busy_seconds)


class TestOneWorkerIsAPoolOfOne:
    """A one-worker run forks its worker like any pool: its state lives
    and dies there, never in the parent."""

    def test_concurrent_one_worker_runs_stay_exact(self, data_graph):
        plans = {
            name: build_plan(get_pattern(name), data_graph)
            for name in ("triangle", "square")
        }
        want = {
            name: process_count(plan, data_graph, 2).count
            for name, plan in plans.items()
        }
        got = []

        def run(name):
            for _ in range(3):
                got.append(
                    (name, process_count(plans[name], data_graph, 1).count)
                )

        threads = [threading.Thread(target=run, args=(n,)) for n in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
        assert sorted(got) == sorted(
            (name, want[name]) for name in plans for _ in range(3)
        )

    def test_the_parent_keeps_no_run_alive(self, data_graph):
        plan = build_plan(get_pattern("triangle"), data_graph)
        assert process_count(plan, data_graph, 1).count > 0
        ref = weakref.ref(plan)
        del plan
        gc.collect()
        assert ref() is None
