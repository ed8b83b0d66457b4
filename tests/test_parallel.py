"""Tests for the process execution backend (real OS multiprocessing).

Drives ``ProcessBackend`` through ``execute_plan(...,
execution_backend="process")`` and ``ExecutionRequest``: correctness
against the simulated reference under both row prices, and the
restart-robust aggregation (per-chunk records — a pool recycling its
workers mid-run can neither drop nor double-count a chunk).
"""

import os

import pytest

from repro.engine.backends import ExecutionRequest, ProcessBackend
from repro.engine.benu import (
    PreparedData,
    build_plan,
    count_subgraphs,
    execute_plan,
)
from repro.engine.config import BenuConfig, _default_process_workers
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
        # The conventional process-backend pool: all cores but one.
        result = process_count(plan, data_graph, _default_process_workers())
        assert result.num_workers >= 1
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
        # One transport: the inline worker reads the graph's frozensets.
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
    """Every chunk record is self-contained — a worker recycled mid-run
    (``maxtasksperchild``, the pool-restart failure the old
    since-previous-result scheme silently miscounted under) changes
    nothing about the aggregated totals."""

    @pytest.mark.parametrize("adjacency", ["frozenset", "csr"])
    def test_pool_restarts_do_not_skew_totals(self, data_graph, adjacency):
        plan = build_plan(get_pattern("clique4"), data_graph, optimization_level=0)
        config = BenuConfig(
            num_workers=2,
            split_threshold=8,
            adjacency_backend=adjacency,
            execution_backend="process",
            relabel=False,
        )

        def run(backend):
            return backend.execute(
                ExecutionRequest(plan=plan, graph=data_graph, config=config)
            )

        # Every chunk lands in a fresh worker process: maximal churn.
        churned = run(ProcessBackend(queue_chunksize=1, maxtasksperchild=1))
        stable = run(ProcessBackend())
        assert churned.count == stable.count
        assert churned.counters == stable.counters


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="speedup needs multiple CPU cores"
)
class TestSpeedup:
    def test_parallelism_helps_on_heavy_workload(self):
        g, _ = relabel_by_degree_order(chung_lu(1500, 8.0, seed=5))
        plan = build_plan(get_pattern("q4"), g, compressed=True)
        one = process_count(plan, g, num_workers=1)
        many = process_count(plan, g, num_workers=min(4, os.cpu_count()))
        assert many.count == one.count
        assert many.wall_seconds < one.wall_seconds
