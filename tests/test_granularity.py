"""Measured task granularity + the process backend's chunking contract.

Three layers pinned here:

* the chunk-size math of :mod:`repro.engine.granularity` — budget-driven
  sizing, the balance clamp, the cold-start fallback, and the EWMA cost
  profile;
* the end-to-end feedback loop — ``mean_task_wall_seconds`` measured by
  one process-backend run re-chunks the next via ``task_cost_hint``, and
  the service's catalog records per-plan costs across queries;
* ``_run_chunk``'s contract — the parent chunks manually and submits
  with ``imap_unordered(chunksize=1)`` so results stay timeout-pollable,
  chunk arrival order never affects accounting (records are
  self-contained), and packed ``array('q')`` task/match buffers survive
  worker restarts (``maxtasksperchild=1``) byte-for-byte.
"""

from array import array

import pytest

from repro.engine.backends.process import ProcessBackend, _run_chunk
from repro.engine.benu import run_benu
from repro.engine.config import BenuConfig
from repro.engine.granularity import (
    FALLBACK_PULLS_PER_WORKER,
    TaskCostProfile,
    fallback_chunksize,
    measured_chunksize,
    task_cost_key,
)
from repro.engine.local_task import LocalSearchTask
from repro.graph.generators import chung_lu
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.plan.codegen import COUNTER_FIELDS
from repro.service import BenuService


@pytest.fixture(scope="module")
def workload():
    g, _ = relabel_by_degree_order(chung_lu(250, 5.0, exponent=2.4, seed=23))
    return g


class TestChunkSizeMath:
    def test_fallback_is_pulls_per_worker(self):
        assert fallback_chunksize(2400, 2) == 2400 // (2 * FALLBACK_PULLS_PER_WORKER)
        assert fallback_chunksize(3, 8) == 1  # never zero

    def test_measured_targets_the_budget(self):
        # 1ms tasks, 20ms budget -> 20 tasks per pull.
        assert measured_chunksize(10_000, 2, 0.001, target_seconds=0.02) == 20

    def test_measured_clamped_by_balance(self):
        # Huge budget would want one giant chunk; the balance clamp keeps
        # at least MIN_PULLS_PER_WORKER pulls per worker.
        assert measured_chunksize(2400, 2, 1e-9) == 2400 // (2 * 4)

    def test_measured_heavy_tasks_go_fine_grained(self):
        assert measured_chunksize(2400, 2, 0.5) == 1

    def test_no_hint_falls_back(self):
        assert measured_chunksize(2400, 2, None) == fallback_chunksize(2400, 2)
        assert measured_chunksize(2400, 2, 0.0) == fallback_chunksize(2400, 2)
        assert measured_chunksize(2400, 2, -1.0) == fallback_chunksize(2400, 2)

    def test_backend_precedence_explicit_then_hint_then_fallback(self):
        explicit = ProcessBackend(queue_chunksize=7)
        assert explicit._chunksize(1000, 2, task_cost_hint=0.001) == 7
        auto = ProcessBackend()
        assert auto._chunksize(1000, 2) == fallback_chunksize(1000, 2)
        assert auto._chunksize(1000, 2, task_cost_hint=0.001) == measured_chunksize(
            1000, 2, 0.001
        )


class TestTaskCostProfile:
    def test_ewma_and_cold_start(self):
        profile = TaskCostProfile(alpha=0.5)
        key = ("p", ("1", "2"), 64, "count")
        assert profile.hint(key) is None
        profile.record(key, 0.004)
        assert profile.hint(key) == 0.004
        profile.record(key, 0.002)
        assert profile.hint(key) == pytest.approx(0.003)
        assert len(profile) == 1

    def test_nonpositive_measurements_ignored(self):
        profile = TaskCostProfile()
        key = ("p", (), None, "count")
        profile.record(key, 0.0)
        profile.record(key, -1.0)
        assert profile.hint(key) is None

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            TaskCostProfile(alpha=0.0)
        with pytest.raises(ValueError):
            TaskCostProfile(alpha=1.5)

    def test_key_ignores_worker_count_but_not_mode(self, workload):
        from repro.engine.benu import build_plan

        plan = build_plan(get_pattern("triangle"), workload)
        a = task_cost_key(plan, 64, "count")
        b = task_cost_key(plan, 64, "collect")
        c = task_cost_key(plan, None, "count")
        assert len({a, b, c}) == 3


class TestMeasuredFeedback:
    def test_mean_task_wall_measured_and_usable(self, workload):
        config = BenuConfig(
            execution_backend="process", num_workers=2, relabel=False
        )
        cold = run_benu(get_pattern("triangle"), workload, config)
        assert cold.mean_task_wall_seconds > 0
        # Feeding the measurement back must not change results.
        from repro.engine.benu import execute_plan, prepare_data, prepare_plan

        prepared = prepare_data(workload, config)
        plan = prepare_plan(get_pattern("triangle"), prepared, config)
        warm = execute_plan(
            plan, prepared, config,
            task_cost_hint=cold.mean_task_wall_seconds,
        )
        assert warm.count == cold.count
        assert warm.counters == cold.counters

    def test_simulated_backend_reports_zero(self, workload):
        result = run_benu(
            get_pattern("triangle"), workload, BenuConfig(relabel=False)
        )
        assert result.mean_task_wall_seconds == 0.0

    def test_service_records_costs_per_plan_profile(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            entry = service.catalog.get("g")
            assert len(entry.task_costs) == 0
            handle = service.submit(
                pattern=get_pattern("triangle"), graph="g",
                config=BenuConfig(
                    execution_backend="process", num_workers=2, relabel=False
                ),
            )
            handle.result(timeout=120)
            assert len(entry.task_costs) == 1
            # A second identical query reuses (and re-records) the key.
            handle = service.submit(
                pattern=get_pattern("triangle"), graph="g",
                config=BenuConfig(
                    execution_backend="process", num_workers=2, relabel=False
                ),
            )
            handle.result(timeout=120)
            assert len(entry.task_costs) == 1


class TestChunkContract:
    """_run_chunk's manual-chunking and packed-buffer invariants."""

    def _simulated(self, workload, **config):
        return run_benu(
            get_pattern("triangle"), workload,
            BenuConfig(relabel=False, collect=True, **config),
        )

    def test_packed_chunks_rehydrate_and_results_match(self, workload):
        # queue_chunksize=1 -> every chunk is its own pool task; the
        # packed starts round-trip through array('q') rehydration.
        oracle = self._simulated(workload)
        result = run_benu(
            get_pattern("triangle"), workload,
            BenuConfig(
                relabel=False, collect=True, execution_backend="process",
                num_workers=2,
            ),
        )
        assert sorted(result.matches) == sorted(oracle.matches)
        assert result.counters == oracle.counters

    def test_worker_restarts_cannot_corrupt_packed_accounting(self, workload):
        # maxtasksperchild=1 restarts a worker after every chunk — the
        # harshest interleaving: every chunk crosses a fresh process and
        # arrival order is scrambled.  Self-contained records must still
        # reproduce the exact simulated counters, kernel deltas, and
        # match multiset.
        from repro.engine.backends.base import ExecutionRequest
        from repro.engine.benu import prepare_data, prepare_plan

        config = BenuConfig(
            relabel=False, collect=True, execution_backend="process",
            num_workers=2, adjacency_backend="csr",
        )
        prepared = prepare_data(workload, config)
        plan = prepare_plan(get_pattern("triangle"), prepared, config)
        backend = ProcessBackend(queue_chunksize=1, maxtasksperchild=1)
        result = backend.execute(
            ExecutionRequest(plan=plan, graph=prepared.graph, config=config)
        )
        oracle = self._simulated(workload, adjacency_backend="csr")
        assert sorted(result.matches) == sorted(oracle.matches)
        assert result.counters == oracle.counters
        assert (
            result.telemetry.kernel_counts == oracle.telemetry.kernel_counts
        )

    def test_run_chunk_rehydrates_packed_starts_in_order(self, workload):
        # Worker-side unit check, run in-process via the inline path's
        # initializer state.
        from repro.engine.backends.process import _init_worker, _worker_state
        from repro.engine.benu import prepare_data, prepare_plan

        config = BenuConfig(relabel=False, collect=True)
        prepared = prepare_data(workload, config)
        plan = prepare_plan(get_pattern("triangle"), prepared, config)
        _init_worker(plan, "frozenset", prepared.graph, "collect", None)
        starts = [v for v in list(prepared.graph.vertices)[:5]]
        base, record = _run_chunk((17, array("q", starts)))
        assert base == 17
        _pid, counters, walls, _delta, matches = record
        assert len(walls) == len(starts)
        assert len(counters) == len(starts) * len(COUNTER_FIELDS)
        plain_base, plain_record = _run_chunk(
            (17, [LocalSearchTask(s) for s in starts])
        )
        assert plain_base == 17
        assert plain_record[1] == counters
        assert plain_record[4] == matches
        _worker_state.clear()

    def test_unsplit_int_tasks_pack_split_tasks_do_not(self):
        packed = ProcessBackend._pack_tasks(
            [LocalSearchTask(3), LocalSearchTask(5)]
        )
        assert isinstance(packed, array) and list(packed) == [3, 5]
        mixed = [
            LocalSearchTask(3),
            LocalSearchTask(5, candidate_slice=(7, 9), split_index=1, split_total=2),
        ]
        assert ProcessBackend._pack_tasks(mixed) is mixed
