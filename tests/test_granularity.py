"""The process backend's one chunk rule + its chunking contract.

Three layers pinned here:

* the chunk-size rule — ``ProcessBackend._chunksize`` hands each worker
  ``PULLS_PER_WORKER`` queue pulls (never an empty chunk), and an
  explicit ``queue_chunksize`` overrides it;
* chunk boundaries are a function of the task count and the worker
  count alone: cold and warm runs, count and collect mode, cheap and
  expensive patterns, and repeated service queries all dispatch the same
  ``(task_id, tasks)`` sequence.  ``mean_task_wall_seconds`` is measured
  and reported, never fed back;
* ``_run_chunk``'s contract — the parent hands each worker one
  ``(base, stop, attempt)`` range of the task list its workers
  inherited at a time; chunk arrival order never affects the rows or
  the accounting (records are self-contained and delivered in task
  order), and packed ``array('q')`` match buffers survive workers that
  crash and are replaced mid-run byte-for-byte.
"""

from dataclasses import fields

import pytest

from repro.engine.backends.base import ExecutionRequest
from repro.engine.backends.process import (
    PULLS_PER_WORKER,
    ProcessBackend,
    _run_chunk,
)
from repro.engine.benu import execute_plan, prepare_data, prepare_plan, run_benu
from repro.engine.config import BenuConfig
from repro.graph.generators import chung_lu
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.plan.codegen import COUNTER_FIELDS, TaskCounters
from repro.service import BenuService
from repro.telemetry.events import EV_TASK_DISPATCHED, EventLog
from repro.telemetry.runtime import Telemetry


@pytest.fixture(scope="module")
def workload():
    g, _ = relabel_by_degree_order(chung_lu(250, 5.0, exponent=2.4, seed=23))
    return g


def _process_config(**overrides):
    return BenuConfig(
        **{"execution_backend": "process", "num_workers": 2, "relabel": False,
           **overrides}
    )


def _rule_chunks(num_tasks, num_workers):
    """The ``(first task, tasks)`` boundaries the rule prescribes."""
    size = ProcessBackend()._chunksize(num_tasks, num_workers)
    return [
        (first, min(size, num_tasks - first))
        for first in range(0, num_tasks, size)
    ]


def _dispatched(events):
    return [
        (e.task_id, e.fields["tasks"])
        for e in events
        if e.type == EV_TASK_DISPATCHED
    ]


def _run_logged(pattern, workload, config):
    """One process-backend run: ``(result, dispatched chunks)``."""
    log = EventLog()
    prepared = prepare_data(workload, config)
    plan = prepare_plan(get_pattern(pattern), prepared, config)
    result = execute_plan(
        plan, prepared, config, telemetry=Telemetry(None, events=log)
    )
    return result, _dispatched(log.events())


class TestChunkSizeMath:
    def test_fallback_is_pulls_per_worker(self):
        rule = ProcessBackend()._chunksize
        assert rule(2400, 2) == 2400 // (2 * PULLS_PER_WORKER)
        assert rule(3, 8) == 1  # never zero

    def test_measured_targets_the_budget(self):
        # No time budget: the pull count is the target.  Every worker
        # gets at least PULLS_PER_WORKER pulls, and never twice as many.
        for num_tasks in (16, 100, 2371, 10_000):
            for num_workers in (1, 2, 3, 8):
                if num_tasks < num_workers * PULLS_PER_WORKER:
                    continue
                pulls = len(_rule_chunks(num_tasks, num_workers))
                budget = num_workers * PULLS_PER_WORKER
                assert budget <= pulls <= 2 * budget

    def test_measured_clamped_by_balance(self):
        # The balance floor is the whole rule now: as_sim's 2,371 triangle
        # tasks over 2 workers go out 148 per pull.
        assert ProcessBackend()._chunksize(2371, 2) == 148

    def test_measured_heavy_tasks_go_fine_grained(self):
        # Fewer tasks than pulls: one task per pull.
        assert ProcessBackend()._chunksize(15, 2) == 1
        assert _rule_chunks(5, 4) == [(i, 1) for i in range(5)]

    def test_no_hint_falls_back(self, workload):
        # No cost hint rides along anywhere: the rule is all there is.
        assert "task_cost_hint" not in {f.name for f in fields(ExecutionRequest)}
        config = _process_config()
        prepared = prepare_data(workload, config)
        plan = prepare_plan(get_pattern("triangle"), prepared, config)
        with pytest.raises(TypeError):
            execute_plan(plan, prepared, config, task_cost_hint=0.001)
        with pytest.raises(TypeError):
            ProcessBackend()._chunksize(2400, 2, 0.001)

    def test_backend_precedence_explicit_then_hint_then_fallback(self):
        assert ProcessBackend(queue_chunksize=7)._chunksize(1000, 2) == 7
        assert ProcessBackend(queue_chunksize=0)._chunksize(1000, 2) == 1
        assert ProcessBackend()._chunksize(1000, 2) == 1000 // (
            2 * PULLS_PER_WORKER
        )


class TestTaskCostProfile:
    """No cost profile: what a task cost never moves a chunk boundary."""

    def test_ewma_and_cold_start(self, workload):
        # A cold and a warm run of one plan chunk alike, by the rule.
        config = _process_config()
        cold, cold_chunks = _run_logged("triangle", workload, config)
        warm, warm_chunks = _run_logged("triangle", workload, config)
        assert cold.mean_task_wall_seconds > 0
        assert cold_chunks == warm_chunks == _rule_chunks(cold.num_tasks, 2)
        assert warm.counters == cold.counters

    def test_nonpositive_measurements_ignored(self, workload):
        # A cheap and an expensive pattern over the same task count split
        # identically: task cost is no input.
        config = _process_config(split_threshold=None)
        cheap, cheap_chunks = _run_logged("triangle", workload, config)
        heavy, heavy_chunks = _run_logged("clique4", workload, config)
        assert cheap.num_tasks == heavy.num_tasks
        assert cheap_chunks == heavy_chunks == _rule_chunks(cheap.num_tasks, 2)

    def test_alpha_validated(self):
        # The per-pull time budget knob is gone, not merely unused.
        with pytest.raises(TypeError):
            BenuConfig(chunk_target_seconds=0.02)

    def test_key_ignores_worker_count_but_not_mode(self, workload):
        # Boundaries follow the worker count, not the run mode.
        count, count_chunks = _run_logged("triangle", workload, _process_config())
        _, collect_chunks = _run_logged(
            "triangle", workload, _process_config(collect=True)
        )
        _, three_chunks = _run_logged(
            "triangle", workload, _process_config(num_workers=3)
        )
        assert count_chunks == collect_chunks
        assert three_chunks == _rule_chunks(count.num_tasks, 3) != count_chunks


class TestMeasuredFeedback:
    def test_mean_task_wall_measured_and_usable(self, workload):
        config = _process_config()
        cold = run_benu(get_pattern("triangle"), workload, config)
        assert cold.mean_task_wall_seconds > 0
        # A measurement only: a re-run is unchanged.
        warm = run_benu(get_pattern("triangle"), workload, config)
        assert warm.count == cold.count
        assert warm.counters == cold.counters

    def test_simulated_backend_reports_zero(self, workload):
        result = run_benu(
            get_pattern("triangle"), workload, BenuConfig(relabel=False)
        )
        assert result.mean_task_wall_seconds == 0.0

    def test_service_records_costs_per_plan_profile(self, workload):
        # The service keeps no cost record: a repeated query re-chunks
        # exactly as the first did.
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            runs = []
            for _ in range(2):
                handle = service.submit(
                    pattern=get_pattern("triangle"), graph="g",
                    config=_process_config(),
                )
                result = handle.result(timeout=120)
                runs.append(
                    _dispatched(service.events.events(query_id=handle.query_id))
                )
            assert runs[0] == runs[1] == _rule_chunks(result.num_tasks, 2)


class TestChunkContract:
    """_run_chunk's manual-chunking and packed-buffer invariants."""

    def _simulated(self, workload, **config):
        return run_benu(
            get_pattern("triangle"), workload,
            BenuConfig(relabel=False, collect=True, **config),
        )

    def test_packed_chunks_rehydrate_and_results_match(self, workload):
        # A 2-worker pool: chunks finish in any order, and the rows still
        # reach the sink in the simulated run's order.
        oracle = self._simulated(workload)
        result = run_benu(
            get_pattern("triangle"), workload,
            BenuConfig(
                relabel=False, collect=True, execution_backend="process",
                num_workers=2,
            ),
        )
        assert result.matches == oracle.matches
        assert result.counters == oracle.counters

    def test_worker_restarts_cannot_corrupt_packed_accounting(self, workload):
        # Every worker crashes on its first attempt-0 task, so every
        # one-task chunk runs on a fresh process — the harshest
        # interleaving: arrival order is scrambled and every chunk is
        # retried.  Self-contained records must still reproduce the exact
        # simulated counters and match sequence.
        from repro.engine.backends.base import ExecutionRequest
        from repro.engine.benu import prepare_data, prepare_plan

        config = BenuConfig(
            relabel=False, collect=True, execution_backend="process",
            num_workers=2, adjacency_backend="csr",
            faults="worker.task:crash@1",
        )
        prepared = prepare_data(workload, config)
        plan = prepare_plan(get_pattern("triangle"), prepared, config)
        backend = ProcessBackend(queue_chunksize=1)
        result = backend.execute(
            ExecutionRequest(plan=plan, graph=prepared.graph, config=config)
        )
        assert result.tasks_retried == result.num_tasks > 0
        oracle = self._simulated(workload, adjacency_backend="csr")
        assert result.matches == oracle.matches
        assert result.counters == oracle.counters

    def _run_range(self, plan, graph, config, tasks, base, stop):
        # Worker-side unit check, run in-process via the inline path's
        # initializer state: _run_chunk(base, stop, attempt) must run
        # exactly tasks[base:stop] of the inherited list, in order.
        from repro.engine.backends.process import _init_worker, _worker_state
        from repro.engine.backends.simulated import SimulatedBackend

        _init_worker(plan, graph, "collect", tasks)
        try:
            record = _run_chunk(base, stop, 0)
        finally:
            _worker_state.clear()
        _pid, counters, walls, matches = record
        assert len(walls) == stop - base
        assert len(counters) == (stop - base) * len(COUNTER_FIELDS)
        want = SimulatedBackend().execute(
            ExecutionRequest(
                plan=plan, graph=graph, config=config, tasks=tasks[base:stop],
            )
        )
        width = plan.pattern.n
        rows = [
            tuple(matches[i : i + width]) for i in range(0, len(matches), width)
        ]
        assert rows == want.matches
        step = len(COUNTER_FIELDS)
        assert want.counters == TaskCounters.from_tuple(
            [sum(counters[f::step]) for f in range(step)]
        )

    def test_run_chunk_runs_exactly_its_task_range(self, workload):
        from repro.engine.task_split import generate_tasks

        config = BenuConfig(relabel=False, collect=True)
        prepared = prepare_data(workload, config)
        plan = prepare_plan(get_pattern("triangle"), prepared, config)
        tasks = list(generate_tasks(plan, prepared.graph))
        assert all(t.candidate_slice is None for t in tasks)
        self._run_range(
            plan, prepared.graph, config, tasks, 3, len(tasks) - 2
        )

    def test_run_chunk_runs_split_tasks_from_the_inherited_list(
        self, workload
    ):
        # Split tasks travel by index like any other: their candidate
        # slices are the parent's own frozensets, never re-encoded.
        from repro.engine.task_split import generate_tasks

        config = BenuConfig(relabel=False, collect=True)
        prepared = prepare_data(workload, config)
        plan = prepare_plan(get_pattern("triangle"), prepared, config)
        tasks = list(generate_tasks(plan, prepared.graph, 4))
        split = [i for i, t in enumerate(tasks) if t.candidate_slice is not None]
        assert split
        base, stop = max(0, split[0] - 1), min(len(tasks), split[-1] + 2)
        assert any(t.candidate_slice is None for t in tasks[base:stop])
        self._run_range(plan, prepared.graph, config, tasks, base, stop)
