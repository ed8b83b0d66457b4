"""The process backend's one chunk rule + its chunking contract.

Three layers pinned here:

* the chunk rule — ``ProcessBackend._chunk_stops`` cuts chunks by work,
  not by count.  A task weighs its start vertex's degree (a split
  slice, its candidate count); a chunk closes as soon as the running
  weight crosses the next multiple of ``total / (workers ×
  PULLS_PER_WORKER)``.  Chunks tile the task list and none is empty;
* chunk boundaries are a function of the task list, the graph's degrees
  and the worker count alone: cold and warm runs, count and collect
  mode, cheap and expensive patterns, and repeated service queries all
  dispatch the same ``(task_id, tasks)`` sequence.
  ``mean_task_wall_seconds`` is measured and reported, never fed back;
  on a degree-sorted hub graph no chunk carries most of the rows;
* ``_run_tasks``'s contract — the parent hands each worker one
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
    _init_worker,
    _run_tasks,
)
from repro.engine.benu import (
    bind_run,
    execute_plan,
    prepare_data,
    prepare_plan,
    run_benu,
)
from repro.engine.config import BenuConfig
from repro.engine.task_split import generate_tasks
from repro.graph.generators import chung_lu
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.plan.codegen import COUNTER_FIELDS, TaskCounters
from repro.service import BenuService
from repro.telemetry.events import EV_TASK_DISPATCHED, EV_TASK_FINISHED, EventLog
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


def _weights(pattern, graph, config):
    """Each task's static weight, for the tasks a run of ``pattern``
    generates: its start vertex's degree, or a split slice's size."""
    prepared = prepare_data(graph, config)
    plan = prepare_plan(get_pattern(pattern), prepared, config)
    plan, starts = bind_run(plan, prepared, config, counting=not config.collect)
    tasks = generate_tasks(plan, prepared.graph, config.split_threshold, starts)
    return [
        len(t.candidate_slice) if t.is_split else prepared.graph.degree(t.start)
        for t in tasks
    ]


def _as_chunks(stops):
    """``(first task, tasks)`` pairs from a list of chunk stops."""
    return [(base, stop - base) for base, stop in zip([0] + stops, stops)]


def _rule_chunks(pattern, graph, config):
    """The ``(first task, tasks)`` boundaries the rule prescribes."""
    weights = _weights(pattern, graph, config)
    return _as_chunks(ProcessBackend()._chunk_stops(weights, config.num_workers))


def _dispatched(events):
    return [
        (e.task_id, e.fields["tasks"])
        for e in events
        if e.type == EV_TASK_DISPATCHED
    ]


def _run_logged(pattern, workload, config, log=None):
    """One process-backend run: ``(result, dispatched chunks)``."""
    log = log if log is not None else EventLog()
    prepared = prepare_data(workload, config)
    plan = prepare_plan(get_pattern(pattern), prepared, config)
    result = execute_plan(
        plan, prepared, config, telemetry=Telemetry(None, events=log)
    )
    return result, _dispatched(log.events())


def _assert_tiles(stops, num_tasks):
    """Chunks cover ``[0, num_tasks)`` exactly once, none empty."""
    chunks = _as_chunks(stops)
    assert all(size > 0 for _, size in chunks)
    assert sum(size for _, size in chunks) == num_tasks


class TestChunkSizeMath:
    def test_fallback_is_pulls_per_worker(self):
        # Equal weights cut into equal chunks, PULLS_PER_WORKER per worker.
        rule = ProcessBackend()._chunk_stops
        size = 2400 // (2 * PULLS_PER_WORKER)
        assert rule([1] * 2400, 2) == list(range(size, 2401, size))
        assert rule([5] * 3, 8) == [1, 2, 3]  # never empty
        assert rule([], 2) == []

    def test_measured_targets_the_budget(self, workload):
        # At most one chunk per pull (plus one for trailing weightless
        # tasks); a chunk closes as soon as it has crossed the next
        # multiple of the target, so all of it but its last task weighs
        # less than one target.
        skewed = _weights("triangle", workload, _process_config())
        for weights in ([1] * 2371, [3] * 100, skewed, skewed[::-1], [0] * 9):
            total = sum(weights)
            for num_workers in (1, 2, 3, 8):
                pulls = num_workers * PULLS_PER_WORKER
                stops = ProcessBackend()._chunk_stops(weights, num_workers)
                _assert_tiles(stops, len(weights))
                assert len(stops) <= pulls + (weights[-1:] == [0])
                for base, stop in zip([0] + stops, stops):
                    assert sum(weights[base:stop - 1]) * pulls < max(total, 1)

    def test_measured_clamped_by_balance(self, workload):
        # The degree relabel puts the hubs last: weighted chunks shrink
        # toward the tail instead of lumping it into one chunk.
        weights = _weights("triangle", workload, _process_config())
        stops = ProcessBackend()._chunk_stops(weights, 2)
        sizes = [size for _, size in _as_chunks(stops)]
        assert sizes[0] > 10 * sizes[-1]
        target = sum(weights) / (2 * PULLS_PER_WORKER)
        for base, stop in zip([0] + stops, stops):
            assert sum(weights[base:stop]) < target + max(weights[base:stop])

    def test_measured_heavy_tasks_go_fine_grained(self):
        # A task heavier than a target is a chunk of its own.
        rule = ProcessBackend()._chunk_stops
        assert rule([1] * 14 + [10, 20], 1) == [6, 11, 15, 16]
        # Fewer tasks than pulls: one task per pull.
        assert rule([1] * 5, 4) == [1, 2, 3, 4, 5]

    def test_no_hint_falls_back(self, workload):
        # No cost hint rides along anywhere: the rule is all there is.
        assert "task_cost_hint" not in {f.name for f in fields(ExecutionRequest)}
        config = _process_config()
        prepared = prepare_data(workload, config)
        plan = prepare_plan(get_pattern("triangle"), prepared, config)
        with pytest.raises(TypeError):
            execute_plan(plan, prepared, config, task_cost_hint=0.001)
        with pytest.raises(TypeError):
            ProcessBackend()._chunk_stops([1] * 10, 2, 0.001)

    def test_backend_precedence_explicit_then_hint_then_fallback(self):
        # The weight rule is the only rule: ten heavy tasks, ten chunks.
        skewed = [1] * 990 + [500] * 10
        weighted = ProcessBackend()._chunk_stops(skewed, 2)
        _assert_tiles(weighted, 1000)
        assert weighted[-10:] == list(range(991, 1001))


class TestTaskCostProfile:
    """No cost profile: what a task cost never moves a chunk boundary."""

    def test_ewma_and_cold_start(self, workload):
        # A cold and a warm run of one plan chunk alike, by the rule.
        config = _process_config()
        cold, cold_chunks = _run_logged("triangle", workload, config)
        warm, warm_chunks = _run_logged("triangle", workload, config)
        assert cold.mean_task_wall_seconds > 0
        assert cold_chunks == warm_chunks == _rule_chunks(
            "triangle", workload, config
        )
        assert sum(size for _, size in cold_chunks) == cold.num_tasks
        assert warm.counters == cold.counters

    def test_nonpositive_measurements_ignored(self, workload):
        # A cheap and an expensive pattern over the same task list split
        # identically: measured task cost is no input.
        config = _process_config(split_threshold=None)
        cheap, cheap_chunks = _run_logged("triangle", workload, config)
        heavy, heavy_chunks = _run_logged("clique4", workload, config)
        assert cheap.num_tasks == heavy.num_tasks
        assert cheap_chunks == heavy_chunks == _rule_chunks(
            "triangle", workload, config
        )

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
        three = _process_config(num_workers=3)
        _, three_chunks = _run_logged("triangle", workload, three)
        assert count_chunks == collect_chunks
        assert three_chunks == _rule_chunks("triangle", workload, three)
        assert three_chunks != count_chunks


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
        config = _process_config()
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            runs = []
            for _ in range(2):
                handle = service.submit(
                    pattern=get_pattern("triangle"), graph="g", config=config,
                )
                handle.result(timeout=120)
                runs.append(
                    _dispatched(service.events.events(query_id=handle.query_id))
                )
            assert runs[0] == runs[1] == _rule_chunks("triangle", workload, config)


class TestSkewedChunks:
    """Hub tasks spread over many chunks, so both workers get work."""

    #: The most of a run's rows one chunk may carry.  The uniform
    #: equal-count cut put 85 % of them in the last chunk on this graph.
    MAX_CHUNK_SHARE = 0.5

    def test_no_chunk_carries_most_rows_on_a_hub_graph(self):
        graph, _ = relabel_by_degree_order(
            chung_lu(400, 6.0, exponent=2.4, seed=2019)
        )
        log = EventLog()
        result, chunks = _run_logged(
            "chordal_square", graph, _process_config(collect=True), log
        )
        rows = [
            e.fields["embeddings"] for e in log.events()
            if e.type == EV_TASK_FINISHED
        ]
        assert len(rows) == len(chunks) > 2
        assert sum(rows) == result.count == len(result.matches) > 0
        assert max(rows) <= self.MAX_CHUNK_SHARE * sum(rows)


class TestChunkContract:
    """_run_tasks's manual-chunking and packed-buffer invariants."""

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

    def test_worker_restarts_cannot_corrupt_packed_accounting(
        self, workload, chunks_of
    ):
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
        chunks_of(1)
        result = ProcessBackend().execute(
            ExecutionRequest(plan=plan, graph=prepared.graph, config=config)
        )
        assert result.tasks_retried == result.num_tasks > 0
        oracle = self._simulated(workload, adjacency_backend="csr")
        assert result.matches == oracle.matches
        assert result.counters == oracle.counters

    def _run_range(self, plan, graph, config, tasks, base, stop):
        # Worker-side unit check, run in-process on the state a worker
        # builds: _run_tasks(state, base, stop, attempt) must run exactly
        # tasks[base:stop] of the inherited list, in order.
        from repro.engine.backends.simulated import SimulatedBackend

        state = _init_worker(plan, graph, "collect", tasks)
        _pid, counters, walls, matches = _run_tasks(state, base, stop, 0)
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
