"""The chunk is the in-process backends' unit of bookkeeping.

A chunk is a run of consecutive tasks in the global task order; the
control check, the ``task_dispatched``/``task_finished`` event pair, the
progress tick and the packed row flush happen once per chunk.  Everything
asserted here is a count — where the chunk boundaries fall, how many
events a query emits, how many rows are ever buffered — never a duration.
"""

import pytest

from repro.engine import sinks
from repro.engine.backends import simulated
from repro.engine.benu import execute_plan, prepare_data, prepare_plan
from repro.engine.config import ADJACENCY_BACKENDS, BenuConfig
from repro.engine.control import ExecutionControl, QueryCancelled
from repro.engine.sinks import RowBlock
from repro.graph.generators import chung_lu
from repro.graph.patterns import PATTERNS
from repro.pattern.pattern_graph import PatternGraph
from repro.service import BenuService
from repro.service.streaming import QueryStatus
from repro.storage.cache import LRUDatabaseCache
from repro.telemetry.events import (
    EV_TASK_DISPATCHED,
    EV_TASK_FINISHED,
    EventLog,
)
from repro.telemetry.runtime import Telemetry


@pytest.fixture(scope="module")
def graph():
    return chung_lu(300, 5.0, exponent=2.5, seed=2019)


def _plan(name, prepared, config):
    return prepare_plan(PatternGraph(PATTERNS[name], name), prepared, config)


def _run(name, graph, config, log=None, **kwargs):
    """``execute_plan`` with a private event log; returns the result."""
    prepared = prepare_data(graph, config)
    telemetry = Telemetry(None, events=log) if log is not None else None
    return execute_plan(
        _plan(name, prepared, config), prepared, config,
        telemetry=telemetry, **kwargs,
    )


def _chunks(log):
    """(first task, tasks, embeddings) of every finished chunk, in order."""
    return [
        (e.task_id, e.fields["tasks"], e.fields["embeddings"])
        for e in log.events(type=EV_TASK_FINISHED)
    ]


class SpySink:
    """Counts the rows of every block it is handed."""

    def __init__(self):
        self.blocks = []

    def emit_block(self, block: RowBlock) -> None:
        self.blocks.append(len(block))


class TestChunkBoundaries:
    @pytest.mark.parametrize("name", ["triangle", "square", "q1"])
    def test_ranges_tile_the_task_space_and_repeat(self, graph, name):
        seen = {}
        for execution in ("simulated", "simulated", "inline"):
            log = EventLog()
            config = BenuConfig(execution_backend=execution)
            result = _run(name, graph, config, log)
            chunks = _chunks(log)
            covered = [
                task for first, tasks, _ in chunks
                for task in range(first, first + tasks)
            ]
            assert covered == list(range(result.num_tasks))
            assert sum(n for _, _, n in chunks) == result.count
            assert [
                e.task_id for e in log.events(type=EV_TASK_DISPATCHED)
            ] == [first for first, _, _ in chunks]
            seen.setdefault(execution, []).append(chunks)
        assert seen["simulated"][0] == seen["simulated"][1] == seen["inline"][0]

    def test_a_chunk_closes_on_counted_work(self, graph, monkeypatch):
        """A budget of one unit makes every task its own chunk."""
        monkeypatch.setattr(simulated, "CHUNK_WORK", 1)
        log = EventLog()
        result = _run("triangle", graph, BenuConfig(), log)
        assert [tasks for _, tasks, _ in _chunks(log)] == [1] * result.num_tasks

    def test_tasks_that_count_nothing_still_close_chunks(self, monkeypatch):
        """Isolated start vertices run no INT and no ENU step."""
        from repro.graph.graph import Graph

        lonely = Graph([(0, 1)], vertices=range(200))
        monkeypatch.setattr(simulated, "CHUNK_WORK", 10 * simulated.TASK_WORK)
        log = EventLog()
        result = _run("triangle", lonely, BenuConfig(relabel=False), log)
        assert result.num_tasks == 200
        assert max(tasks for _, tasks, _ in _chunks(log)) <= 10


class TestEventsPerQuery:
    def test_events_are_bounded_by_chunks_not_tasks(self, graph):
        with BenuService() as service:
            service.register_graph("g", graph)
            for name in ("triangle", "square", "q2"):
                handle = service.submit(name, "g", stream=False)
                assert handle.wait(timeout=60)
                result = handle.result()
                events = service.events.events(query_id=handle.query_id)
                chunks = sum(e.type == EV_TASK_FINISHED for e in events)
                assert len(events) <= 2 * chunks + 10
                # One pair per task would be ~2 x tasks.
                assert 2 * chunks + 10 < result.num_tasks
                assert handle.progress.tasks_done == result.num_tasks
                assert handle.progress.embeddings == result.count


class TestUnboundedCacheFastPath:
    """``uncounted_getter`` + ``credit_lookups`` account what ``get`` does."""

    @staticmethod
    def _ledger(result):
        cache, comm = result.cache, result.communication
        return (
            (cache.hits, cache.misses, cache.evictions),
            (comm.queries, comm.bytes_transferred, comm.simulated_seconds),
            result.counters,
            result.per_task_sim_seconds,
            result.makespan_seconds,
            result.telemetry.registry.as_dict(),
        )

    @pytest.mark.parametrize("adjacency", ADJACENCY_BACKENDS)
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_stats_match_the_lru_get_path(self, name, adjacency, monkeypatch):
        small = chung_lu(40, 4.0, exponent=2.3, seed=5)
        config = BenuConfig(adjacency_backend=adjacency, num_workers=2)
        fast = _run(name, small, config)
        assert fast.cache.hits and fast.cache.misses
        with monkeypatch.context() as patch:
            # Every lookup through ``get``, which counts its own hits.
            patch.setattr(
                LRUDatabaseCache, "uncounted_getter", lambda self: self.get
            )
            patch.setattr(
                LRUDatabaseCache, "credit_lookups", lambda self, *args: None
            )
            slow = _run(name, small, config)
        got, want = self._ledger(fast), self._ledger(slow)
        # Wall-clock gauges aside, the two registries are the same too.
        for ledger in (got, want):
            ledger[-1].pop("benu_wall_seconds")
        assert got == want

    def test_a_bounded_cache_keeps_the_replacement_path(self, graph):
        store_bytes = 8 * 2 * graph.num_edges
        config = BenuConfig(
            adjacency_backend="csr", cache_capacity_bytes=store_bytes // 8
        )
        result = _run("square", graph, config)
        assert result.cache.evictions > 0
        assert result.cache.lookups == result.counters.dbq_ops

    def test_a_warm_pool_accounts_per_run(self, graph):
        """Hits credited into a reused cache stay per-run deltas."""
        from repro.engine.cluster import SimulatedCluster
        from repro.storage.cache import CachePool

        config = BenuConfig()
        prepared = prepare_data(graph, config)
        plan = _plan("triangle", prepared, config)
        cluster = SimulatedCluster(prepared.graph, config)
        pool = CachePool(cluster.store, config.num_workers)
        cold = cluster.run_plan(plan, worker_caches=pool.caches)
        warm = cluster.run_plan(plan, worker_caches=pool.caches)
        assert cold.cache.misses > 0 and warm.cache.misses == 0
        assert warm.cache.hits == warm.counters.dbq_ops == cold.cache.lookups
        assert sum(c.stats.hits for c in pool.caches) == (
            cold.cache.hits + warm.cache.hits
        )


class TestBufferedRows:
    def test_the_row_buffer_is_capped(self, graph, monkeypatch):
        """Never more than ``BLOCK_ROWS`` + one task's rows between flushes."""
        cap = 64
        monkeypatch.setattr(simulated, "BLOCK_ROWS", cap)
        monkeypatch.setattr(sinks, "BLOCK_ROWS", cap)
        log = EventLog()
        sink = SpySink()
        config = BenuConfig(relabel=False)
        result = _run("q2", graph, config, log, sink=sink)
        assert result.count > 20 * cap

        per_task = {}
        by_task = EventLog()
        with monkeypatch.context() as patch:
            patch.setattr(simulated, "CHUNK_WORK", 1)
            _run("q2", graph, config, by_task, sink=SpySink())
        for first, _, embeddings in _chunks(by_task):
            per_task[first] = embeddings

        flushed = 0
        for first, tasks, embeddings in _chunks(log):
            flushed += embeddings
            last_task = per_task[first + tasks - 1]
            # Closed by the first task that filled the buffer.
            assert embeddings - last_task < cap
            assert embeddings <= cap + last_task
        assert flushed == sum(sink.blocks) == result.count
        assert max(sink.blocks) <= cap


class TestLimitInsideOneChunk:
    def test_limit_is_exact_and_reported(self, graph):
        with BenuService() as service:
            service.register_graph("g", graph)
            reference = service.submit("triangle", "g", stream=False)
            assert reference.wait(timeout=60)
            events = service.events.events(query_id=reference.query_id)
            # The whole query is one chunk: there is no later boundary.
            assert sum(e.type == EV_TASK_FINISHED for e in events) == 1
            assert reference.result().count > 25

            handle = service.submit("triangle", "g", stream=True, limit=25)
            rows = list(handle.matches())
            assert handle.wait(timeout=60)
            assert len(rows) == 25 == len(set(rows))
            assert handle.truncated
            assert handle.status is QueryStatus.SUCCEEDED


class CancellingSink:
    """Row-by-row sink that cancels the run at its ``at``-th row."""

    def __init__(self, control, at):
        self.control = control
        self.at = at
        self.rows = 0

    def emit(self, row) -> None:
        self.rows += 1
        if self.rows == self.at:
            self.control.cancel("mid-chunk")


class TestCancelMidChunk:
    def test_the_chunk_finishes_and_the_next_never_starts(
        self, graph, monkeypatch
    ):
        # One emit per RES, so the sink can act in the middle of a task.
        monkeypatch.setattr(simulated, "packs_rows", lambda request: False)
        config = BenuConfig(relabel=False)
        reference = EventLog()
        total = _run("q2", graph, config, reference, sink=CancellingSink(None, 0))
        chunks = _chunks(reference)
        assert len(chunks) >= 3
        # A row of the second chunk, neither its first nor its last.
        at = chunks[0][2] + chunks[1][2] // 2

        control = ExecutionControl()
        sink = CancellingSink(control, at)
        log = EventLog()
        with pytest.raises(QueryCancelled, match="mid-chunk"):
            _run("q2", graph, config, log, sink=sink, control=control)
        # The cancelled chunk ran to its boundary, exactly as uncancelled;
        # nothing after it was dispatched.
        assert _chunks(log) == chunks[:2]
        assert len(log.events(type=EV_TASK_DISPATCHED)) == 2
        assert sink.rows == chunks[0][2] + chunks[1][2] < total.count

    def test_a_cancel_in_the_final_chunk_leaves_the_result_standing(
        self, graph, monkeypatch
    ):
        """Only a LIMIT is honoured after the last flush: any other stop
        finds every task run and every row delivered."""
        monkeypatch.setattr(simulated, "packs_rows", lambda request: False)
        config = BenuConfig(relabel=False)
        reference = EventLog()
        total = _run("q2", graph, config, reference, sink=CancellingSink(None, 0))
        chunks = _chunks(reference)
        assert chunks[-1][2] >= 2
        at = total.count - chunks[-1][2] // 2

        control = ExecutionControl()
        sink = CancellingSink(control, at)
        log = EventLog()
        result = _run("q2", graph, config, log, sink=sink, control=control)
        assert control.cancelled and control.reason == "mid-chunk"
        assert _chunks(log) == chunks
        assert result.count == total.count == sink.rows
