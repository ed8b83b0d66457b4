"""Leaving a process-backend run early must never hang.

Regression for a deadlock in CPython's ``Pool.terminate()``: a run that
was interrupted (a LIMIT reached, a cancel, a deadline) left its pool
context while workers were still writing chunk records, and terminating a
pool mid-write can block forever — in ``benu serve`` a scheduler thread
and its worker slots lost for good.  The backend now stops the workers,
drains what they still owe and only then closes the pool.  A worker
SIGKILLed while idle dies holding the task queue's read lock; the
wind-down kills the workers and frees that lock before it closes.

Every scenario runs many times in a row under a watchdog: the hang showed
in about half the runs, so a regression fails loudly (with all thread
stacks) instead of eating the job's time limit.  Slow tasks come from
``repro.faults`` delays, so an interrupt always lands on a *running*
query.
"""

import faulthandler
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.engine.backends.base import ExecutionRequest
from repro.engine.backends.process import ProcessBackend, _Pool
from repro.engine.benu import prepare_data, prepare_plan
from repro.engine.config import BenuConfig
from repro.graph.generators import chung_lu
from repro.graph.graph import Graph
from repro.graph.patterns import get_pattern
from repro.service import BenuService
from repro.service.streaming import QueryStatus

STREAM = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN *"
PROJECT = "MATCH (a)-(b), (b)-(c), (c)-(d) RETURN d, a"
WIDE = "MATCH (a)-(b), (b)-(c), (c)-(d) RETURN *"

#: Every task sleeps on entry: the query outlives any interrupt below.
SLOW_TASKS = "worker.task:delay@1x1000000~0.01"


def bounded(seconds, body):
    """Run ``body`` on a thread; fail with every stack if it hangs."""
    outcome = {}

    def target():
        try:
            outcome["value"] = body()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        pytest.fail(f"hung: still running after {seconds} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("value")


def process_config(**overrides):
    defaults = dict(execution_backend="process", num_workers=2)
    defaults.update(overrides)
    return BenuConfig(**defaults)


def wait_until(handle, condition):
    give_up = time.monotonic() + 30.0
    while not condition():
        assert time.monotonic() < give_up and not handle.done
        time.sleep(0.005)


def assert_nothing_left(service):
    assert multiprocessing.active_children() == []
    assert service.stats()["execution"]["worker_processes_in_use"] == 0


@pytest.fixture(scope="module")
def graph():
    base = chung_lu(60, 5.0, exponent=2.3, seed=11)
    return Graph((1000 + 7 * u, 1000 + 7 * v) for u, v in base.edges())


@pytest.fixture(scope="module")
def rows_graph():
    return chung_lu(400, 7.0, exponent=2.4, seed=3)


@pytest.mark.parametrize("text", [STREAM, PROJECT])
@pytest.mark.parametrize("adjacency", ["frozenset", "csr"])
def test_limit_reached_twenty_times_in_a_row(graph, adjacency, text):
    """The queries of the equivalence matrix that hung 6 runs in 12."""

    def body():
        config = process_config(adjacency_backend=adjacency, split_threshold=16)
        with BenuService(config=config, batch_size=8) as service:
            service.register_graph("g", graph)
            for _ in range(20):
                handle = service.submit_query(text, "g", limit=17)
                rows = list(handle.matches())
                assert handle.wait(timeout=30)
                assert len(rows) == 17
                assert handle.truncated
                assert handle.status is QueryStatus.SUCCEEDED
                assert_nothing_left(service)

    bounded(120, body)


def test_cancel_with_records_in_flight(rows_graph):
    """Nobody drains the stream: the parent is stuck on backpressure, the
    workers keep sending rows, and the cancel arrives in the middle."""

    def body():
        config = process_config(adjacency_backend="csr", faults=SLOW_TASKS)
        with BenuService(
            config=config, batch_size=8, max_buffered_batches=2
        ) as service:
            service.register_graph("g", rows_graph)
            for _ in range(5):
                handle = service.submit_query(WIDE, "g")
                # The first chunk's rows reached the (tiny, undrained)
                # buffer: the parent now blocks on it, the pool runs on.
                wait_until(handle, lambda: handle.buffer.count > 0)
                handle.cancel("enough")
                assert handle.wait(timeout=30)
                assert handle.status is QueryStatus.CANCELLED
                assert_nothing_left(service)

    bounded(120, body)


def test_deadline_with_records_in_flight(rows_graph):
    def body():
        config = process_config(adjacency_backend="csr", faults=SLOW_TASKS)
        with BenuService(
            config=config, batch_size=8, max_buffered_batches=2
        ) as service:
            service.register_graph("g", rows_graph)
            for _ in range(5):
                handle = service.submit_query(WIDE, "g", deadline_seconds=0.3)
                assert handle.wait(timeout=30)
                assert handle.status is QueryStatus.DEADLINE_EXPIRED
                assert_nothing_left(service)

    bounded(120, body)


def test_a_pool_stuck_in_one_long_task_is_terminated(rows_graph, monkeypatch):
    """The last resort: the grace runs out with a worker still inside a
    task, and the pool is terminated regardless — so an interrupt waits
    for the grace at most, never for the task (30 s here)."""
    monkeypatch.setattr(ProcessBackend, "retire_grace_seconds", 0.2)

    def body():
        config = process_config(faults="worker.task:delay@1x1000000~30")
        with BenuService(config=config) as service:
            service.register_graph("g", rows_graph)
            handle = service.submit("triangle", "g", stream=False)
            wait_until(handle, multiprocessing.active_children)
            cancelled = time.monotonic()
            handle.cancel("enough")
            assert handle.wait(timeout=30)
            assert time.monotonic() - cancelled < 10
            assert handle.status is QueryStatus.CANCELLED
            assert_nothing_left(service)

    bounded(60, body)


class KillIdleWorkers:
    """A sink that SIGKILLs every pool worker when the first rows arrive.

    The run is one chunk on three workers, so by then every worker is
    idle: one waits for a next chunk inside the task queue's read lock,
    the others wait for that lock.  The sink returns once the pool has
    replaced all of them, so the replacements wait on a lock that no
    live process holds.
    """

    def __init__(self):
        self.rows = 0
        self.killed = set()

    def emit_block(self, block):
        if not self.killed:
            self.killed = {p.pid for p in multiprocessing.active_children()}
            for pid in self.killed:
                os.kill(pid, signal.SIGKILL)
            give_up = time.monotonic() + 10.0
            while time.monotonic() < give_up:
                alive = {p.pid for p in multiprocessing.active_children()}
                if len(alive - self.killed) == len(self.killed):
                    break
                time.sleep(0.01)
        self.rows += len(block)


def test_idle_workers_killed_mid_run_do_not_hang_the_wind_down(graph):
    """The chaos smoke's rare hang: a worker SIGKILLed while idle takes
    the task queue's read lock with it, and the pool's wind-down waited
    on that lock forever."""
    config = process_config(num_workers=3)
    prepared = prepare_data(graph, config)
    plan = prepare_plan(get_pattern("triangle"), prepared, config)
    backend = ProcessBackend(queue_chunksize=10**6)

    def body():
        for _ in range(5):
            sink = KillIdleWorkers()
            result = backend.execute(
                ExecutionRequest(
                    plan=plan, graph=prepared.graph, config=config, sink=sink,
                )
            )
            assert sink.killed and sink.rows == result.count > 0
            assert multiprocessing.active_children() == []

    bounded(30, body)


def test_a_worker_killed_before_the_first_look_is_seen_dead():
    """The chaos smoke's other rare hang: its killer can beat the
    backend's first look at the pool, which has reaped and replaced the
    worker by then; unseen, the death never ended the run."""

    def body():
        pool = _Pool(processes=2, context=multiprocessing.get_context("fork"))
        try:
            victim = pool.started[0]
            os.kill(victim.pid, signal.SIGKILL)
            give_up = time.monotonic() + 10.0
            while len(pool.started) < 3 and time.monotonic() < give_up:
                time.sleep(0.01)
            dead = {}
            ProcessBackend._scan_workers(pool, dead)
            assert dead == {victim.pid: -signal.SIGKILL}
        finally:
            ProcessBackend()._stop_workers(pool)
            pool.close()
            pool.join()
        assert multiprocessing.active_children() == []

    bounded(30, body)


class FakePool:
    """What ``_retire_pool`` touches of a pool once ``_stop_workers`` is
    stubbed: no processes behind it."""

    def __init__(self):
        self.started = []
        self.calls = []

    def close(self):
        self.calls.append("close")

    def terminate(self):
        self.calls.append("terminate")

    def join(self):
        self.calls.append("join")


class ScriptedResults:
    """A result iterator that replays ``script``: an exception class is
    raised, anything else is an arrived chunk record."""

    def __init__(self, script):
        self.script = list(script)

    def next(self, timeout=None):
        step = self.script.pop(0) if self.script else multiprocessing.TimeoutError
        if isinstance(step, type):
            raise step
        return step


def retire(results, owed, dead, monkeypatch, quiet=0.05):
    monkeypatch.setattr(ProcessBackend, "worker_grace_seconds", quiet)
    monkeypatch.setattr(
        ProcessBackend, "_stop_workers",
        staticmethod(lambda pool: pool.calls.append("stop")),
    )
    pool = FakePool()
    cancel_event = threading.Event()
    ProcessBackend()._retire_pool(
        pool, results, cancel_event, owed, dead, time.monotonic()
    )
    assert cancel_event.is_set()
    return pool.calls


def test_a_worker_that_died_idle_does_not_end_the_drain(monkeypatch):
    """One worker is dead and one chunk is owed — by a *live* worker, the
    dead one held nothing: the drain goes on until that chunk is in."""
    late = ScriptedResults([multiprocessing.TimeoutError, (0, "record")])
    assert retire(late, 1, {4711: -9}, monkeypatch, quiet=30) == [
        "stop", "close", "join",
    ]
    assert late.script == []


def test_chunks_that_died_with_their_worker_end_the_drain_by_silence(monkeypatch):
    """Two chunks owed, one arrives, the other died with its worker: once
    nothing has arrived for the quiet window, the pool is terminated."""
    lost = ScriptedResults([(0, "record")])
    assert retire(lost, 2, {4711: -9}, monkeypatch) == [
        "stop", "terminate", "join",
    ]


def test_an_exhausted_iterator_closes_the_pool(monkeypatch):
    done = ScriptedResults([(0, "record"), StopIteration])
    assert retire(done, 5, {}, monkeypatch) == ["stop", "close", "join"]
