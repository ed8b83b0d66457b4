"""Leaving a process-backend run early must never hang.

Regression for deadlocks of the pool the backend used to borrow from
CPython: terminating a ``multiprocessing.pool.Pool`` while a worker was
writing a record, or after a worker was SIGKILLed inside a queue lock or
in the middle of a write, could block forever — in ``benu serve`` a
scheduler thread and its worker slots lost for good.  The backend's own
pool gives each worker one pipe, so a dead worker only breaks its own
pipe, and every way out of a run kills and joins every worker.

Every scenario runs under a watchdog, most of them many times in a row,
so a regression fails loudly (with all thread stacks) instead of eating the
job's time limit.  Slow tasks come from ``repro.faults`` delays, so an
interrupt always lands on a *running* query.
"""

import faulthandler
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine.backends.base import ExecutionRequest
from repro.engine.backends.process import ProcessBackend
from repro.engine.benu import prepare_data, prepare_plan, run_benu
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


def test_a_pool_stuck_in_one_long_task_is_terminated(rows_graph):
    """A cancel lands while every worker is inside one 30 s task: the
    workers are killed, so the interrupt never waits for the task."""

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
    idle.  The sink returns once all of them are gone.
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
                if not alive & self.killed:
                    break
                time.sleep(0.01)
        self.rows += len(block)


def test_idle_workers_killed_mid_run_do_not_hang_the_wind_down(
    graph, chunks_of
):
    """The chaos smoke's rare hang: a worker SIGKILLed while idle took
    the old pool's task queue lock with it, and the pool's wind-down
    waited on that lock forever."""
    config = process_config(num_workers=3)
    prepared = prepare_data(graph, config)
    plan = prepare_plan(get_pattern("triangle"), prepared, config)
    backend = ProcessBackend()
    chunks_of(10**6)

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


def test_a_worker_killed_before_the_first_look_is_seen_dead(rows_graph):
    """The chaos smoke's other rare hang: its killer can beat the
    parent's first look at a worker.  A worker SIGKILLed inside its first
    task is still seen dead, and the run stays exact."""
    pattern = get_pattern("triangle")
    want = run_benu(pattern, rows_graph, BenuConfig()).count

    def body():
        killed = []

        def killer():
            give_up = time.monotonic() + 10.0
            while not killed and time.monotonic() < give_up:
                children = multiprocessing.active_children()
                if children:
                    os.kill(children[0].pid, signal.SIGKILL)
                    killed.append(children[0].pid)
                time.sleep(0.001)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        # The first task of every worker sleeps: no record is home yet.
        result = run_benu(
            pattern, rows_graph,
            process_config(faults="worker.task:delay@1~0.5"),
        )
        thread.join()
        assert killed
        assert result.count == want
        assert result.worker_crashes == 1
        assert multiprocessing.active_children() == []

    bounded(30, body)


#: Where a process sleeps while its write to a full pipe blocks: an
#: ``os.pipe`` (the old pool's result queue) or a socketpair
#: (``multiprocessing.Pipe()``).
BLOCKED_WRITES = ("anon_pipe_write", "sock_alloc_send_pskb")


def _wchan(pid):
    with open(f"/proc/{pid}/wchan") as f:
        return f.read().strip()


def test_a_worker_killed_mid_write_loses_only_its_chunk(chunks_of):
    """A worker SIGKILLed while it writes a record leaves half a message
    behind.  The old pool's result thread waited on that message forever;
    now only the dead worker's pipe is thrown away, and its one chunk
    runs again."""
    try:
        _wchan(os.getpid())
    except OSError:
        pytest.skip("/proc/<pid>/wchan cannot be read here")
    graph = chung_lu(400, 7.0, exponent=2.4, seed=3)
    config = process_config()
    prepared = prepare_data(graph, config)
    plan = prepare_plan(get_pattern("demo"), prepared, config)
    chunks_of(20)

    class Count:
        rows = 0

        def emit_block(self, block):
            self.rows += len(block)

    def body():
        killed = []
        done = threading.Event()

        def killer():
            while not killed and not done.is_set():
                for child in multiprocessing.active_children():
                    try:
                        blocked = _wchan(child.pid) in BLOCKED_WRITES
                    except OSError:
                        continue
                    if blocked:
                        os.kill(child.pid, signal.SIGKILL)
                        killed.append(child.pid)
                        break
                time.sleep(0.0005)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        sink = Count()
        try:
            result = ProcessBackend().execute(
                ExecutionRequest(
                    plan=plan, graph=prepared.graph, config=config, sink=sink,
                )
            )
        finally:
            done.set()
            thread.join()
        assert killed
        assert sink.rows == result.count == 4_643_015
        assert result.worker_crashes == 1
        assert result.tasks_retried == 20
        assert multiprocessing.active_children() == []

    bounded(30, body)


class NestedCount:
    """A sink whose first block runs a whole one-worker square count."""

    def __init__(self, graph):
        self.graph = graph
        self.rows = 0
        self.inner = None

    def emit_block(self, block):
        if self.inner is None:
            self.inner = run_benu(
                get_pattern("square"), self.graph,
                process_config(num_workers=1, relabel=False),
            ).count
        self.rows += len(block)


def test_a_sink_that_runs_a_query_leaves_the_outer_run_exact():
    """A one-worker run's state belongs to its own worker, so a query
    started from inside another one's sink cannot overwrite it: both
    answers stay exact."""
    graph = chung_lu(400, 6.0, exponent=2.4, seed=3)
    config = process_config(num_workers=1, relabel=False)
    prepared = prepare_data(graph, config)
    plan = prepare_plan(get_pattern("triangle"), prepared, config)
    reference = BenuConfig(relabel=False)

    def body():
        sink = NestedCount(graph)
        result = ProcessBackend().execute(
            ExecutionRequest(
                plan=plan, graph=prepared.graph, config=config, sink=sink,
            )
        )
        assert result.count == sink.rows == run_benu(
            get_pattern("triangle"), graph, reference
        ).count
        assert sink.inner == run_benu(
            get_pattern("square"), graph, reference
        ).count
        assert multiprocessing.active_children() == []

    bounded(60, body)


#: A parent that forks a two-worker pool, prints its workers' pids from
#: the sink's first block and then sleeps there, mid-run.
_SLEEPING_PARENT = """
import multiprocessing, time
from repro.engine.benu import execute_plan, prepare_data, prepare_plan
from repro.engine.config import BenuConfig
from repro.graph.generators import chung_lu
from repro.graph.patterns import get_pattern

class Sleepy:
    def emit_block(self, block):
        pids = [p.pid for p in multiprocessing.active_children()]
        print(" ".join(map(str, pids)), flush=True)
        time.sleep(600)

config = BenuConfig(execution_backend="process", num_workers=2)
prepared = prepare_data(chung_lu(1800, 10.0, exponent=2.4, seed=2019), config)
plan = prepare_plan(get_pattern("chordal_square"), prepared, config)
execute_plan(plan, prepared, config, sink=Sleepy())
"""


def _alive(pid):
    """Whether ``pid`` runs: a zombie nobody reaped yet counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def test_workers_die_with_a_parent_killed_by_sigkill():
    """A worker closes every parent-side pipe end it inherits at fork, its
    own included, so its ``recv`` reads EOF once the parent is gone —
    even a parent that had no chance to clean up."""
    if not _alive(os.getpid()):
        pytest.skip("/proc/<pid>/stat cannot be read here")
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    parent = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_PARENT],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE, text=True,
    )
    workers = []
    try:
        line = bounded(60, parent.stdout.readline)
        workers = [int(pid) for pid in line.split()]
        assert len(workers) == 2, line
        parent.kill()
        parent.wait()
        give_up = time.monotonic() + 5.0
        while any(map(_alive, workers)) and time.monotonic() < give_up:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
