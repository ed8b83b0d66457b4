"""The process execution backend under the query service.

The contract this file pins down:

* the machine-wide :class:`WorkerSlotPool` caps *total* worker processes
  across concurrent queries — not per-query — and grants flow into the
  actual run (``result.num_workers``);
* cancel and deadline genuinely interrupt a process-backend run (the
  parent's control poll + the shared cancel event, not just bookkeeping);
* streaming, limits and telemetry parity hold end-to-end through
  ``BenuService`` exactly as they do on the simulated backend.
"""

import threading
import time

import pytest

from repro.engine.config import BenuConfig
from repro.engine.control import ExecutionControl, QueryCancelled
from repro.graph.generators import chung_lu
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.service import BenuService
from repro.service.scheduler import WorkerSlotPool
from repro.service.streaming import QueryStatus


@pytest.fixture(scope="module")
def workload():
    g, _ = relabel_by_degree_order(chung_lu(250, 5.0, exponent=2.4, seed=23))
    return g


@pytest.fixture(scope="module")
def heavy_workload():
    """Big enough that a q-pattern enumeration runs for several seconds —
    room for a cancel or deadline to land mid-flight."""
    g, _ = relabel_by_degree_order(chung_lu(1200, 9.0, seed=7))
    return g


def _process_config(**overrides):
    defaults = dict(execution_backend="process", num_workers=2, relabel=False)
    defaults.update(overrides)
    return BenuConfig(**defaults)


class TestWorkerSlotPool:
    def test_grants_at_most_free_slots(self):
        pool = WorkerSlotPool(3)
        assert pool.acquire(2) == 2
        assert pool.acquire(2) == 1  # only one slot left
        assert pool.in_use == 3
        pool.release(3)
        assert pool.in_use == 0

    def test_blocks_until_release_and_caps_total(self):
        pool = WorkerSlotPool(2)
        peak = 0
        held = 0
        lock = threading.Lock()

        def query(requested):
            nonlocal peak, held
            granted = pool.acquire(requested)
            with lock:
                held += granted
                peak = max(peak, held)
            time.sleep(0.02)
            with lock:
                held -= granted
            pool.release(granted)

        threads = [
            threading.Thread(target=query, args=(2,)) for _ in range(5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert peak <= 2  # the cap is total across queries
        assert pool.in_use == 0

    def test_wait_is_control_checked(self):
        pool = WorkerSlotPool(1)
        pool.acquire(1)
        control = ExecutionControl()
        threading.Timer(0.1, lambda: control.cancel("client left")).start()
        with pytest.raises(QueryCancelled):
            pool.acquire(1, control=control)

    def test_over_release_rejected(self):
        pool = WorkerSlotPool(2)
        with pytest.raises(ValueError):
            pool.release(1)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            WorkerSlotPool(0)
        with pytest.raises(ValueError):
            WorkerSlotPool(1).acquire(0)


class TestServiceWorkerCap:
    def test_grant_flows_into_the_run(self, workload):
        """A query asking for more workers than the machine cap runs with
        what it was granted, not what it asked for."""
        with BenuService(
            config=_process_config(num_workers=8), max_worker_processes=2
        ) as service:
            service.register_graph("g", workload, relabel=False)
            handle = service.submit("triangle", "g", stream=False)
            assert handle.wait(timeout=60.0)
            result = handle.result()
            assert result.execution_backend == "process"
            assert result.num_workers == 2

    def test_concurrent_queries_share_the_total(self, workload):
        """With slots already held, a concurrent query is granted only the
        remainder — the cap is machine-wide, not per-query."""
        with BenuService(
            config=_process_config(num_workers=4), max_worker_processes=3
        ) as service:
            service.register_graph("g", workload, relabel=False)
            service.worker_slots.acquire(2)  # another query holds 2 of 3
            try:
                handle = service.submit("chordal_square", "g", stream=False)
                assert handle.wait(timeout=60.0)
                assert handle.result().num_workers == 1
                assert service.worker_slots.in_use == 2
            finally:
                service.worker_slots.release(2)

    def test_query_blocks_at_the_gate_until_slots_free(self, workload):
        with BenuService(
            config=_process_config(), max_worker_processes=2
        ) as service:
            service.register_graph("g", workload, relabel=False)
            service.worker_slots.acquire(2)  # everything taken
            handle = service.submit("triangle", "g", stream=False)
            time.sleep(0.3)
            assert not handle.done  # parked at the slot gate
            service.worker_slots.release(2)
            assert handle.wait(timeout=60.0)
            assert handle.status is QueryStatus.SUCCEEDED

    def test_cancel_unsticks_a_query_parked_at_the_gate(self, workload):
        with BenuService(
            config=_process_config(), max_worker_processes=1
        ) as service:
            service.register_graph("g", workload, relabel=False)
            service.worker_slots.acquire(1)
            try:
                handle = service.submit("triangle", "g", stream=False)
                time.sleep(0.2)
                handle.cancel("client left")
                assert handle.wait(timeout=10.0)
                assert handle.status is QueryStatus.CANCELLED
            finally:
                service.worker_slots.release(1)


#: Every task of every worker sleeps 20 ms on entry (``repro.faults``
#: delay at ``worker.task``): the 1200-task query below cannot finish in
#: under ten seconds however fast the backend gets, so a cancel or a
#: deadline always lands on a *running* query — no wall-clock race.
_SLOW_TASKS = "worker.task:delay@1x1000000~0.02"


class TestInterruption:
    def test_cancel_interrupts_a_running_process_query(self, heavy_workload):
        with BenuService(config=_process_config(faults=_SLOW_TASKS)) as service:
            service.register_graph("g", heavy_workload, relabel=False)
            handle = service.submit("q4", "g", stream=False)
            # The pool is up and grinding once the first chunk came home.
            give_up = time.monotonic() + 30.0
            while handle.progress.tasks_done == 0:
                assert time.monotonic() < give_up and not handle.done
                time.sleep(0.01)
            t0 = time.perf_counter()
            handle.cancel("enough")
            assert handle.wait(timeout=30.0)
            reaction = time.perf_counter() - t0
            assert handle.status is QueryStatus.CANCELLED
            # The parent polls control every 0.1 s while draining; the
            # slowed enumeration takes far longer than this.
            assert reaction < 10.0

    def test_deadline_interrupts_a_running_process_query(self, heavy_workload):
        with BenuService(config=_process_config(faults=_SLOW_TASKS)) as service:
            service.register_graph("g", heavy_workload, relabel=False)
            handle = service.submit("q4", "g", stream=False, deadline_seconds=0.6)
            assert handle.wait(timeout=30.0)
            assert handle.status is QueryStatus.DEADLINE_EXPIRED


class TestServiceParity:
    def test_streamed_matches_identical_to_simulated(self, workload):
        results = {}
        for backend in ("simulated", "process"):
            with BenuService(
                config=_process_config(execution_backend=backend)
            ) as service:
                service.register_graph("g", workload, relabel=False)
                handle = service.submit("chordal_square", "g")
                results[backend] = sorted(handle.matches())
                assert handle.status is QueryStatus.SUCCEEDED
        assert results["simulated"] == results["process"]

    def test_limit_truncates_cleanly(self, workload):
        with BenuService(config=_process_config()) as service:
            service.register_graph("g", workload, relabel=False)
            handle = service.submit("triangle", "g", limit=7)
            matches = list(handle.matches())
            assert len(matches) == 7
            assert handle.status is QueryStatus.SUCCEEDED
            assert handle.truncated

    def test_stats_report_worker_processes(self, workload):
        with BenuService(
            config=_process_config(), max_worker_processes=5
        ) as service:
            service.register_graph("g", workload, relabel=False)
            handle = service.submit("triangle", "g", stream=False)
            handle.wait(timeout=60.0)
            execution = service.stats()["execution"]
            assert execution["default_backend"] == "process"
            assert execution["max_worker_processes"] == 5
            assert execution["worker_processes_in_use"] == 0

    def test_worker_span_trees_are_stitched_into_the_trace(self, workload):
        """Tracing a pooled run ships each worker's span tree home over
        the result channel; the parent stitches them under real-pid
        process tracks in the Chrome export."""
        import os

        from repro.engine.benu import run_benu
        from repro.telemetry import TelemetryConfig, validate_chrome_trace

        # A 2 ms delay per task keeps the queue busy long enough that the
        # second worker always gets a pull before the first drains it.
        result = run_benu(
            get_pattern("triangle"),
            workload,
            _process_config(
                telemetry=TelemetryConfig(trace=True),
                faults="worker.task:delay@1x1000000~0.002",
            ),
        )
        tracer = result.telemetry.tracer
        # Both pool workers reported spans, keyed by their real pid.
        assert len(tracer.remote) == 2
        assert os.getpid() not in tracer.remote
        for pid, spans in tracer.remote.items():
            names = [s.name for s in spans]
            assert "worker-init" in names
            assert any(n.startswith("task[") for n in names)
            # Rebased onto the parent's origin: spans closed, non-negative.
            assert all(
                s.t1 is not None and s.t1 >= s.t0 for s in spans
            )
        trace = result.telemetry.chrome_trace()
        assert validate_chrome_trace(trace) == []
        meta_names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        worker_tracks = {n for n in meta_names if n.startswith("benu worker (pid ")}
        assert len(worker_tracks) == 2
        # The nested JSON export carries the same worker trees.
        exported = tracer.to_dict()
        assert set(exported["workers"]) == {str(pid) for pid in tracer.remote}

    def test_untraced_run_ships_no_spans(self, workload):
        from repro.engine.benu import run_benu

        result = run_benu(get_pattern("triangle"), workload, _process_config())
        assert result.telemetry.tracer is None

    def test_telemetry_metric_names_match_simulated(self, workload):
        snaps = {}
        for backend in ("simulated", "process"):
            with BenuService(
                config=_process_config(execution_backend=backend)
            ) as service:
                service.register_graph("g", workload, relabel=False)
                handle = service.submit("triangle", "g", stream=False)
                handle.wait(timeout=60.0)
                snaps[backend] = {
                    m.name for m in handle.result().telemetry.registry.metrics()
                }
        # Process adds shared-memory metrics; everything simulated emits
        # must be present under the same names.
        assert snaps["simulated"] <= snaps["process"]
