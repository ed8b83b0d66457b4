"""Tests for live query progress & ETA (``repro.telemetry.progress``).

The acceptance criterion: the reported completion fraction is *monotone
non-decreasing* for every query — including under concurrent updates
from many worker threads and when a late ``set_total_tasks`` would
otherwise shrink the denominator — and the ETA converges to zero as the
query drains.  Also covers the service wiring: ``poll`` and ``stats``
expose in-flight progress, and cancellation freezes rather than corrupts
it.
"""

import threading
import time

import pytest

from repro.graph.generators import chung_lu
from repro.graph.order import relabel_by_degree_order
from repro.service import BenuService, QueryStatus
from repro.telemetry.progress import NULL_PROGRESS, QueryProgress


@pytest.fixture(scope="module")
def workload():
    g, _ = relabel_by_degree_order(chung_lu(200, 5.0, exponent=2.4, seed=7))
    return g


class TestQueryProgress:
    def test_fraction_and_eta(self):
        now = {"t": 0.0}
        p = QueryProgress(clock=lambda: now["t"])
        p.set_total_tasks(4)
        p.task_done(embeddings=10)
        p.task_done(embeddings=5)
        assert p.fraction() == pytest.approx(0.5)
        # 2 done in 6s -> 2 remaining ~ 6s
        now["t"] = 6.0
        assert p.eta_seconds() == pytest.approx(6.0)
        now["t"] = 8.0
        p.task_done()
        p.task_done()
        assert p.fraction() == 1.0
        assert p.eta_seconds() == pytest.approx(0.0)
        d = p.describe()
        assert d["tasks_done"] == 4 and d["embeddings"] == 15

    def test_unknown_total_means_no_eta(self):
        p = QueryProgress(clock=lambda: 0.0)
        assert p.fraction() == 0.0
        assert p.eta_seconds() is None
        p.task_done()
        assert p.eta_seconds() is None  # still no denominator

    def test_total_shrink_cannot_regress_fraction(self):
        p = QueryProgress(clock=lambda: 0.0)
        p.set_total_tasks(4)
        for _ in range(3):
            p.task_done()
        before = p.fraction()
        p.set_total_tasks(2)  # late, smaller estimate: max-merged away
        assert p.fraction() >= before

    def test_monotone_under_concurrent_updates(self):
        p = QueryProgress()
        p.set_total_tasks(400)
        observed = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                observed.append(p.fraction())

        def worker():
            for _ in range(100):
                p.task_done(embeddings=1)

        watcher = threading.Thread(target=reader)
        workers = [threading.Thread(target=worker) for _ in range(4)]
        watcher.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        watcher.join()
        observed.append(p.fraction())
        assert observed == sorted(observed)
        assert observed[-1] == 1.0

    def test_null_progress_is_inert(self):
        NULL_PROGRESS.set_total_tasks(10)
        NULL_PROGRESS.task_done(embeddings=5)
        assert NULL_PROGRESS.fraction() == 0.0
        assert NULL_PROGRESS.eta_seconds() is None


class TestServiceProgress:
    def test_finished_query_reports_full_progress(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            handle = service.submit("triangle", "g", stream=False)
            handle.wait(timeout=30)
            d = handle.describe()
            assert d["progress"]["fraction"] == 1.0
            assert d["progress"]["tasks_done"] == d["progress"]["total_tasks"] > 0
            assert d["progress"]["embeddings"] == handle.result().count

    def test_stats_exposes_in_flight_progress(self, workload):
        # A one-row stream buffer: the undrained query blocks on
        # backpressure after its first rows, so it is in flight — and its
        # progress visible in stats() — for as long as nobody drains it.
        with BenuService(batch_size=1, max_buffered_batches=1) as service:
            service.register_graph("g", workload, relabel=False)
            handle = service.submit("clique4", "g", stream=True)
            try:
                # Time-based wait (a bare spin can starve the query
                # thread of the GIL on a loaded machine).
                snapshot = {}
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    snapshot = service.stats()["progress"]
                    if handle.query_id in snapshot:
                        break
                    time.sleep(0.005)
                assert handle.query_id in snapshot
                view = snapshot[handle.query_id]
                assert set(view) >= {
                    "tasks_done", "total_tasks", "embeddings",
                    "fraction", "eta_seconds", "elapsed_seconds",
                }
            finally:
                handle.cancel()
                handle.wait(timeout=30)
            assert handle.query_id not in service.stats()["progress"]

    def test_cancellation_freezes_progress_monotonically(self, workload):
        # One-row buffer again: the query cannot finish before the cancel.
        with BenuService(batch_size=1, max_buffered_batches=1) as service:
            service.register_graph("g", workload, relabel=False)
            handle = service.submit("clique4", "g", stream=True)
            before = handle.progress.fraction()
            handle.cancel()
            handle.wait(timeout=30)
            assert handle.status == QueryStatus.CANCELLED
            after = handle.progress.fraction()
            assert after >= before
            assert handle.progress.fraction() == after  # frozen, stable
