"""CI smoke check: one tiny end-to-end enumeration with full telemetry on.

Runs in the default test sweep (wired via ``testpaths`` in
``pyproject.toml``, marked ``smoke``) and asserts the observability
contract this repo's benchmarks rely on:

* the exported trace validates against the minimal Chrome ``trace_event``
  schema and contains the pipeline's load-bearing spans;
* the telemetry snapshot agrees with the legacy stats ledgers;
* the machine-readable ``BENCH_*.json`` record round-trips through JSON;
* observability off is *free*: no events, per-task IPC records stay
  exact 4-tuples, and attaching cost-model predictions
  leaves the compiled plan source byte-identical.
"""

import json
import pickle

import pytest

from repro import BenuConfig, TelemetryConfig, run_benu, validate_chrome_trace
from repro.graph.generators import erdos_renyi
from repro.graph.patterns import get_pattern

from common import telemetry_record, write_bench_record

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def traced_result():
    return run_benu(
        get_pattern("chordal_square"),
        erdos_renyi(40, 0.2, seed=11),
        BenuConfig(
            num_workers=2,
            threads_per_worker=2,
            telemetry=TelemetryConfig(trace=True, profile=True, sample_every=8),
        ),
    )


def test_smoke_trace_validates(traced_result, tmp_path):
    path = tmp_path / "trace.json"
    traced_result.telemetry.write_trace(path)
    trace = json.loads(path.read_text())
    assert validate_chrome_trace(trace) == []
    names = {e["name"] for e in trace["traceEvents"]}
    for required in ("benu-job", "plan-search", "task-generation", "execution"):
        assert required in names, f"missing span {required!r}"
    worker_spans = [
        e
        for e in trace["traceEvents"]
        if e["name"].startswith("worker-") and e.get("ph") == "X"
    ]
    assert len(worker_spans) == 2
    for span in worker_spans:
        assert "sim_seconds" in span["args"]
        assert "wall_seconds" in span["args"]


def test_smoke_snapshot_parity(traced_result):
    snap = traced_result.telemetry
    assert snap.db_queries == traced_result.communication.queries
    assert snap.cache_hit_rate == pytest.approx(traced_result.cache.hit_rate)
    assert snap.instruction_counts["RES"] == traced_result.count


def _spy_on_records(monkeypatch):
    """The chunk records the process backend's parent receives, as they
    arrive: every record passes ``ProcessBackend._account`` once."""
    from repro.engine.backends.process import ProcessBackend

    seen = []
    original = ProcessBackend._account

    def spy(record, *rest):
        seen.append(record)
        return original(record, *rest)

    monkeypatch.setattr(ProcessBackend, "_account", staticmethod(spy))
    return seen


class TestTelemetryOffIsFree:
    """The zero-overhead contract: observability off must cost nothing."""

    def test_no_events_without_a_service(self):
        from repro.telemetry import NULL_EVENTS, Telemetry
        from repro.telemetry.events import M_EVENTS

        hub = Telemetry()
        assert hub.events is NULL_EVENTS
        assert hub.events.emit("query_started", query_id="q") is None
        assert len(hub.events) == 0 and hub.events.dropped == 0
        # A full default run registers no event metric at all.
        result = run_benu(
            get_pattern("triangle"),
            erdos_renyi(30, 0.2, seed=5),
            BenuConfig(num_workers=2),
        )
        assert result.telemetry.registry.get(M_EVENTS) is None

    def test_untraced_ipc_records_are_exact_four_tuples(self, monkeypatch):
        """Tracing off → chunk records carry zero extra payload bytes."""
        seen = _spy_on_records(monkeypatch)
        pattern = get_pattern("triangle")
        data = erdos_renyi(30, 0.2, seed=5)
        for workers in (1, 2):
            seen.clear()
            config = BenuConfig(num_workers=workers, execution_backend="process")
            run_benu(pattern, data, config)
            records = list(seen)
            assert records
            assert all(len(r) == 4 for r in records)
            # Explicitly: the serialized record IS the bare 4-tuple.
            assert all(
                pickle.dumps(r) == pickle.dumps(tuple(r[:4])) for r in records
            )
            # Tracing on appends exactly one trailing element (the spans).
            seen.clear()
            run_benu(
                pattern,
                data,
                BenuConfig(
                    num_workers=workers,
                    execution_backend="process",
                    telemetry=TelemetryConfig(trace=True),
                ),
            )
            traced = list(seen)
            assert traced and all(len(r) == 5 for r in traced)

    def test_faults_off_is_free(self, monkeypatch):
        """No schedule configured → the null injector, no fault metrics,
        and the same bare 4-tuple IPC records."""
        from repro.faults import FAULTS_ENV, NULL_INJECTOR, get_injector
        from repro.telemetry.snapshot import (
            M_FAULTS_INJECTED,
            M_TASK_RETRIES,
            M_WORKER_CRASHES,
        )

        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert get_injector(None) is NULL_INJECTOR

        seen = _spy_on_records(monkeypatch)
        for workers in (1, 2):
            seen.clear()
            result = run_benu(
                get_pattern("triangle"),
                erdos_renyi(30, 0.2, seed=5),
                BenuConfig(num_workers=workers, execution_backend="process"),
            )
            records = list(seen)
            assert records and all(
                pickle.dumps(r) == pickle.dumps(tuple(r[:4])) for r in records
            )
            registry = result.telemetry.registry
            for metric in (M_WORKER_CRASHES, M_TASK_RETRIES, M_FAULTS_INJECTED):
                assert registry.get(metric) is None
            assert result.worker_crashes == 0 and result.tasks_retried == 0

    def test_predictions_leave_compiled_source_byte_identical(self):
        from repro.engine.benu import build_plan
        from repro.plan.codegen import generate_source

        plan = build_plan(
            get_pattern("chordal_square"), data=erdos_renyi(40, 0.2, seed=11)
        )
        assert plan.predicted_counts  # build_plan attaches the estimates
        with_predictions = generate_source(plan)
        plan.predicted_counts = None
        without_predictions = generate_source(plan)
        assert with_predictions == without_predictions


def test_smoke_bench_record_roundtrip(traced_result, tmp_path, monkeypatch):
    import common

    # Redirect the record into tmp_path: smoke runs in the default sweep,
    # and must not dirty the committed benchmarks/results/ on every run.
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    record = telemetry_record(traced_result)
    path = write_bench_record("smoke", {"runs": [record]})
    loaded = json.loads(path.read_text())
    assert loaded["runs"][0]["count"] == traced_result.count
    assert loaded["runs"][0]["db_queries"] == traced_result.communication.queries
