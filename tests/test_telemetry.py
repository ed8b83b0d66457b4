"""Tests for the unified telemetry layer (registry, tracing, profiling)."""

import json

import pytest

from repro.engine.benu import run_benu
from repro.engine.config import BenuConfig
from repro.graph.generators import erdos_renyi
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.telemetry import (
    MetricsRegistry,
    TelemetryConfig,
    Tracer,
    validate_chrome_trace,
)
from repro.telemetry.profiler import INSTRUCTION_SECONDS_METRIC, SamplingProfiler
from repro.telemetry.registry import MetricError
from repro.telemetry.tracing import NULL_TRACER


@pytest.fixture
def data_graph():
    g, _ = relabel_by_degree_order(erdos_renyi(40, 0.2, seed=3))
    return g


def run(data_graph, telemetry=None):
    config = BenuConfig(
        num_workers=2, threads_per_worker=2, relabel=False, telemetry=telemetry
    )
    return run_benu(get_pattern("chordal_square"), data_graph, config)


class TestRegistry:
    def test_counter_semantics(self):
        reg = MetricsRegistry()
        c = reg.counter("requests", labels=("worker",))
        c.inc(worker=0)
        c.inc(4, worker=0)
        c.inc(2, worker=1)
        assert c.value(worker=0) == 5
        assert c.value(worker=1) == 2
        assert c.value(worker=9) == 0  # never-seen label set reads as 0
        assert c.total() == 7
        # get-or-create: re-requesting the name returns the same metric.
        assert reg.counter("requests", labels=("worker",)) is c
        assert reg.counter_total("requests") == 7
        assert reg.counter_total("never_registered") == 0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("n").inc(-1)

    def test_label_mismatch_at_use_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("tagged", labels=("worker",))
        with pytest.raises(MetricError):
            c.inc(phase="x")

    def test_gauge_semantics(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(3.5)
        g.add(-1.0)
        assert g.value() == 2.5

    def test_histogram_semantics(self):
        reg = MetricsRegistry()
        h = reg.histogram("latency", buckets=(1.0, 10.0))
        for x in (0.5, 2.0, 100.0):
            h.observe(x)
        hv = h.value()
        assert hv.count == 3
        assert hv.sum == pytest.approx(102.5)
        assert hv.min == 0.5
        assert hv.max == 100.0
        assert hv.mean == pytest.approx(102.5 / 3)
        # one observation per bucket + one in the implicit overflow bucket
        assert hv.bucket_counts == [1, 1, 1]

    def test_observe_many_equals_repeated_observe(self):
        values = [3e-7, 0.1, 2.5e-4, 0.1, 99.0, 1e-7, 0.3 + 0.6, 1e-7]
        one_by_one = MetricsRegistry().histogram("h", labels=("worker",))
        at_once = MetricsRegistry().histogram("h", labels=("worker",))
        # Into a non-empty sample, and into a fresh one.
        one_by_one.observe(0.05, worker=0)
        at_once.observe(0.05, worker=0)
        for worker in (0, 1):
            for x in values:
                one_by_one.observe(x, worker=worker)
            at_once.observe_many(values, worker=worker)
        at_once.observe_many([], worker=2)
        assert at_once.as_dict() == one_by_one.as_dict()
        assert at_once.value(worker=0).sum == one_by_one.value(worker=0).sum

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(MetricError):
            reg.gauge("x")

    def test_label_set_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("y", labels=("a",))
        with pytest.raises(MetricError):
            reg.counter("y", labels=("b",))

    def test_as_dict_json_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c", labels=("k",)).inc(3, k="v")
        reg.gauge("g").set(1.5)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        loaded = json.loads(json.dumps(reg.as_dict()))
        assert set(loaded) == {"c", "g", "h"}
        assert loaded["c"]["kind"] == "counter"
        assert loaded["c"]["samples"] == [
            {"labels": {"k": "v"}, "value": 3}
        ]
        assert loaded["h"]["samples"][0]["value"]["count"] == 1


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b", args={"k": 1}):
                pass
        (root,) = tracer.roots
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner-a", "inner-b"]
        assert root.find("inner-b").args == {"k": 1}
        assert root.wall_seconds >= sum(c.wall_seconds for c in root.children)

    def test_end_out_of_order_raises(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(RuntimeError):
            tracer.end(outer)

    def test_json_export_roundtrip(self):
        tracer = Tracer()
        with tracer.span("job"):
            with tracer.span("step"):
                pass
        d = json.loads(json.dumps(tracer.to_dict()))
        assert d["spans"][0]["name"] == "job"
        assert d["spans"][0]["children"][0]["name"] == "step"
        assert d["dropped_sim_events"] == 0

    def test_chrome_export_validates(self):
        tracer = Tracer()
        with tracer.span("job"):
            with tracer.span("step"):
                pass
        tracer.add_sim_slice("worker-0/thread-0", "task v=1", 0.0, 0.5)
        trace = tracer.to_chrome()
        assert validate_chrome_trace(trace) == []
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert "X" in phases and "M" in phases
        pids = {e["pid"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 2}  # wall-clock pipeline + simulated timeline

    def test_validate_catches_malformed(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({}) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        bad_dur = {
            "traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1, "dur": -1}
            ]
        }
        assert validate_chrome_trace(bad_dur) != []

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", args={"x": 1}) as s:
            s.args["more"] = 2
        NULL_TRACER.add_sim_slice("t", "n", 0.0, 1.0)
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.to_dict() is None

    def test_exception_unwinds_and_flags_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("job"):
                with tracer.span("step", args={"k": 1}):
                    raise ValueError("boom")
        # Both spans are closed (no dangling stack) and flagged.
        (root,) = tracer.roots
        step = root.find("step")
        assert step.t1 is not None and root.t1 is not None
        assert step.args["error"] is True
        assert root.args["error"] is True
        assert step.args["k"] == 1  # pre-raise args survive
        # The tracer is reusable after the unwind.
        with tracer.span("after"):
            pass
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_exception_unwind_is_scoped_to_each_span(self):
        """A span that observed the raise but exited cleanly isn't closed
        twice, and siblings after recovery carry no error flag."""
        tracer = Tracer()
        with tracer.span("outer"):
            with pytest.raises(RuntimeError):
                with tracer.span("failing"):
                    raise RuntimeError("handled")
            with tracer.span("recovery"):
                pass
        (root,) = tracer.roots
        assert root.find("failing").args["error"] is True
        assert "error" not in root.find("recovery").args
        assert "error" not in root.args

    def test_raising_plan_function_leaves_trace_consistent(
        self, data_graph, monkeypatch
    ):
        """Regression: a plan function that raises mid-run used to leave
        the tracer's span stack dangling, so the *export* — not the
        user's error — blew up.  Now every open span is closed at the
        raise instant with ``error=True`` and the trace stays exportable."""
        from repro.engine.benu import (
            execute_plan,
            prepare_data,
            prepare_plan,
        )
        from repro.telemetry.runtime import Telemetry

        def broken_compile(*args, **kwargs):
            raise RuntimeError("synthetic codegen failure")

        monkeypatch.setattr(
            "repro.engine.backends.simulated.compile_plan", broken_compile
        )
        config = BenuConfig(
            num_workers=2, relabel=False,
            telemetry=TelemetryConfig(trace=True),
        )
        hub = Telemetry(config.telemetry)
        prepared = prepare_data(data_graph, config)
        plan = prepare_plan(get_pattern("triangle"), prepared, config)
        with pytest.raises(RuntimeError, match="synthetic codegen"):
            execute_plan(plan, prepared, config, telemetry=hub)
        tracer = hub.tracer
        # No dangling open spans: everything closed by the unwind ...
        def all_spans(spans):
            for s in spans:
                yield s
                yield from all_spans(s.children)
        assert all(s.t1 is not None for s in all_spans(tracer.roots))
        # ... the failing path is flagged, and the export still works.
        assert any(
            s.args.get("error") for s in all_spans(tracer.roots)
        )
        assert validate_chrome_trace(tracer.to_chrome()) == []

    def test_sim_slice_cap_reports_drops(self):
        tracer = Tracer(max_sim_events=2)
        for i in range(5):
            tracer.add_sim_slice("t", f"s{i}", float(i), 1.0)
        assert len(tracer.sim_events) == 2
        assert tracer.dropped_sim_events == 3
        assert tracer.to_chrome()["otherData"]["dropped_sim_events"] == 3


class TestProfiler:
    def test_sampling_gate(self):
        reg = MetricsRegistry()
        hist = reg.histogram(INSTRUCTION_SECONDS_METRIC, labels=("instr",))
        prof = SamplingProfiler(hist, sample_every=4)
        fired = [prof.should_sample() for _ in range(12)]
        assert fired == [False, False, False, True] * 3

    def test_timed_preserves_return_value(self):
        reg = MetricsRegistry()
        hist = reg.histogram(INSTRUCTION_SECONDS_METRIC, labels=("instr",))
        prof = SamplingProfiler(hist, sample_every=1)
        wrapped = prof.timed("DBQ", lambda x: x * 2)
        assert wrapped(21) == 42
        assert hist.value(instr="DBQ").count == 1
        assert prof.samples_taken == 1

    def test_rejects_bad_rate(self):
        hist = MetricsRegistry().histogram("h", labels=("instr",))
        with pytest.raises(ValueError):
            SamplingProfiler(hist, sample_every=0)


class TestPipelineIntegration:
    def test_disabled_telemetry_no_extra_queries(self, data_graph):
        plain = run(data_graph, telemetry=None)
        traced = run(
            data_graph,
            telemetry=TelemetryConfig(trace=True, profile=True, sample_every=4),
        )
        # Observability must not perturb the simulation: same answer, same
        # communication ledger, query for query.
        assert traced.count == plain.count
        assert traced.communication.queries == plain.communication.queries
        assert (
            traced.communication.bytes_transferred
            == plain.communication.bytes_transferred
        )
        assert traced.cache.lookups == plain.cache.lookups
        assert traced.makespan_seconds == pytest.approx(plain.makespan_seconds)

    def test_snapshot_always_present_with_parity(self, data_graph):
        result = run(data_graph, telemetry=None)
        snap = result.telemetry
        assert snap is not None and not snap.enabled
        assert snap.tracer is None
        assert snap.db_queries == result.communication.queries
        assert snap.db_bytes == result.communication.bytes_transferred
        assert snap.cache_hits == result.cache.hits
        assert snap.cache_misses == result.cache.misses
        assert snap.cache_hit_rate == pytest.approx(result.cache.hit_rate)
        assert snap.results == result.count
        assert snap.tasks == result.num_tasks
        assert snap.makespan_seconds == pytest.approx(result.makespan_seconds)

    def test_instruction_counts_match_counters(self, data_graph):
        result = run(data_graph, telemetry=TelemetryConfig())
        counts = result.telemetry.instruction_counts
        assert counts["RES"] == result.count
        assert counts["DBQ"] > 0
        assert counts["INT"] > 0

    def test_trace_contains_pipeline_spans(self, data_graph):
        result = run(data_graph, telemetry=TelemetryConfig())
        tree = result.telemetry.trace_tree()
        (job,) = tree["spans"]
        assert job["name"] == "benu-job"
        child_names = [c["name"] for c in job["children"]]
        for required in ("plan-search", "task-generation", "execution"):
            assert required in child_names
        # Worker spans carry both clocks.
        execution = next(c for c in job["children"] if c["name"] == "execution")
        workers = [c for c in execution["children"] if c["name"].startswith("worker-")]
        assert len(workers) == 2
        for w in workers:
            assert w["sim_seconds"] >= 0
            assert w["wall_seconds"] >= 0

    def test_profiler_populates_instruction_histograms(self, data_graph):
        result = run(
            data_graph,
            telemetry=TelemetryConfig(profile=True, sample_every=2),
        )
        samples = result.telemetry.instruction_wall_samples()
        assert samples  # at least one instruction type sampled
        assert set(samples) <= {"DBQ", "INT", "TRC"}
        assert all(v.count > 0 for v in samples.values())

    def test_unprofiled_run_has_no_samples(self, data_graph):
        result = run(data_graph, telemetry=TelemetryConfig())
        assert result.telemetry.instruction_wall_samples() == {}

    def test_write_trace_file(self, data_graph, tmp_path):
        result = run(data_graph, telemetry=TelemetryConfig())
        path = tmp_path / "trace.json"
        result.telemetry.write_trace(path)
        assert validate_chrome_trace(json.loads(path.read_text())) == []
        nested = tmp_path / "trace_nested.json"
        result.telemetry.write_trace(nested, format="json")
        assert json.loads(nested.read_text())["spans"][0]["name"] == "benu-job"

    def test_write_trace_disabled_raises(self, data_graph):
        result = run(data_graph, telemetry=None)
        with pytest.raises(RuntimeError):
            result.telemetry.write_trace("/tmp/nope.json")

    def test_write_metrics_file(self, data_graph, tmp_path):
        result = run(data_graph, telemetry=TelemetryConfig())
        path = tmp_path / "metrics.json"
        result.telemetry.write_metrics(path)
        loaded = json.loads(path.read_text())
        assert loaded["summary"]["db_queries"] == result.communication.queries

    def test_interpreter_path_with_profiler(self, data_graph):
        from repro.engine.interpreter import interpret_all
        from repro.pattern.pattern_graph import PatternGraph
        from repro.plan.generation import generate_raw_plan
        from repro.plan.optimizer import optimize

        pg = PatternGraph(get_pattern("triangle"), "triangle")
        plan = optimize(generate_raw_plan(pg, list(pg.vertices)))
        reg = MetricsRegistry()
        prof = SamplingProfiler(
            reg.histogram(INSTRUCTION_SECONDS_METRIC, labels=("instr",)),
            sample_every=2,
        )
        plain = interpret_all(plan, data_graph.vertices, data_graph.neighbors)
        profiled = interpret_all(
            plan, data_graph.vertices, data_graph.neighbors, profiler=prof
        )
        assert profiled.results == plain.results
        assert profiled.dbq_ops == plain.dbq_ops
        assert prof.samples_taken > 0
