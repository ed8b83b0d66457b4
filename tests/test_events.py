"""Tests for the structured query-lifecycle event log.

Pins the observability acceptance criteria:

* the JSONL schema round-trips (``Event.to_json`` / ``parse_event`` are
  inverses) for every event type in :data:`EVENT_TYPES`;
* the ring buffer caps memory, counts drops, and fans out to sinks;
* a full service session yields a correlated event stream — submit,
  start, plan resolution, task dispatch/finish, q-error, finish — all
  stamped with the same ``query_id``;
* rejections, cancellations and catalog evictions appear in the log;
* the ``events``/``metrics`` protocol verbs expose the log on the wire.
"""

import json
import time

import pytest

from repro.graph.generators import chung_lu
from repro.graph.graph import complete_graph
from repro.graph.order import relabel_by_degree_order
from repro.service import BenuService
from repro.service.protocol import ServiceProtocol
from repro.telemetry.events import (
    EV_CATALOG_EVICTED,
    EV_PLAN_RESOLVED,
    EV_QUERY_FINISHED,
    EV_QUERY_QERROR,
    EV_QUERY_REJECTED,
    EV_QUERY_STARTED,
    EV_QUERY_SUBMITTED,
    EV_TASK_DISPATCHED,
    EV_TASK_FINISHED,
    EVENT_TYPES,
    Event,
    EventLog,
    FileEventSink,
    NULL_EVENTS,
    parse_event,
)
from repro.telemetry.registry import MetricsRegistry


@pytest.fixture(scope="module")
def workload():
    g, _ = relabel_by_degree_order(chung_lu(200, 5.0, exponent=2.4, seed=7))
    return g


def await_finish_event(service, query_id):
    """The service accounts a query (q-error, finish event, slow log) just
    *after* it wakes whoever waits on the handle: wait for the finish event
    before reading the query's accounting."""
    give_up = time.monotonic() + 10.0
    while not service.events.events(type=EV_QUERY_FINISHED, query_id=query_id):
        assert time.monotonic() < give_up, "no query_finished event"
        time.sleep(0.001)


class TestSchemaRoundtrip:
    @pytest.mark.parametrize("event_type", EVENT_TYPES)
    def test_every_type_roundtrips(self, event_type):
        event = Event(
            type=event_type,
            ts=1234.5,
            query_id="q-7",
            task_id=3,
            fields={"status": "succeeded", "wall_seconds": 0.25, "n": 2},
        )
        assert parse_event(event.to_json()) == event

    def test_optional_keys_are_omitted(self):
        event = Event(type=EV_QUERY_STARTED, ts=1.0)
        d = event.to_dict()
        assert set(d) == {"type", "ts"}
        assert parse_event(event.to_json()) == event

    def test_json_is_one_sorted_line(self):
        event = Event(EV_QUERY_FINISHED, ts=2.0, query_id="q", fields={"b": 1, "a": 2})
        line = event.to_json()
        assert "\n" not in line
        assert line.index('"fields"') < line.index('"query_id"') < line.index('"ts"')

    def test_parse_rejects_non_events(self):
        with pytest.raises(ValueError):
            parse_event("[1, 2]")
        with pytest.raises(ValueError):
            parse_event('{"no_type": true}')


class TestEventLog:
    def test_ring_caps_and_counts_drops(self):
        log = EventLog(capacity=3, clock=lambda: 0.0)
        for i in range(5):
            log.emit(EV_TASK_FINISHED, task_id=i)
        assert len(log) == 3
        assert log.emitted == 5
        assert log.dropped == 2
        assert [e.task_id for e in log.events()] == [2, 3, 4]

    def test_filters_by_type_and_query(self):
        log = EventLog(clock=lambda: 0.0)
        log.emit(EV_QUERY_STARTED, query_id="a")
        log.emit(EV_QUERY_STARTED, query_id="b")
        log.emit(EV_QUERY_FINISHED, query_id="a")
        assert [e.query_id for e in log.events(type=EV_QUERY_STARTED)] == ["a", "b"]
        assert [e.type for e in log.events(query_id="a")] == [
            EV_QUERY_STARTED,
            EV_QUERY_FINISHED,
        ]
        assert len(log.as_dicts(limit=1)) == 1

    def test_sink_fanout_and_file_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        seen = []
        log.add_sink(seen.append)
        log.add_sink(FileEventSink(path))
        e1 = log.emit(EV_QUERY_SUBMITTED, query_id="q", pattern="triangle")
        e2 = log.emit(EV_QUERY_FINISHED, query_id="q", status="succeeded")
        assert seen == [e1, e2]
        lines = path.read_text().splitlines()
        assert [parse_event(l) for l in lines] == [e1, e2]

    def test_bound_log_stamps_query_id(self):
        log = EventLog(clock=lambda: 0.0)
        bound = log.bound("q-42")
        bound.emit(EV_TASK_FINISHED, task_id=0)
        bound.emit(EV_CATALOG_EVICTED, query_id="explicit")
        assert [e.query_id for e in log.events()] == ["q-42", "explicit"]
        assert bound.enabled

    def test_registry_counter_labels_by_type(self):
        registry = MetricsRegistry()
        log = EventLog(registry=registry)
        log.emit(EV_QUERY_STARTED)
        log.emit(EV_QUERY_STARTED)
        log.emit(EV_QUERY_FINISHED)
        metric = registry.get("benu_events_total")
        totals = {labels["type"]: v for labels, v in metric.samples()}
        assert totals == {EV_QUERY_STARTED: 2.0, EV_QUERY_FINISHED: 1.0}

    def test_null_log_is_inert(self):
        assert NULL_EVENTS.emit(EV_QUERY_STARTED, query_id="q") is None
        assert NULL_EVENTS.bound("q") is NULL_EVENTS
        assert not NULL_EVENTS.enabled
        assert len(NULL_EVENTS) == 0 and NULL_EVENTS.events() == []


class TestServiceCorrelation:
    """A full service session yields a correlated lifecycle stream."""

    def test_successful_query_lifecycle(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            handle = service.submit("triangle", "g", stream=False)
            handle.wait(timeout=30)
            qid = handle.query_id
            await_finish_event(service, qid)
            events = service.events.events(query_id=qid)
            types = [e.type for e in events]
            # Lifecycle order: submitted -> started -> plan -> ... -> finished
            for earlier, later in [
                (EV_QUERY_SUBMITTED, EV_QUERY_STARTED),
                (EV_QUERY_STARTED, EV_PLAN_RESOLVED),
                (EV_PLAN_RESOLVED, EV_QUERY_QERROR),
                (EV_QUERY_QERROR, EV_QUERY_FINISHED),
            ]:
                assert types.index(earlier) < types.index(later), types
            # Task events are per chunk: a dispatch/finish pair correlates
            # by the chunk's first task id, and the finished ranges tile
            # the task space exactly once.
            dispatched = [
                e.task_id for e in events if e.type == EV_TASK_DISPATCHED
            ]
            finished = [e for e in events if e.type == EV_TASK_FINISHED]
            assert dispatched and [e.task_id for e in finished] == dispatched
            result = handle.result()
            covered = [
                task
                for e in finished
                for task in range(e.task_id, e.task_id + e.fields["tasks"])
            ]
            assert covered == list(range(result.num_tasks))
            assert sum(e.fields["embeddings"] for e in finished) == result.count
            # Timestamps are monotone non-decreasing within the query.
            stamps = [e.ts for e in events]
            assert stamps == sorted(stamps)
            (done,) = [e for e in events if e.type == EV_QUERY_FINISHED]
            assert done.fields["status"] == "succeeded"
            (qerr,) = [e for e in events if e.type == EV_QUERY_QERROR]
            assert set(qerr.fields["q_errors"]) >= {"INT", "ENU", "RES"}
            assert all(v >= 1.0 for v in qerr.fields["q_errors"].values())

    def test_rejected_query_emits_rejection(self, workload):
        with BenuService(max_concurrent=1, max_queued=0) as service:
            service.register_graph("g", workload, relabel=False)
            # Saturate the only slot with a streaming query nobody drains.
            blocker = service.submit("clique4", "g", stream=True)
            try:
                with pytest.raises(Exception):
                    while True:  # second submit must eventually fast-reject
                        service.submit("triangle", "g", stream=False)
                rejected = service.events.events(type=EV_QUERY_REJECTED)
                assert rejected and "reason" in rejected[-1].fields
            finally:
                blocker.cancel()

    def test_catalog_eviction_emits_event(self):
        with BenuService(catalog_capacity_bytes=1) as service:
            service.register_graph("first", complete_graph(12))
            service.register_graph("second", complete_graph(12))
            evicted = service.events.events(type=EV_CATALOG_EVICTED)
            assert [e.fields["graph"] for e in evicted] == ["first"]

    def test_event_log_file_and_capacity_knobs(self, tmp_path, workload):
        path = tmp_path / "events.jsonl"
        with BenuService(
            event_log_capacity=4, event_log_path=str(path)
        ) as service:
            service.register_graph("g", workload, relabel=False)
            handle = service.submit("triangle", "g", stream=False)
            handle.wait(timeout=30)
            kept = len(service.events)
            num_tasks = handle.result().num_tasks
        # The ring kept only 4, but the file sink saw everything: the
        # query's lifecycle events and one dispatch/finish pair per chunk.
        lines = path.read_text().splitlines()
        parsed = [parse_event(l) for l in lines]
        assert kept == 4 < len(parsed)
        chunks = [e for e in parsed if e.type == EV_TASK_FINISHED]
        assert len([e for e in parsed if e.type == EV_TASK_DISPATCHED]) == len(chunks)
        assert sum(e.fields["tasks"] for e in chunks) == num_tasks
        types = {e.type for e in parsed}
        assert {EV_QUERY_SUBMITTED, EV_QUERY_FINISHED} <= types
        assert all(
            e.query_id == handle.query_id
            for e in parsed
            if e.type != EV_CATALOG_EVICTED
        )


class TestProtocolVerbs:
    def test_events_and_metrics_ops(self, workload):
        with BenuService() as service:
            service.register_graph("g", workload, relabel=False)
            protocol = ServiceProtocol(service)
            response = protocol.handle_line(
                json.dumps(
                    {"op": "submit", "pattern": "triangle", "graph": "g",
                     "stream": False}
                )
            )
            assert response["ok"], response
            qid = response["query"]
            protocol.handle_line(
                json.dumps({"op": "poll", "query": qid, "wait": 30})
            )
            await_finish_event(service, qid)
            response = protocol.handle_line(
                json.dumps({"op": "events", "query": qid, "limit": 5})
            )
            assert response["ok"]
            assert len(response["events"]) == 5
            assert response["emitted"] >= response["dropped"]
            assert all(e["query_id"] == qid for e in response["events"])
            filtered = protocol.handle_line(
                json.dumps({"op": "events", "type": EV_QUERY_FINISHED})
            )
            assert [e["type"] for e in filtered["events"]] == [EV_QUERY_FINISHED]
            metrics = protocol.handle_line(json.dumps({"op": "metrics"}))
            assert metrics["ok"]
            assert "benu_events_total" in metrics["metrics"]
            assert "# TYPE benu_service_query_q_error histogram" in metrics["metrics"]
