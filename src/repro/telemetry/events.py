"""Structured query-lifecycle event log — the service's flight recorder.

The resident service handles many queries concurrently; a span tree per
query shows *where time went* but not *what happened in what order*
across queries.  This module records the lifecycle as a flat, append-only
stream of typed events — submit, admit/reject, plan-cache outcome, task
dispatch/finish, cancel, deadline, catalog eviction, slow query — each
correlated by ``query_id`` (and ``task_id`` where applicable).

Design points:

* **Ring-buffered**: the in-memory view keeps the most recent
  ``capacity`` events (a ``deque``), so a long-lived ``benu serve``
  never grows without bound; drops are counted, never silent.
* **Pluggable sinks**: every event is also fanned out to registered
  sinks — a JSONL file sink for ``benu serve --event-log``, plain
  callables for tests.
* **JSONL schema round-trips**: :meth:`Event.to_json` /
  :func:`parse_event` are inverses for every event type, so the log can
  be replayed and correlated offline.
* **Free when off**: :data:`NULL_EVENTS` is the disabled stand-in; the
  one-shot pipeline only ever touches it through ``Telemetry.events``,
  so runs without a service pay a no-op call at most per *query*, never
  per instruction.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Event",
    "EventLog",
    "BoundEventLog",
    "NullEventLog",
    "NULL_EVENTS",
    "FileEventSink",
    "parse_event",
    "EVENT_TYPES",
    "EV_QUERY_SUBMITTED",
    "EV_QUERY_REJECTED",
    "EV_QUERY_STARTED",
    "EV_PLAN_RESOLVED",
    "EV_PLAN_LOWERED",
    "EV_TASK_DISPATCHED",
    "EV_TASK_FINISHED",
    "EV_QUERY_CANCELLED",
    "EV_QUERY_FINISHED",
    "EV_CATALOG_EVICTED",
    "EV_SLOW_QUERY",
    "EV_QUERY_QERROR",
    "EV_FAULT_INJECTED",
    "EV_WORKER_CRASHED",
    "EV_TASK_RETRIED",
    "EV_REPLICA_MARKED_DEAD",
    "EV_REPLICA_MARKED_ALIVE",
]

# -- event type vocabulary --------------------------------------------------
EV_QUERY_SUBMITTED = "query_submitted"
EV_QUERY_REJECTED = "query_rejected"
EV_QUERY_STARTED = "query_started"
EV_PLAN_RESOLVED = "plan_resolved"
# BENU-QL text was lowered through the rule optimizer (rules fired +
# logical-tree size ride along as payload).
EV_PLAN_LOWERED = "plan_lowered"
EV_TASK_DISPATCHED = "task_dispatched"
EV_TASK_FINISHED = "task_finished"
EV_QUERY_CANCELLED = "query_cancel_requested"
EV_QUERY_FINISHED = "query_finished"
EV_CATALOG_EVICTED = "catalog_evicted"
EV_SLOW_QUERY = "slow_query"
EV_QUERY_QERROR = "query_qerror"
# -- fault-tolerance vocabulary (PR 10): injected faults and what the
#    stack did to survive them.
EV_FAULT_INJECTED = "fault_injected"
EV_WORKER_CRASHED = "worker_crashed"
EV_TASK_RETRIED = "task_retried"
EV_REPLICA_MARKED_DEAD = "replica_marked_dead"
EV_REPLICA_MARKED_ALIVE = "replica_marked_alive"

#: Every event type the service can emit — the schema tests iterate this.
EVENT_TYPES = (
    EV_QUERY_SUBMITTED,
    EV_QUERY_REJECTED,
    EV_QUERY_STARTED,
    EV_PLAN_RESOLVED,
    EV_PLAN_LOWERED,
    EV_TASK_DISPATCHED,
    EV_TASK_FINISHED,
    EV_QUERY_CANCELLED,
    EV_QUERY_FINISHED,
    EV_CATALOG_EVICTED,
    EV_SLOW_QUERY,
    EV_QUERY_QERROR,
    EV_FAULT_INJECTED,
    EV_WORKER_CRASHED,
    EV_TASK_RETRIED,
    EV_REPLICA_MARKED_DEAD,
    EV_REPLICA_MARKED_ALIVE,
)

#: Registry counter incremented per emitted event, labeled by type.
M_EVENTS = "benu_events_total"


@dataclass
class Event:
    """One entry of the lifecycle log.

    ``ts`` is epoch seconds (events are correlated across processes and
    sessions, so a shared absolute clock beats a per-tracer origin);
    ``query_id``/``task_id`` are the correlation keys; everything
    type-specific rides in ``fields``.
    """

    type: str
    ts: float
    query_id: Optional[str] = None
    task_id: Optional[int] = None
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d: Dict[str, object] = {"type": self.type, "ts": self.ts}
        if self.query_id is not None:
            d["query_id"] = self.query_id
        if self.task_id is not None:
            d["task_id"] = self.task_id
        if self.fields:
            d["fields"] = dict(self.fields)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def parse_event(line: str) -> Event:
    """Inverse of :meth:`Event.to_json`.

    >>> e = Event(EV_QUERY_STARTED, ts=12.5, query_id="q-1")
    >>> parse_event(e.to_json()) == e
    True
    """
    d = json.loads(line)
    if not isinstance(d, dict) or "type" not in d or "ts" not in d:
        raise ValueError(f"not an event record: {line!r}")
    return Event(
        type=d["type"],
        ts=d["ts"],
        query_id=d.get("query_id"),
        task_id=d.get("task_id"),
        fields=d.get("fields", {}),
    )


class FileEventSink:
    """Appends each event as one JSON line; flushes so tails stay live."""

    def __init__(self, path) -> None:
        self.path = path
        self._fh = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()

    def __call__(self, event: Event) -> None:
        line = event.to_json()
        with self._lock:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()


class EventLog:
    """Thread-safe ring buffer of :class:`Event` with sink fan-out.

    >>> log = EventLog(capacity=2)
    >>> _ = log.emit(EV_QUERY_SUBMITTED, query_id="q-1")
    >>> _ = log.emit(EV_QUERY_STARTED, query_id="q-1")
    >>> _ = log.emit(EV_QUERY_FINISHED, query_id="q-1")
    >>> [e.type for e in log.events()]
    ['query_started', 'query_finished']
    >>> log.dropped
    1
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 4096,
        clock: Callable[[], float] = time.time,
        registry=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._clock = clock
        self._ring: Deque[Event] = deque(maxlen=capacity)
        # Copy-on-write: ``add_sink`` rebinds a new tuple, so ``emit``
        # reads the current one without copying it per event.
        self._sinks: Tuple[Callable[[Event], None], ...] = ()
        self._lock = threading.Lock()
        self.emitted = 0
        #: ``benu_events_total{type}`` sample key per event type, resolved
        #: the first time the type is emitted.
        self._type_keys: Dict[str, tuple] = {}
        self._counter = (
            registry.counter(
                M_EVENTS, help="lifecycle events emitted", labels=("type",)
            )
            if registry is not None
            else None
        )

    # ------------------------------------------------------------------
    def add_sink(self, sink: Callable[[Event], None]) -> None:
        """Register a callable invoked once per event."""
        with self._lock:
            self._sinks = self._sinks + (sink,)

    def emit(
        self,
        type: str,
        query_id: Optional[str] = None,
        task_id: Optional[int] = None,
        **fields: object,
    ) -> Event:
        """Record one event; returns it (handy in tests)."""
        event = Event(
            type=type,
            ts=self._clock(),
            query_id=query_id,
            task_id=task_id,
            fields=fields,
        )
        counter = self._counter
        with self._lock:
            self._ring.append(event)
            self.emitted += 1
            if counter is not None:
                key = self._type_keys.get(type)
                if key is None:
                    key = self._type_keys[type] = counter.key(type=type)
                counter.inc_key(key)
            sinks = self._sinks
        for sink in sinks:
            sink(event)
        return event

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Events that have fallen off the ring (emitted - retained)."""
        with self._lock:
            return self.emitted - len(self._ring)

    def events(
        self,
        type: Optional[str] = None,
        query_id: Optional[str] = None,
    ) -> List[Event]:
        """Retained events, oldest first, optionally filtered."""
        with self._lock:
            out: Iterable[Event] = list(self._ring)
        if type is not None:
            out = (e for e in out if e.type == type)
        if query_id is not None:
            out = (e for e in out if e.query_id == query_id)
        return list(out)

    def as_dicts(
        self,
        type: Optional[str] = None,
        query_id: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[dict]:
        """JSON-able view of the retained events (the protocol export)."""
        rows = [e.to_dict() for e in self.events(type=type, query_id=query_id)]
        if limit is not None and limit >= 0:
            rows = rows[-limit:]
        return rows

    def bound(self, query_id: str) -> "BoundEventLog":
        """A view that stamps ``query_id`` on every emitted event."""
        return BoundEventLog(self, query_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class BoundEventLog:
    """A view of an :class:`EventLog` that stamps every emit's query_id.

    The service hands one to each query's telemetry hub so backend task
    events correlate without the backend knowing about query ids.
    """

    __slots__ = ("_log", "query_id")

    def __init__(self, log: "EventLog", query_id: str) -> None:
        self._log = log
        self.query_id = query_id

    @property
    def enabled(self) -> bool:
        return self._log.enabled

    def emit(
        self,
        type: str,
        query_id: Optional[str] = None,
        task_id: Optional[int] = None,
        **fields: object,
    ) -> Event:
        return self._log.emit(
            type,
            query_id=query_id if query_id is not None else self.query_id,
            task_id=task_id,
            **fields,
        )


class NullEventLog:
    """Disabled event log: the whole API, none of the work.

    >>> log = NullEventLog()
    >>> log.emit(EV_QUERY_STARTED, query_id="q-1")
    >>> (len(log), log.events(), log.dropped)
    (0, [], 0)
    """

    enabled = False
    emitted = 0
    dropped = 0

    def add_sink(self, sink) -> None:
        pass

    def emit(self, type, query_id=None, task_id=None, **fields) -> None:
        return None

    def events(self, type=None, query_id=None):
        return []

    def as_dicts(self, type=None, query_id=None, limit=None):
        return []

    def bound(self, query_id: str) -> "NullEventLog":
        return self

    def __len__(self) -> int:
        return 0


#: Shared disabled log for default arguments.
NULL_EVENTS = NullEventLog()


def stitch_event_dicts(by_source: dict, label: str = "shard") -> List[dict]:
    """Interleave several nodes' event exports into one timeline.

    ``by_source`` maps a source key (e.g. shard index) to a list of
    :meth:`Event.to_dict` rows.  Events carry epoch timestamps precisely
    so they stitch across processes: the merged log is globally ordered
    by ``ts`` (ties broken by source key for determinism) and every row
    gains a ``{label: key}`` field naming the node it came from.

    >>> rows = stitch_event_dicts({
    ...     1: [{"type": "b", "ts": 2.0}],
    ...     0: [{"type": "a", "ts": 1.0}],
    ... })
    >>> [(r["type"], r["shard"]) for r in rows]
    [('a', 0), ('b', 1)]
    """
    stitched: List[dict] = []
    for key in sorted(by_source, key=str):
        for row in by_source[key]:
            tagged = dict(row)
            tagged[label] = key
            stitched.append(tagged)
    stitched.sort(key=lambda r: (r.get("ts", 0.0), str(r.get(label))))
    return stitched
