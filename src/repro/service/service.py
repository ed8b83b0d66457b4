"""BenuService: the resident, concurrent subgraph-query engine.

One service instance owns the shared state every query reuses — the
graph catalog, the canonical plan cache, the scheduler and a telemetry
registry — and exposes the in-process API the CLI's ``serve`` command,
the tests and the benchmarks all drive:

    service = BenuService()
    service.register_graph("g", my_graph)
    handle = service.submit("triangle", "g")
    for match in handle.matches():
        ...

Queries run on the scheduler's worker pool; each one pins its catalog
entry, checks out a warm cache pool, resolves its plan through the
cache, executes with a cooperative control (deadline + cancel, checked
at task boundaries) and streams matches — translated to original ids —
through a bounded buffer.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import replace as _replace
from typing import Dict, Optional, Union

from ..engine.cluster import SimulatedCluster
from ..engine.config import BenuConfig
from ..engine.control import (
    DeadlineExpired,
    ExecutionControl,
    QueryCancelled,
)
from ..engine.sinks import LimitSink
from ..faults import get_injector, resolve_faults
from ..graph.graph import Graph
from ..graph.patterns import get_pattern
from ..lang.errors import QuerySemanticError
from ..lang.lowering import LoweredQuery, lower_query
from ..lang.run import execute_query
from ..pattern.pattern_graph import PatternGraph
from ..telemetry.events import (
    EV_FAULT_INJECTED,
    EV_PLAN_LOWERED,
    EV_PLAN_RESOLVED,
    EV_QUERY_CANCELLED,
    EV_QUERY_FINISHED,
    EV_QUERY_QERROR,
    EV_QUERY_REJECTED,
    EV_QUERY_STARTED,
    EV_QUERY_SUBMITTED,
    EV_SLOW_QUERY,
    EventLog,
    FileEventSink,
)
from ..telemetry.progress import QueryProgress
from ..telemetry.registry import MetricsRegistry
from ..telemetry.runtime import Telemetry
from ..telemetry.snapshot import (
    H_QUERY_QERROR,
    H_QUERY_WALL_SECONDS,
    M_FAULTS_INJECTED,
    M_LANG_RULES,
    M_SERVICE_QUERIES,
    QERROR_BUCKETS,
)
from .catalog import GraphCatalog
from .errors import InvalidQueryError, UnknownQueryError
from .plan_cache import PlanCache
from .scheduler import QueryScheduler, WorkerSlotPool
from .streaming import QueryHandle, QueryStatus, StreamBuffer

PatternLike = Union[str, Graph, PatternGraph]

#: Rough per-match buffer cost used by memory admission (tuple of ints).
_BYTES_PER_MATCH_SLOT = 8


class BenuService:
    """A long-lived query service over registered data graphs."""

    def __init__(
        self,
        config: Optional[BenuConfig] = None,
        max_concurrent: int = 4,
        max_queued: int = 16,
        memory_budget_bytes: Optional[int] = None,
        catalog_capacity_bytes: Optional[int] = None,
        batch_size: int = 256,
        max_buffered_batches: int = 64,
        max_worker_processes: Optional[int] = None,
        event_log_capacity: int = 4096,
        event_log_path: Optional[str] = None,
        slow_query_seconds: Optional[float] = None,
    ) -> None:
        self.default_config = config or BenuConfig()
        self.batch_size = batch_size
        self.max_buffered_batches = max_buffered_batches
        self.registry = MetricsRegistry()
        #: The service flight recorder: every query's lifecycle, ring-
        #: buffered in memory, optionally mirrored to a JSONL file.
        self.events = EventLog(
            capacity=event_log_capacity, registry=self.registry
        )
        self._event_file_sink: Optional[FileEventSink] = None
        if event_log_path is not None:
            self._event_file_sink = FileEventSink(event_log_path)
            self.events.add_sink(self._event_file_sink)
        #: Wall-time threshold past which a query lands in the slow-query
        #: log (None = disabled).
        self.slow_query_seconds = slow_query_seconds
        self._slow_queries: "deque" = deque(maxlen=32)
        #: One deterministic fault injector for the whole service, built
        #: from the default config (or the BENU_FAULTS env var).  When no
        #: schedule is configured this is the no-op NULL_INJECTOR and
        #: every site's guard is a single attribute check.
        self.injector = get_injector(
            resolve_faults(self.default_config.faults),
            on_fire=self._on_fault_fired,
        )
        self.plan_cache = PlanCache(registry=self.registry)
        # A replaced or evicted graph's plans can never hit again.
        self.catalog = GraphCatalog(
            capacity_bytes=catalog_capacity_bytes,
            registry=self.registry,
            events=self.events,
            injector=self.injector,
            on_retire=self.plan_cache.forget,
        )
        self.scheduler = QueryScheduler(
            max_concurrent=max_concurrent,
            max_queued=max_queued,
            memory_budget_bytes=memory_budget_bytes,
            registry=self.registry,
            injector=self.injector,
        )
        # Machine-wide cap on OS worker processes, shared by every
        # process-backend query in flight (not a per-query allowance).
        self.worker_slots = WorkerSlotPool(
            max_worker_processes
            if max_worker_processes is not None
            else max(2, os.cpu_count() or 2)
        )
        self._queries: Dict[str, QueryHandle] = {}
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False

    def _on_fault_fired(self, site: str, action: str, hit: int) -> None:
        """Every injected fault is a first-class lifecycle event."""
        self.events.emit(
            EV_FAULT_INJECTED, site=site, action=action, hit=hit
        )
        self.registry.counter(
            M_FAULTS_INJECTED, "deterministic faults injected", ("site",)
        ).inc(site=site)

    # ------------------------------------------------------------- catalog
    def register_graph(
        self,
        name: str,
        graph: Graph,
        relabel: bool = True,
        replace: bool = False,
        partition=None,
        labels=None,
    ) -> dict:
        """Register a data graph; relabeling and store builds happen once.

        ``partition`` (a :class:`~repro.storage.partition.PartitionInfo`)
        registers the graph as one shard's slice of a sharded deployment:
        queries enumerate only the owned start vertices, so N shards
        holding the same graph under complementary partitions cover the
        single-node match set exactly, disjointly.  ``labels`` (vertex →
        label, original ids) gives the graph vertex labels for BENU-QL
        label predicates.
        """
        entry = self.catalog.register(
            name, graph, relabel=relabel, replace=replace,
            partition=partition, labels=labels,
        )
        out = {
            "graph": name,
            "vertices": entry.graph.num_vertices,
            "edges": entry.graph.num_edges,
            "relabeled": entry.prepared.relabeled,
            "labeled": entry.prepared.label_index is not None,
        }
        if entry.partition is not None:
            out["partition"] = {
                **entry.partition.to_dict(),
                "owned_vertices": len(entry.owned_start_vertices()),
            }
        return out

    # ------------------------------------------------------------- queries
    def _resolve_pattern(self, pattern: PatternLike) -> PatternGraph:
        if isinstance(pattern, PatternGraph):
            return pattern
        if isinstance(pattern, Graph):
            return PatternGraph(pattern, name="pattern")
        if isinstance(pattern, str):
            return PatternGraph(get_pattern(pattern), name=pattern)
        raise InvalidQueryError(
            f"pattern must be a name, Graph or PatternGraph, not {type(pattern).__name__}"
        )

    def submit(
        self,
        pattern: PatternLike,
        graph: str,
        config: Optional[BenuConfig] = None,
        stream: bool = True,
        limit: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        deadline_at: Optional[float] = None,
        lowered: Optional[LoweredQuery] = None,
    ) -> QueryHandle:
        """Admit a query; returns its handle or raises a typed error.

        ``stream=True`` delivers matches through the handle (bounded
        memory, pagination); ``stream=False`` runs a count-only query
        whose ``handle.result()`` carries the totals.  ``limit`` caps
        delivered matches and stops the run early; ``deadline_seconds``
        arms a wall-clock deadline covering queue time and execution.
        ``deadline_at`` is the absolute form (epoch seconds) a deadline
        takes across hops: a router stamps one global deadline and every
        shard debits the same budget — time already spent upstream, and
        time this query will spend parked in the local queue, all count.
        An exhausted budget fast-rejects synchronously.  Both given, the
        earlier wins.  ``lowered`` (a BENU-QL :class:`LoweredQuery`,
        normally via :meth:`submit_query`) threads label pools,
        projection and grouping through the run.
        """
        if self._closed:
            from .errors import ServiceClosedError

            raise ServiceClosedError("service is shut down")
        pattern_graph = self._resolve_pattern(pattern)
        query_config = config or self.default_config
        if stream and query_config.compressed:
            raise InvalidQueryError(
                "streaming delivers full matches; compressed codes are "
                "count-only (submit with stream=False)"
            )
        if limit is not None and limit < 0:
            raise InvalidQueryError("limit must be non-negative")
        # Fail fast on unknown graphs — before taking a scheduler slot.
        self.catalog.get(graph)

        control = ExecutionControl(
            deadline_seconds=deadline_seconds, deadline_at=deadline_at
        )
        buffer: Optional[StreamBuffer] = None
        estimated_bytes = 0
        if stream:
            buffer = StreamBuffer(
                batch_size=self.batch_size,
                max_batches=self.max_buffered_batches,
                control=control,
            )
            estimated_bytes = (
                self.batch_size
                * self.max_buffered_batches
                * pattern_graph.n
                * _BYTES_PER_MATCH_SLOT
            )

        with self._lock:
            self._seq += 1
            query_id = f"q-{self._seq}"
        handle = QueryHandle(
            query_id,
            pattern_name=pattern_graph.name,
            graph_name=graph,
            control=control,
            buffer=buffer,
            limit=limit,
        )
        handle.progress = QueryProgress()
        if lowered is not None:
            handle.lang_kind = lowered.kind
            handle.lang_columns = lowered.columns
        self.events.emit(
            EV_QUERY_SUBMITTED,
            query_id=query_id,
            pattern=pattern_graph.name,
            graph=graph,
            stream=stream,
            limit=limit,
            deadline_seconds=deadline_seconds,
        )

        try:
            future = self.scheduler.submit(
                lambda: self._run_query(
                    handle, pattern_graph, query_config, lowered
                ),
                estimated_bytes=estimated_bytes,
                deadline_at=control.deadline_at,
            )
        except Exception as exc:
            self.events.emit(
                EV_QUERY_REJECTED, query_id=query_id, reason=str(exc)
            )
            raise
        handle.future = future
        with self._lock:
            self._queries[query_id] = handle
        return handle

    def submit_query(
        self,
        text: str,
        graph: str,
        config: Optional[BenuConfig] = None,
        limit: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
        deadline_at: Optional[float] = None,
    ) -> QueryHandle:
        """Admit a BENU-QL query (text in, handle out).

        The text is parsed, optimized through the rule-based logical
        optimizer and lowered onto the same plan pipeline ``submit``
        uses; the result shape follows the query's RETURN clause —
        matches stream through the handle, ``COUNT(*)`` runs count-only,
        ``GROUP BY`` lands in ``handle.lang_groups``.  Syntax/semantic
        problems raise :class:`~repro.lang.QuerySyntaxError` /
        :class:`~repro.lang.QuerySemanticError` synchronously, before a
        scheduler slot is taken.
        """
        lowered = lower_query(text)
        if lowered.is_labeled:
            # Fail fast, synchronously: label predicates need a labeled
            # registration (register_graph(..., labels=...)).
            if self.catalog.get(graph).prepared.label_index is None:
                raise QuerySemanticError(
                    f"query uses label predicates but graph {graph!r} was "
                    "registered without labels"
                )
        handle = self.submit(
            lowered.pattern,
            graph,
            config=config,
            stream=lowered.kind == "stream",
            limit=limit,
            deadline_seconds=deadline_seconds,
            deadline_at=deadline_at,
            lowered=lowered,
        )
        self.events.emit(
            EV_PLAN_LOWERED,
            query_id=handle.query_id,
            text=text,
            kind=lowered.kind,
            labeled=lowered.is_labeled,
            unsatisfiable=lowered.unsatisfiable,
            rules=list(lowered.rules_fired),
            logical_size=lowered.logical_size,
        )
        if lowered.rules_fired:
            counter = self.registry.counter(
                M_LANG_RULES,
                "BENU-QL logical-optimizer rule firings",
                ("rule",),
            )
            for rule in lowered.rules_fired:
                counter.inc(rule=rule)
        return handle

    # ------------------------------------------------------------------
    def _run_query(
        self,
        handle: QueryHandle,
        pattern: PatternGraph,
        config: BenuConfig,
        lowered: Optional[LoweredQuery] = None,
    ) -> None:
        control = handle.control
        buffer = handle.buffer
        t0 = time.perf_counter()
        status = QueryStatus.FAILED
        entry = None
        pool_key = pool = None
        granted_workers = 0
        events = self.events.bound(handle.query_id)
        telemetry = Telemetry(events=events)
        result = None
        try:
            handle._mark(QueryStatus.RUNNING)
            events.emit(EV_QUERY_STARTED)
            control.check()  # queued past the deadline → never runs
            entry = self.catalog.pin(handle.graph_name)
            plan, outcome = self.plan_cache.get_or_build(
                pattern, entry.prepared, entry.registration, config
            )
            events.emit(
                EV_PLAN_RESOLVED,
                outcome=outcome,
                order=[str(v) for v in plan.order],
            )
            control.check()

            sink = None
            if buffer is not None:
                sink = (
                    LimitSink(buffer, handle.limit, control)
                    if handle.limit is not None
                    else buffer
                )
            runtime = dict(
                telemetry=telemetry,
                control=control,
                progress=handle.progress,
            )
            if config.execution_backend == "process":
                # The cap is on *total* worker processes across all
                # in-flight queries: block until slots free up, and
                # run with however many this query was granted.
                granted_workers = self.worker_slots.acquire(
                    config.num_workers, control=control
                )
                config = _replace(config, num_workers=granted_workers)
            else:
                pool_key, pool = entry.checkout_pool(config)
                runtime["worker_caches"] = pool.caches
                runtime["cluster"] = SimulatedCluster(
                    entry.prepared.graph,
                    config,
                    telemetry=telemetry,
                    store=entry.store_for(config),
                )
            # The cached plan carries no candidate pools: they are
            # bound per run, outside the cache.  A partitioned entry
            # runs only this shard's slice of the start vertices.
            result, handle.lang_groups = execute_query(
                lowered or pattern,
                plan,
                entry.prepared,
                config,
                start_vertices=entry.owned_start_vertices(),
                sink=sink,
                **runtime,
            )
            handle._result = result
            handle.truncated = control.limit_reached
            status = QueryStatus.SUCCEEDED
        except QueryCancelled as exc:
            handle.error = exc
            status = QueryStatus.CANCELLED
        except DeadlineExpired as exc:
            handle.error = exc
            status = QueryStatus.DEADLINE_EXPIRED
        except BaseException as exc:  # noqa: BLE001 — reported, not swallowed
            handle.error = exc
            status = QueryStatus.FAILED
        finally:
            if granted_workers:
                self.worker_slots.release(granted_workers)
            if pool is not None and entry is not None:
                entry.checkin_pool(pool_key, pool)
            if entry is not None:
                self.catalog.unpin(entry)
                if entry.retired:
                    # Retired mid-query: drop what this query cached.
                    self.plan_cache.forget(entry.registration)
            wall = time.perf_counter() - t0
            self.registry.counter(
                M_SERVICE_QUERIES, "queries by final status", ("status",)
            ).inc(status=status.value)
            self.registry.histogram(
                H_QUERY_WALL_SECONDS,
                help="wall-clock seconds per service query",
                labels=("status",),
            ).observe(wall, status=status.value)
            try:
                # Account before marking: a caller woken by ``wait()``
                # finds its slow-query entry and finish event in place.
                self._account_query(handle, result, status, wall, events)
            finally:
                # Status before close: consumers at end-of-stream must
                # see a final state (and any error) the moment the
                # stream ends.
                handle._mark(status)
                if buffer is not None:
                    buffer.close()
        return None

    def _account_query(
        self, handle, result, status, wall: float, events
    ) -> None:
        """End-of-query observability: q-error, slow-query log, finish event.

        Isolated so a reporting hiccup can never change a query's
        outcome; runs before the handle is marked and the stream closed,
        so whoever waits on the handle reads the accounts complete.
        """
        # A LIMIT's counters stop at its cut: no estimate to grade.
        q_errors = (
            result.telemetry.q_errors
            if result is not None and not handle.truncated
            else {}
        )
        if q_errors:
            qerr_hist = self.registry.histogram(
                H_QUERY_QERROR,
                help="per-query cost-model q-error by instruction type",
                labels=("instr",),
                buckets=QERROR_BUCKETS,
            )
            for instr, qe in q_errors.items():
                qerr_hist.observe(qe, instr=instr)
            events.emit(
                EV_QUERY_QERROR,
                q_errors=q_errors,
                predicted=result.telemetry.predicted_counts,
                actual=result.telemetry.instruction_counts,
            )
        events.emit(
            EV_QUERY_FINISHED,
            status=status.value,
            wall_seconds=wall,
            delivered=handle.delivered,
            truncated=handle.truncated,
        )
        threshold = self.slow_query_seconds
        if threshold is not None and wall > threshold:
            entry = {
                "query_id": handle.query_id,
                "pattern": handle.pattern_name,
                "graph": handle.graph_name,
                "status": status.value,
                "wall_seconds": wall,
                "threshold_seconds": threshold,
                "instruction_counts": (
                    result.telemetry.instruction_counts
                    if result is not None
                    else {}
                ),
                "q_errors": q_errors,
            }
            self._slow_queries.append(entry)
            events.emit(EV_SLOW_QUERY, **entry)

    # ------------------------------------------------------------------
    def query(self, query_id: str) -> QueryHandle:
        with self._lock:
            handle = self._queries.get(query_id)
        if handle is None:
            raise UnknownQueryError(f"unknown query {query_id!r}")
        return handle

    def cancel(self, query_id: str, reason: str = "cancelled by client") -> QueryHandle:
        handle = self.query(query_id)
        self.events.emit(EV_QUERY_CANCELLED, query_id=query_id, reason=reason)
        handle.cancel(reason)
        return handle

    def queries(self) -> Dict[str, QueryHandle]:
        with self._lock:
            return dict(self._queries)

    def stats(self) -> dict:
        """A JSON-friendly snapshot of the service's telemetry."""
        statuses: Dict[str, int] = {}
        with self._lock:
            for handle in self._queries.values():
                statuses[handle.status.value] = (
                    statuses.get(handle.status.value, 0) + 1
                )
        return {
            "graphs": self.catalog.names(),
            "catalog_bytes": self.catalog.memory_bytes(),
            "plan_cache": {
                "entries": len(self.plan_cache),
                "hits": self.plan_cache.hits,
                "misses": self.plan_cache.misses,
            },
            "scheduler": {
                "running": self.scheduler.running,
                "queued": self.scheduler.queued,
                "max_concurrent": self.scheduler.max_concurrent,
                "max_queued": self.scheduler.max_queued,
            },
            "execution": {
                "default_backend": self.default_config.execution_backend,
                "worker_processes_in_use": self.worker_slots.in_use,
                "max_worker_processes": self.worker_slots.max_workers,
            },
            "queries": statuses,
            "progress": {
                handle.query_id: handle.progress.describe()
                for handle in self.queries().values()
                if handle.progress is not None and not handle.done
            },
            "events": {
                "emitted": self.events.emitted,
                "retained": len(self.events),
                "dropped": self.events.dropped,
            },
            "slow_queries": list(self._slow_queries),
            "faults": {
                "enabled": self.injector.enabled,
                "injected": self.injector.fired_count,
            },
            "metrics": self.registry.as_dict(),
        }

    def close(self, cancel_running: bool = True) -> None:
        """Shut down: stop admitting, optionally cancel in-flight queries."""
        self._closed = True
        if cancel_running:
            with self._lock:
                handles = list(self._queries.values())
            for handle in handles:
                if not handle.done:
                    handle.cancel("service shutting down")
        self.scheduler.shutdown(wait=True)
        if self._event_file_sink is not None:
            self._event_file_sink.close()
            self._event_file_sink = None

    def __enter__(self) -> "BenuService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
