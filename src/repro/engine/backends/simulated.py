"""The simulated execution backend (Fig. 2's architecture, one core).

The master generates local search tasks and shuffles them evenly across
worker machines (the paper hands them to 16 reducers round-robin); each
worker executes its tasks against its shared database cache, on simulated
threads.  The job makespan is the slowest worker's makespan — exactly the
quantity Figs. 9 and 10 plot.

Telemetry: every run builds a fresh
:class:`~repro.telemetry.registry.MetricsRegistry`, populated at end-of-run
from the per-worker stats ledgers (so the default, hook-free path stays as
fast as before), and attaches the resulting snapshot to the result.  With
``config.telemetry`` set, the run additionally records a span tree
(codegen → task-generation → execution → per-worker spans), the simulated
schedule timeline, a DB payload-size histogram, and — with ``profile=True``
— sampled per-instruction timings from probes compiled into the plan.
"""

from __future__ import annotations

import time as _time
from array import array
from typing import Callable, List, Optional

from ...kernels.intersect import STATS as KERNEL_STATS, KernelStats
from ...plan.codegen import RESULTS, compile_plan
from ...storage.kvstore import DistributedKVStore
from ...telemetry.registry import DEFAULT_BYTES_BUCKETS, MetricsRegistry
from ...telemetry.snapshot import H_DB_QUERY_BYTES
from ..results import BenuResult
from ..sinks import block_emitter, row_blocks
from ..worker import Worker
from ...telemetry.events import EV_TASK_DISPATCHED, EV_TASK_FINISHED
from .base import (
    ExecutionBackend,
    ExecutionRequest,
    WorkerLedger,
    packs_rows,
    record_plan_prediction,
    record_run_gauges,
    record_worker_ledgers,
    resolve_tasks,
)


def build_store(request: ExecutionRequest) -> DistributedKVStore:
    """The request's store, building a fresh one when no owner handed one in."""
    if request.store is not None:
        return request.store
    config = request.config
    return DistributedKVStore.from_graph(
        request.graph,
        num_partitions=config.num_partitions,
        latency=config.latency,
        backend=config.adjacency_backend,
    )


def store_vset(store: DistributedKVStore, graph):
    """The V(G) operand in the store's adjacency layout."""
    if store.csr is not None:
        # A sorted view over the packed vertex-id array, so compiled
        # kernels can bounds-slice it like any row.
        return store.csr.universe()
    return frozenset(graph.vertices)


class SimulatedBackend(ExecutionBackend):
    """Deterministic single-core execution with simulated time."""

    name = "simulated"

    # ------------------------------------------------------------------
    def _make_runner(self, request: ExecutionRequest, mode, profiler, tracer):
        """Compile the plan (the inline backend overrides this to interpret)."""
        with tracer.span("codegen") as span:
            compiled = compile_plan(
                request.plan,
                mode=mode,
                instrument=True,
                profiler=profiler,
                backend=request.config.adjacency_backend,
            )
            span.args.update(
                mode=mode, source_lines=compiled.source.count("\n")
            )
        return compiled

    # ------------------------------------------------------------------
    def execute(self, request: ExecutionRequest) -> BenuResult:
        config = request.config
        plan = request.plan
        control = request.control
        telemetry = request.telemetry
        tracer = telemetry.tracer
        registry = MetricsRegistry()
        wall0 = _time.perf_counter()

        events = telemetry.events
        progress = request.progress

        store = build_store(request)
        vset = store_vset(store, request.graph)
        tasks = resolve_tasks(request, tracer)
        progress.set_total_tasks(len(tasks))

        mode = request.mode
        profiler = telemetry.make_profiler(registry)
        runner = self._make_runner(request, mode, profiler, tracer)

        collected: Optional[list] = (
            [] if config.collect and not request.streaming else None
        )
        # A streamed run that packs appends each task's matches to a flat
        # buffer (RES -> ``array.extend``) and hands the sink one row block
        # at the task boundary; any other run emits a tuple per RES.
        emit_block = None
        if request.streaming and packs_rows(request):
            emit_block = block_emitter(request.sink)
            width = plan.pattern.n
            emit: Optional[Callable] = None
        elif request.streaming:
            emit = request.sink.emit
        elif collected is not None:
            emit = collected.append
        else:
            emit = None

        if telemetry.enabled:
            payload_hist = registry.histogram(
                H_DB_QUERY_BYTES,
                help="payload size per distributed-store query",
                buckets=DEFAULT_BYTES_BUCKETS,
            )
            store.on_query = (
                lambda key, nbytes, cost: payload_hist.observe(nbytes)
            )
        kernel_base = KERNEL_STATS.as_tuple()
        worker_caches = request.worker_caches
        try:
            with tracer.span("execution") as exec_span:
                if worker_caches is not None and len(worker_caches) != config.num_workers:
                    raise ValueError(
                        f"need one cache per worker: got {len(worker_caches)} "
                        f"for {config.num_workers} workers"
                    )
                workers = [
                    Worker(
                        i,
                        store,
                        config,
                        tracer=tracer,
                        cache=worker_caches[i] if worker_caches else None,
                    )
                    for i in range(config.num_workers)
                ]
                # Round-robin shuffle, as the paper distributes tasks evenly.
                for i, task in enumerate(tasks):
                    if control is not None:
                        control.check()
                    worker = workers[i % len(workers)]
                    if events.enabled:
                        events.emit(
                            EV_TASK_DISPATCHED,
                            task_id=i,
                            worker=worker.worker_id,
                        )
                    if emit_block is None:
                        raw, sim = worker.execute_task(runner, task, vset, emit)
                    else:
                        rows = array("q")
                        raw, sim = worker.execute_task(
                            runner, task, vset, rows.extend
                        )
                        if rows:
                            for block in row_blocks(rows, width):
                                emit_block(block)
                    progress.task_done(embeddings=raw[RESULTS])
                    if events.enabled:
                        events.emit(
                            EV_TASK_FINISHED,
                            task_id=i,
                            worker=worker.worker_id,
                            embeddings=raw[RESULTS],
                            sim_seconds=sim,
                        )
                for w in workers:
                    tracer.add_span(
                        f"worker-{w.worker_id}",
                        wall_seconds=w.wall_seconds,
                        sim_seconds=w.busy_seconds,
                        category="execution",
                        track=f"worker-{w.worker_id}",
                        start=getattr(exec_span, "t0", None),
                        args={
                            "tasks": w.num_tasks,
                            "makespan_sim_seconds": w.makespan_seconds,
                            "cache_hit_rate": w.cache_stats.hit_rate,
                        },
                    )
                exec_span.args["tasks"] = len(tasks)
        finally:
            store.on_query = None
        KernelStats(**KERNEL_STATS.delta_since(kernel_base)).record_to(registry)

        ledgers: List[WorkerLedger] = [
            WorkerLedger(
                worker_id=str(w.worker_id),
                counters=w.total_counters(),
                query_stats=w.query_stats,
                cache_stats=w.cache_stats,
                num_tasks=w.num_tasks,
                task_sim_seconds=w.task_sim_seconds,
                busy_seconds=w.busy_seconds,
                wall_seconds=w.wall_seconds,
            )
            for w in workers
        ]
        totals = record_worker_ledgers(registry, ledgers)
        record_plan_prediction(registry, plan, totals["counters"])

        matches = None
        codes = None
        if collected is not None:
            if plan.compressed:
                codes = collected
            else:
                matches = collected

        makespan = max(w.makespan_seconds for w in workers)
        wall = _time.perf_counter() - wall0
        record_run_gauges(registry, makespan, wall, len(workers), totals["cache"])

        return BenuResult(
            plan=plan,
            count=totals["counters"].results,
            matches=matches,
            codes=codes,
            counters=totals["counters"],
            communication=totals["communication"],
            cache=totals["cache"],
            num_tasks=len(tasks),
            num_workers=len(workers),
            makespan_seconds=makespan,
            per_worker_busy_seconds=[w.busy_seconds for w in workers],
            per_task_sim_seconds=totals["per_task"],
            wall_seconds=wall,
            execution_backend=self.name,
            adjacency_backend=config.adjacency_backend,
            telemetry=telemetry.snapshot(registry),
        )
