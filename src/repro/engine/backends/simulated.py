"""The simulated execution backend (Fig. 2's architecture, one core).

The master generates local search tasks and shuffles them evenly across
worker machines (the paper hands them to 16 reducers round-robin); each
worker executes its tasks against its shared database cache, on simulated
threads.  The job makespan is the slowest worker's makespan — exactly the
quantity Figs. 9 and 10 plot.

The task loop keeps its books per *chunk* — a run of consecutive tasks
closed by counted work (:data:`CHUNK_WORK`) or by buffered rows — not per
task: a served query is a few hundred tasks of tens of microseconds, and
a control check, two events, a progress tick and a row flush per task
cost a quarter of its wall (see :meth:`SimulatedBackend._run_chunks`).

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

from ...plan.codegen import ENU_STEPS, INT_OPS, RESULTS, compile_plan
from ...storage.cache import CachePool
from ...telemetry.registry import DEFAULT_BYTES_BUCKETS, MetricsRegistry
from ...telemetry.snapshot import H_DB_QUERY_BYTES
from ..config import build_store
from ..sinks import BLOCK_ROWS, block_emitter, row_blocks
from ..worker import Worker
from ...telemetry.events import EV_TASK_DISPATCHED, EV_TASK_FINISHED
from .base import (
    ExecutionBackend,
    ExecutionRequest,
    WorkerLedger,
    finish_run,
    packs_rows,
    resolve_tasks,
)


#: Work after which a chunk of tasks closes.  A chunk is the unit of
#: bookkeeping of the in-process backends — one control check, one event
#: pair, one progress tick, one row flush — and its other cap is
#: ``BLOCK_ROWS`` buffered rows.  A task's work is the INT + ENU executions
#: it counted plus ``TASK_WORK`` for starting it at all (a start vertex
#: without candidates counts nothing, and a run of those must still close
#: its chunk).  The budget is a few milliseconds of compiled execution on
#: the reference box, so a cancel or a deadline is noticed within one
#: budget plus one task.
CHUNK_WORK = 20_000
TASK_WORK = 32


class SimulatedBackend(ExecutionBackend):
    """Deterministic single-core execution with simulated time."""

    name = "simulated"

    # ------------------------------------------------------------------
    def _make_runner(self, request: ExecutionRequest, mode, profiler, tracer):
        """Compile the plan (the inline backend overrides this to interpret)."""
        with tracer.span("codegen") as span:
            compiled = compile_plan(request.plan, mode=mode, profiler=profiler)
            span.args.update(
                mode=mode, source_lines=compiled.source.count("\n")
            )
        return compiled

    # ------------------------------------------------------------------
    @staticmethod
    def _run_chunks(request, tasks, workers, runner, vset, emit_block):
        """The task loop, with every piece of bookkeeping done per chunk.

        Tasks run in the global task order, task ``i`` on worker
        ``i % num_workers`` (round-robin, as the paper distributes tasks
        evenly).  A *chunk* is a run of consecutive tasks: it closes once
        the work its tasks counted reaches :data:`CHUNK_WORK`, or once its
        row buffer holds :data:`~repro.engine.sinks.BLOCK_ROWS` rows — so
        where the boundaries fall is a pure function of (graph, plan), a
        heavy task is its own chunk, and buffered rows stay bounded.  RES
        flattens each match into a list (``extend``); when the run
        ``packs_rows`` that list is packed into the chunk's
        ``array('q')`` once per task (one ``fromlist``) and cleared, and
        ``emit_block`` — None when the run has no sink — gets the buffer
        as row blocks.  The control is
        checked, the ``task_dispatched``/``task_finished`` events emitted,
        the progress ticked and the row buffer flushed once per chunk; a
        LIMIT its rows filled ends the loop at the next boundary.  A stop
        that lands in the final chunk finds every task run and every row
        delivered, and the result stands.
        """
        control = request.control
        events = request.telemetry.events
        progress = request.progress
        cost_model = request.config.cost_model
        width = request.plan.pattern.n
        row_cap = BLOCK_ROWS * width
        num_workers = len(workers)
        num_tasks = len(tasks)
        pack = packs_rows(request)

        def db_seconds() -> float:
            return sum(w.query_stats.simulated_seconds for w in workers)

        i = 0
        while i < num_tasks:
            if control is not None:
                control.check()
                if control.limit_reached:
                    break
            first = i
            if events.enabled:
                events.emit(EV_TASK_DISPATCHED, task_id=first)
                db_before = db_seconds()
            rows = array("q") if pack else []
            staged = [] if pack else rows
            emit = staged.extend if emit_block is not None else None
            raws = []
            work = 0
            while i < num_tasks:
                raw = workers[i % num_workers].execute_task(
                    runner, tasks[i], vset, emit
                )
                if pack and staged:
                    rows.fromlist(staged)
                    staged.clear()
                i += 1
                raws.append(raw)
                work += raw[INT_OPS] + raw[ENU_STEPS] + TASK_WORK
                if work >= CHUNK_WORK or len(rows) >= row_cap:
                    break
            if rows:
                for block in row_blocks(rows, width):
                    emit_block(block)
            totals = tuple(map(sum, zip(*raws)))
            progress.task_done(embeddings=totals[RESULTS], tasks=i - first)
            if events.enabled:
                events.emit(
                    EV_TASK_FINISHED,
                    task_id=first,
                    tasks=i - first,
                    embeddings=totals[RESULTS],
                    sim_seconds=cost_model.task_seconds(
                        totals, db_seconds() - db_before
                    ),
                )

    # ------------------------------------------------------------------
    def _execute(self, request: ExecutionRequest):
        config = request.config
        telemetry = request.telemetry
        tracer = telemetry.tracer
        registry = MetricsRegistry()
        wall0 = _time.perf_counter()

        store = request.store
        if store is None:
            store = build_store(request.graph, config)
        vset = frozenset(request.graph.vertices)
        tasks = resolve_tasks(request, tracer)
        request.progress.set_total_tasks(len(tasks))

        mode = request.mode
        profiler = telemetry.make_profiler(registry)
        runner = self._make_runner(request, mode, profiler, tracer)

        emit_block = (
            block_emitter(request.sink) if request.sink is not None else None
        )
        if telemetry.enabled:
            payload_hist = registry.histogram(
                H_DB_QUERY_BYTES,
                help="payload size per distributed-store query",
                buckets=DEFAULT_BYTES_BUCKETS,
            )
            store.on_query = (
                lambda key, nbytes, cost: payload_hist.observe(nbytes)
            )
        worker_caches = request.worker_caches
        try:
            with tracer.span("execution") as exec_span:
                if worker_caches is None:
                    worker_caches = CachePool(
                        store,
                        config.num_workers,
                        capacity_bytes=config.cache_capacity_bytes,
                        policy=config.cache_policy,
                    ).caches
                elif len(worker_caches) != config.num_workers:
                    raise ValueError(
                        f"need one cache per worker: got {len(worker_caches)} "
                        f"for {config.num_workers} workers"
                    )
                workers = [
                    Worker(i, cache, config, tracer=tracer)
                    for i, cache in enumerate(worker_caches)
                ]
                self._run_chunks(
                    request, tasks, workers, runner, vset, emit_block
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
        ledgers = [
            WorkerLedger(
                worker_id=str(w.worker_id),
                counters=w.total_counters(),
                query_stats=w.query_stats,
                cache_stats=w.cache_stats,
                num_tasks=w.num_tasks,
                task_sim_seconds=w.task_sim_seconds,
                busy_seconds=w.busy_seconds,
                makespan_seconds=w.makespan_seconds,
                wall_seconds=w.wall_seconds,
            )
            for w in workers
        ]
        return finish_run(
            request, registry, ledgers, len(tasks), wall0, self.name
        )
