"""The process execution backend: real cores, full feature parity.

Fans local search tasks out over OS processes — the closest a single
machine gets to the paper's 16-worker deployment — while keeping the
whole engine contract: enumeration streams through the ordinary sink
pipeline, cancellation and deadlines interrupt at task boundaries, and
the result's telemetry snapshot uses the same metric names the simulated
backend emits.

Design notes
------------
* One process per worker; compiled closures cannot be pickled, so each
  worker compiles the plan in its initializer.
* Workers inherit, at fork (copy-on-write pages), the graph's neighbour
  frozensets — whatever ``adjacency_backend`` says; it only prices rows
  for the simulated store's cache — and the parent's resolved task list,
  split tasks' ``candidate_slice`` frozensets included, so a task visits
  its candidates in the parent's order.  (Without ``fork`` the
  initializer's arguments are pickled, and a frozenset rebuilt from a
  pickle may iterate differently: only fork runs are order-identical.)
* Tasks flow through a work queue (``imap_unordered`` with a small
  chunksize) instead of static round-robin chunks, so a worker that drew
  cheap tasks keeps pulling while another grinds through a hub vertex.
  One chunk rule: a fixed number of pulls per worker
  (:meth:`ProcessBackend._chunksize`); task splitting (τ) already bounds
  the cost of any one task.  A chunk crosses the process boundary as two
  ints, a ``(base, stop)`` range of the inherited task list.
* Everything a worker learned in one queue pull comes home as one flat
  *chunk record*: the tasks' counters as one ``array('q')``, their wall
  seconds as one ``array('d')``, and the chunk's matches as one flat
  buffer of fixed-width rows that RES extends.  For uncompressed
  int-vertex plans (``packs_rows``) the buffer is an ``array('q')`` and
  serialization collapses to a buffer copy (~70x faster than per-tuple
  pickle opcodes); otherwise (compressed codes, non-int ids) a plain
  list.  The parent hands the buffer to the sink as
  :class:`~repro.engine.sinks.RowBlock` objects (a skewed chunk's buffer
  is cut into blocks of bounded size first); a row never becomes a tuple
  on the way.
* Records are delivered in task order: a reorder buffer that outlives
  retry pools holds early arrivals, so the sink sees every other
  backend's row sequence and a LIMIT keeps the same prefix.
* Control is threaded across the boundary as a shared ``Event``: the
  parent polls its :class:`~repro.engine.control.ExecutionControl` while
  draining results and trips the event on cancel, deadline or a reached
  LIMIT; workers check it at every task boundary and skip the remaining
  work.  A pool left early is never terminated with results in flight
  (``Pool.terminate()`` can deadlock mid-write): the parent keeps
  draining, and discarding, until the workers have reported what they
  owe, then closes and joins (``_retire_pool``).
* Progress and lifecycle events are per delivered chunk record: one
  ``task_dispatched`` per chunk at enqueue, one ``task_finished`` — its
  first task id, how many tasks, their summed embeddings — on delivery.
* DB/cache accounting: every worker owns the whole graph locally, so the
  ledgers record zero distributed-store queries and every adjacency
  lookup as a cache hit — same metric names, values reflecting this
  backend's reality.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time as _time
from array import array
from typing import Dict, List, Optional, Tuple, Union

from ...faults import (
    InjectedFault,
    NULL_INJECTOR,
    SITE_WORKER_IPC,
    SITE_WORKER_TASK,
    get_injector,
    resolve_faults,
)
from ...plan.codegen import (
    COUNTER_FIELDS,
    RESULTS,
    TaskCounters,
    compile_plan,
)
from ...storage.cache import CacheStats
from ...telemetry.events import (
    EV_TASK_DISPATCHED,
    EV_TASK_FINISHED,
    EV_TASK_RETRIED,
    EV_WORKER_CRASHED,
)
from ...telemetry.registry import MetricsRegistry
from ...telemetry.snapshot import M_TASK_RETRIES, M_WORKER_CRASHES
from ..sinks import block_emitter, row_blocks
from .base import (
    ExecutionBackend,
    ExecutionRequest,
    ShmAttachStats,
    WorkerLedger,
    finish_run,
    mirror,
    packs_rows,
    resolve_tasks,
)

#: What one chunk of tasks sends home: (pid, counters, wall seconds,
#: matches|None).  ``counters`` is one flat ``array('q')``,
#: ``len(COUNTER_FIELDS)`` per executed task in task order (a stop
#: skips the chunk's tail); ``wall seconds`` one ``array('d')`` entry per
#: executed task.  In collect mode the matches slot is one flat buffer of
#: fixed-width rows (a task's row count is its ``results`` counter): an
#: ``array('q')`` when the run packs, a list otherwise.  When the parent
#: traces, one trailing element is appended — a list of wire-format span
#: dicts (see ``span_to_wire``) recorded in the worker — so the untraced
#: record stays an exact 4-tuple (zero extra IPC bytes when telemetry is
#: off).
_ChunkRecord = Tuple[int, array, array, Union[array, list, None]]

_NUM_COUNTERS = len(COUNTER_FIELDS)

#: Queue pulls per worker: enough for a worker that drew cheap tasks to
#: keep pulling while a peer grinds through a hub vertex.
PULLS_PER_WORKER = 8

#: One queue pull: the ``[base, stop)`` range of the inherited task list.
_TaskChunk = Tuple[int, int]

# Globals populated inside each worker process by the pool initializer.
_worker_state: dict = {}

#: Exit code an injected ``crash`` uses inside a pool worker — distinct
#: from 0 (normal / maxtasksperchild recycle) and negative signal codes,
#: so the parent's dead-worker scan attributes it unambiguously.
_CRASH_EXIT_CODE = 70


class WorkerCrashed(RuntimeError):
    """A pool worker died and the retry budget could not recover the query.

    Raised by the process backend after ``config.task_retries`` fresh-pool
    re-executions still left task slices unacknowledged.  Carries the
    dead workers seen (pid → exit code) and the ids of the lost tasks.
    """

    code = "worker_crashed"

    def __init__(self, dead: dict, lost_tasks: list, attempts: int) -> None:
        names = ", ".join(
            f"pid {pid} (exit {code})" for pid, code in sorted(dead.items())
        ) or "worker"
        super().__init__(
            f"{len(lost_tasks)} task(s) lost to crashed {names}; "
            f"gave up after {attempts} attempt(s)"
        )
        self.dead = dict(dead)
        self.lost_tasks = list(lost_tasks)
        self.attempts = attempts


def _init_worker(
    plan, graph, mode: str, cancel_event, tasks,
    trace: bool = False, pack: bool = False, faults=None, fault_attempt: int = 0,
) -> None:
    """Build per-process state: compiled plan + adjacency access + control.

    ``graph`` is the data :class:`Graph` and ``tasks`` the parent's
    resolved task list, both inherited via fork: the graph's neighbour
    frozensets are the rows every task reads, and a queue pull names a
    range of ``tasks``.

    ``pack`` picks the flat match buffer of collect mode: an
    ``array('q')`` (uncompressed int-vertex plans only — the parent
    decides eligibility once) or a list.

    With ``trace`` on, the initializer times itself and parks the span
    (wire format, absolute ``perf_counter`` instants — fork children
    share the parent's monotonic epoch) for the first chunk record to
    carry home; the parent stitches it under a per-pid process track.
    """
    t0 = _time.perf_counter() if trace else 0.0
    _worker_state.clear()
    _worker_state["compiled"] = compile_plan(plan, mode=mode, instrument=True)
    _worker_state["get_adj"] = graph.adjacency().__getitem__
    _worker_state["vset"] = frozenset(graph.vertices)
    _worker_state["tasks"] = tasks
    _worker_state["collect"] = mode == "collect"
    _worker_state["pack"] = pack
    _worker_state["cancel"] = cancel_event
    _worker_state["trace"] = trace
    # Deterministic fault injection: each worker replays the schedule
    # against its own per-site hit counters; ``fault_attempt`` scopes
    # rules to recovery attempts (a retry pool runs attempt-0 rules
    # clean).  A ``crash`` rule hard-kills the process in a pool worker
    # (the recovery path under test); inline it degrades to raising.
    _worker_state["injector"] = get_injector(faults, attempt=fault_attempt)
    _worker_state["crash"] = (
        (lambda: os._exit(_CRASH_EXIT_CODE)) if cancel_event is not None else None
    )
    if trace:
        _worker_state["pending_spans"] = [
            {
                "name": "worker-init",
                "t0": t0,
                "t1": _time.perf_counter(),
                "category": "worker",
                "args": {"mode": mode},
            }
        ]


def _run_tasks(base: int, stop: int) -> _ChunkRecord:
    """Execute tasks ``[base, stop)`` of the inherited list; return their
    one flat record.

    Once the shared cancel event trips — the task-boundary check of
    cooperative control — the remaining tasks are skipped and the record
    covers only those that ran.
    """
    state = _worker_state
    cancel = state["cancel"]
    injector = state.get("injector", NULL_INJECTOR)
    crash = state.get("crash")
    run = state["compiled"].run_raw
    get_adj = state["get_adj"]
    vset = state["vset"]
    matches = emit_cb = None
    if state["collect"]:
        # Flat fixed-width rows: RES's tuple extends the buffer.  An int64
        # array pickles as one machine-format byte string instead of
        # per-value opcodes.
        matches = array("q") if state["pack"] else []
        emit_cb = matches.extend
    spans = None
    if state["trace"]:
        # Whatever spans are parked (the init span) ride this record out,
        # followed by one span per task.
        spans = state.get("pending_spans") or []
        state["pending_spans"] = []
    counters = array("q")
    walls = array("d")
    for task in state["tasks"][base:stop]:
        if cancel is not None and cancel.is_set():
            break
        if injector.enabled:
            injector.hit(SITE_WORKER_TASK, crash=crash)
        t0 = _time.perf_counter()
        raw = run(
            task.start,
            get_adj,
            vset=vset,
            emit=emit_cb,
            tcache={},
            candidate_override=task.candidate_slice,
        )
        t1 = _time.perf_counter()
        counters.extend(raw)
        walls.append(t1 - t0)
        if spans is not None:
            spans.append(
                {
                    "name": f"task[{task.start}]",
                    "t0": t0,
                    "t1": t1,
                    "category": "task",
                    "args": {"results": raw[RESULTS]},
                }
            )
    record = (os.getpid(), counters, walls, matches)
    return record if spans is None else record + (spans,)


def _run_chunk(chunk: _TaskChunk) -> Tuple[int, Union[_ChunkRecord, str]]:
    """One queue pull's worth of tasks, shipped home as one record.

    Chunking contract: the parent builds explicit ``(base, stop)`` chunks
    and submits them with ``imap_unordered(..., chunksize=1)`` — one
    *pool* task per chunk.  Batching via the pool's own ``chunksize``
    would swap the timeout-pollable result iterator for a plain generator
    and stall the parent's 0.1 s control-poll cadence; doing it here
    keeps that cadence while IPC is still amortized over the chunk.  The
    chunk's base index rides home so the parent can put chunks that
    complete out of order back into task order, and every record is
    self-contained, so a pool that restarts its workers (e.g.
    ``maxtasksperchild``) can neither drop nor double-count one.
    """
    base, stop = chunk
    injector = _worker_state.get("injector", NULL_INJECTOR)
    try:
        out = _run_tasks(base, stop)
        if injector.enabled:
            # The IPC-send site: an injected error here simulates a result
            # message lost between a finished worker and the parent.
            injector.hit(SITE_WORKER_IPC, crash=_worker_state.get("crash"))
    except InjectedFault as exc:
        # The chunk's work is lost.  Ship a lost-chunk marker (a plain
        # string — healthy chunks keep their exact wire shape) so the
        # parent leaves the chunk pending for the retry pass.
        return base, str(exc)
    return base, out


class ProcessBackend(ExecutionBackend):
    """Fan a plan's local search tasks over OS processes."""

    name = "process"

    def __init__(
        self,
        queue_chunksize: Optional[int] = None,
        maxtasksperchild: Optional[int] = None,
    ) -> None:
        #: Tasks handed to a worker per queue pull; small values keep the
        #: queue adaptive, larger ones amortize IPC.  None = auto.
        self.queue_chunksize = queue_chunksize
        #: Recycle each worker process after N pool tasks (None = never);
        #: mainly a test hook for the restart-robust delta accounting.
        self.maxtasksperchild = maxtasksperchild

    def _chunksize(self, num_tasks: int, num_workers: int) -> int:
        """Tasks per queue pull: ``PULLS_PER_WORKER`` pulls per worker.

        An explicit ``queue_chunksize`` wins.

        >>> ProcessBackend()._chunksize(2400, 2)
        150
        >>> ProcessBackend()._chunksize(3, 8)  # never zero
        1
        """
        if self.queue_chunksize is not None:
            return max(1, self.queue_chunksize)
        return max(1, num_tasks // (num_workers * PULLS_PER_WORKER))

    # ------------------------------------------------------------------
    def _execute(self, request: ExecutionRequest):
        config = request.config
        plan = request.plan
        control = request.control
        telemetry = request.telemetry
        tracer = telemetry.tracer
        registry = MetricsRegistry()
        wall0 = _time.perf_counter()

        tasks = resolve_tasks(request, tracer)
        mode = request.mode
        num_workers = config.num_workers
        graph = request.graph
        events = telemetry.events
        progress = request.progress
        progress.set_total_tasks(len(tasks))
        trace = bool(tracer.enabled)

        emit_block = (
            block_emitter(request.sink) if request.sink is not None else None
        )
        # The match buffer's type, decided once here; workers just honor
        # the flag.
        pack = packs_rows(request)
        match_width = plan.pattern.n

        # One resolved fault schedule for the run: an explicit config wins,
        # the BENU_FAULTS env var covers chaos runs; None stays None and
        # every site below holds the free NULL_INJECTOR.
        faults = resolve_faults(config.faults)

        records: List[_ChunkRecord] = []
        recovery: Optional[dict] = None

        def consume(base: int, record: _ChunkRecord) -> None:
            """The next chunk in task order: deliver its matches, keep the
            rest."""
            matches = record[3]
            records.append(record[:3] + record[4:])
            if matches:
                for block in row_blocks(matches, match_width):
                    emit_block(block)
            self._account(record, base, events, progress)

        with tracer.span("execution") as exec_span:
            if num_workers == 1:
                self._run_inline(
                    plan, graph, mode, tasks, control, consume, trace,
                    events, pack, faults,
                )
            else:
                recovery = self._run_pool(
                    plan, graph, mode, tasks, control, consume, num_workers,
                    trace, events, pack, faults, config.task_retries,
                )
            exec_span.args["tasks"] = len(tasks)

        return self._finalize(
            request, registry, tasks, records, wall0, tracer, recovery,
        )

    # ------------------------------------------------------------------
    def _run_inline(
        self, plan, graph, mode, tasks, control, consume, trace, events,
        pack, faults=None,
    ) -> None:
        """Degenerate one-worker run in this very process (no fork).

        Every task is its own chunk, so the control is checked — and a
        packed block flushed — at every task boundary.
        """
        _init_worker(plan, graph, mode, None, tasks, trace, pack, faults)
        for i in range(len(tasks)):
            if control is not None:
                control.check()
                if control.limit_reached:
                    break
            if events.enabled:
                events.emit(EV_TASK_DISPATCHED, task_id=i)
            consume(i, _run_tasks(i, i + 1))

    def _run_pool(
        self, plan, graph, mode, tasks, control, consume, num_workers,
        trace, events, pack, faults=None, task_retries: int = 0,
    ) -> dict:
        """Drive worker pools, recovering lost task slices across crashes.

        Exactly-once accounting across failures:

        * The unit of acknowledgment is the *chunk*, keyed by its base
          task id.  A chunk's records ship atomically (one pool result),
          so a chunk is either fully accounted or not at all — counters
          can never half-count a slice.
        * ``pending`` maps every unacknowledged chunk's base to its stop;
          a chunk is deleted exactly when its result arrives.  Late
          duplicates (a resubmitted chunk whose original eventually
          surfaced) are dropped by the ``base not in pending`` guard, so
          no task is ever delivered or counted twice.
        * When a pool is abandoned (worker death, lost results), its
          result iterator is never consumed again — whatever it might
          still hold is discarded wholesale and the surviving ``pending``
          set is resubmitted to a *fresh* pool, bounded by
          ``task_retries`` attempts.  Retry pools run with the next
          attempt number, so attempt-scoped fault rules (the default)
          don't re-fire.

        Arrived records wait in a reorder buffer that outlives the pools
        and reach ``consume`` in task order, so the rows, the counters
        and where a LIMIT cuts match the single-node run exactly no
        matter how the queue interleaved the work or how many workers
        died on the way.  A LIMIT ends the run once the chunk that filled
        it is delivered; later chunks are discarded.  Returns the
        recovery ledger: ``{"worker_crashes", "tasks_retried",
        "attempts"}``.
        """
        ctx = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context()
        num_tasks = len(tasks)
        size = self._chunksize(num_tasks, num_workers)
        pending: Dict[int, int] = {
            base: min(base + size, num_tasks)
            for base in range(0, num_tasks, size)
        }
        if events.enabled:
            # The whole queue is handed to the pool up front; dispatch is
            # the enqueue instant, finish events follow delivery.
            for base, stop in pending.items():
                events.emit(EV_TASK_DISPATCHED, task_id=base, tasks=stop - base)
        held: Dict[int, _ChunkRecord] = {}
        next_base = 0

        def limited() -> bool:
            return control is not None and control.limit_reached

        def deliver(base: int, record: _ChunkRecord) -> None:
            """Hold an arrival; hand every chunk now due to ``consume``."""
            nonlocal next_base
            held[base] = record
            while next_base in held and not limited():
                consume(next_base, held.pop(next_base))
                next_base += size

        attempt = 0
        crashes: Dict[int, int] = {}
        tasks_retried = 0
        while True:
            dead = self._drive_pool(
                ctx,
                lambda cancel_event: (
                    plan, graph, mode, cancel_event, tasks, trace, pack,
                    faults, attempt,
                ),
                pending, control, deliver, num_workers,
            )
            if not pending or limited():
                break
            # Chunks survived the pool: their workers died or their
            # results were lost.  Either retry them on a fresh pool or
            # give up with the typed error.
            lost = [
                task_id
                for base in sorted(pending)
                for task_id in range(base, pending[base])
            ]
            for pid, code in dead.items():
                if pid not in crashes and events.enabled:
                    events.emit(
                        EV_WORKER_CRASHED,
                        worker_pid=pid, exit_code=code, attempt=attempt,
                    )
                crashes[pid] = code
            if attempt >= task_retries:
                raise WorkerCrashed(crashes, lost, attempt + 1)
            attempt += 1
            tasks_retried += len(lost)
            if events.enabled:
                for task_id in lost:
                    events.emit(EV_TASK_RETRIED, task_id=task_id, attempt=attempt)
        return {
            "worker_crashes": len(crashes),
            "tasks_retried": tasks_retried,
            "attempts": attempt,
        }

    #: Seconds without any result arrival — with a dead worker on the
    #: books — before the current pool is declared lost and its surviving
    #: chunks are resubmitted.  Class attribute so tests can tighten it.
    worker_grace_seconds = 0.5

    #: Seconds a pool that is being wound down early (a cancel, a
    #: deadline, a LIMIT reached, a dead worker) is given to report the
    #: chunks it still owes before it is terminated regardless.  Workers
    #: stop at their next task boundary, so the wait is as long as the
    #: longest task still running: this is the most a cancel, a deadline
    #: or a LIMIT waits on top of noticing it.
    retire_grace_seconds = 5.0

    def _drive_pool(
        self, ctx, make_initargs, pending, control, consume, num_workers,
    ) -> Dict[int, int]:
        """One pool lifecycle over the pending chunks; ack what arrives.

        Every acknowledged record goes to ``consume`` (the caller's
        reorder buffer) as it arrives; a reached LIMIT ends the loop.
        Returns pid → exit code for every worker process observed dead
        with a non-zero code (a ``maxtasksperchild`` recycle exits 0 and
        is not a crash).  The pool's own maintenance thread silently
        replaces dead workers but never resubmits the chunk that died
        with one — so after a death, once no result has arrived for
        ``worker_grace_seconds``, the pool is abandoned and the caller
        resubmits the unacknowledged chunks.  However the loop is left,
        :meth:`_retire_pool` winds the pool down.
        """
        chunks = sorted(pending.items())
        tracked: Dict[int, object] = {}
        dead: Dict[int, int] = {}
        last_arrival = _time.monotonic()
        # One event per pool: tripping it stops this pool's workers at
        # their next task boundary and leaves a retry pool untouched.
        cancel_event = ctx.Event()
        pool = ctx.Pool(
            processes=num_workers,
            initializer=_init_worker,
            initargs=make_initargs(cancel_event),
            maxtasksperchild=self.maxtasksperchild,
        )
        results = None
        owed = len(chunks)
        try:
            # Track the original workers *before* any can die: the pool's
            # maintenance thread joins and replaces dead workers within
            # milliseconds, so a lazy first scan would only ever see the
            # healthy replacements.
            self._scan_workers(pool, tracked, dead)
            results = pool.imap_unordered(_run_chunk, chunks, chunksize=1)
            while pending:
                try:
                    base, record = results.next(timeout=0.1)
                except StopIteration:
                    # Every submitted chunk reported in, but some may
                    # have reported lost-chunk markers.
                    break
                except mp.TimeoutError:
                    # Nothing arrived: the deadline can still expire and
                    # a cancel can still land — keep the control live.
                    if control is not None:
                        control.check()
                    self._scan_workers(pool, tracked, dead)
                    if dead and (
                        _time.monotonic() - last_arrival
                        > self.worker_grace_seconds
                    ):
                        break
                    continue
                owed -= 1
                last_arrival = _time.monotonic()
                if base not in pending:
                    # Exactly-once: a stale duplicate of a chunk already
                    # acknowledged on an earlier attempt.
                    continue
                if isinstance(record, str):
                    # Injected lost-result marker: the chunk's work is
                    # gone; leave it pending for the retry pass.
                    continue
                del pending[base]
                consume(base, record)
                if control is not None:
                    control.check()
                    if control.limit_reached:
                        break
            self._scan_workers(pool, tracked, dead)
        finally:
            self._retire_pool(
                pool, results, cancel_event, owed, tracked, dead, last_arrival
            )
        return dead

    def _retire_pool(
        self, pool, results, cancel_event, owed, tracked, dead, last_arrival
    ):
        """Wind a pool down without ever terminating it mid-write.

        ``Pool.terminate()`` deadlocks when a worker is writing a result
        at that moment: the pool's result thread has stopped reading, the
        writer blocks on the full pipe holding the queue's write lock, and
        the task thread waits for that lock forever.  So a pool that still
        owes chunk results — the run was interrupted (cancel, deadline,
        LIMIT) or abandoned (a dead worker) — is first told to stop (its
        workers skip their remaining tasks at the next task boundary, so
        the chunks they owe come back at once, short) and drained,
        discarding what arrives, until the result iterator is exhausted:
        every chunk has reported, nobody is writing, and the pool is
        closed and joined.

        The iterator never finishes when a chunk died with its worker —
        and which chunks, or how many, a dead worker held is not knowable
        from here (it may have died idle).  With a dead worker on the
        books the drain therefore ends the way :meth:`_drive_pool`
        declares such a pool lost: no arrival for ``worker_grace_seconds``.
        Then, or when ``retire_grace_seconds`` run out with a worker still
        inside one long task, the pool is terminated: the last resort.
        """
        try:
            if owed and results is not None:
                cancel_event.set()
                deadline = _time.monotonic() + self.retire_grace_seconds
                while owed and _time.monotonic() < deadline:
                    try:
                        results.next(timeout=0.05)
                    except StopIteration:
                        owed = 0
                        break
                    except mp.TimeoutError:
                        self._scan_workers(pool, tracked, dead)
                        if dead and (
                            _time.monotonic() - last_arrival
                            > self.worker_grace_seconds
                        ):
                            break
                        continue
                    except Exception:  # noqa: BLE001 - a failed chunk reported in too
                        pass
                    owed -= 1
                    last_arrival = _time.monotonic()
        finally:
            if owed == 0:
                pool.close()
            else:
                pool.terminate()
            pool.join()

    @staticmethod
    def _scan_workers(pool, tracked: Dict[int, object], dead: Dict[int, int]) -> None:
        """Track the pool's worker processes and note non-zero exits.

        References are kept across scans because the pool's maintenance
        thread drops dead workers from ``pool._pool`` when it replaces
        them — holding our own reference keeps ``exitcode`` readable.
        """
        for proc in list(getattr(pool, "_pool", None) or []):
            if proc.pid is not None:
                tracked[proc.pid] = proc
        for pid, proc in tracked.items():
            code = proc.exitcode
            if code is not None and code != 0 and pid not in dead:
                dead[pid] = code

    @staticmethod
    def _account(record: _ChunkRecord, base: int, events, progress) -> None:
        """Parent-side progress/event bookkeeping for one delivered chunk."""
        if not (progress.enabled or events.enabled):
            return
        pid, counters, walls = record[:3]
        embeddings = sum(counters[RESULTS::_NUM_COUNTERS])
        progress.task_done(embeddings=embeddings, tasks=len(walls))
        if events.enabled:
            events.emit(
                EV_TASK_FINISHED,
                task_id=base,
                tasks=len(walls),
                worker_pid=pid,
                embeddings=embeddings,
                wall_seconds=sum(walls),
            )

    # ------------------------------------------------------------------
    def _finalize(
        self, request, registry, tasks, records, wall0, tracer, recovery=None,
    ):
        cost_model = request.config.cost_model

        # Fault-tolerance ledger: registered only when something actually
        # happened, so a fault-free run's registry stays byte-identical.
        worker_crashes = recovery["worker_crashes"] if recovery else 0
        tasks_retried = recovery["tasks_retried"] if recovery else 0
        if worker_crashes:
            registry.counter(
                M_WORKER_CRASHES, help="worker processes crashed mid-query"
            ).inc(worker_crashes)
        if tasks_retried:
            registry.counter(
                M_TASK_RETRIES, help="task slices re-executed after a crash"
            ).inc(tasks_retried)
        mirror(registry, ShmAttachStats())

        # Group self-contained chunk records into per-process ledgers;
        # worker ids are dense, in order of first result arrival.  Counters
        # stay flat: a column sum per chunk, one TaskCounters per worker.
        worker_index: Dict[int, str] = {}
        ledgers: Dict[str, WorkerLedger] = {}
        counter_sums: Dict[str, List[int]] = {}
        remote_spans: Dict[int, list] = {}
        for record in records:
            pid, counters, walls = record[:3]
            if len(record) > 3:
                remote_spans.setdefault(pid, []).extend(record[3])
            wid = worker_index.setdefault(pid, str(len(worker_index)))
            ledger = ledgers.setdefault(wid, WorkerLedger(worker_id=wid))
            sums = counter_sums.setdefault(wid, [0] * _NUM_COUNTERS)
            for field in range(_NUM_COUNTERS):
                sums[field] += sum(counters[field::_NUM_COUNTERS])
            ledger.num_tasks += len(walls)
            for raw in zip(*[iter(counters)] * _NUM_COUNTERS):
                sim = cost_model.task_seconds(raw)
                ledger.task_sim_seconds.append(sim)
                ledger.busy_seconds += sim
            ledger.wall_seconds += sum(walls)
        # Stitch the workers' own span trees (shipped over the result
        # channel in wire form) under real-pid process tracks.
        for pid, spans in remote_spans.items():
            tracer.add_remote_spans(pid, spans)
        ordered = [ledgers[k] for k in sorted(ledgers, key=int)]
        for ledger in ordered:
            ledger.counters = TaskCounters.from_tuple(counter_sums[ledger.worker_id])
            # One thread per process: the worker finishes when its work does.
            ledger.makespan_seconds = ledger.busy_seconds
            # Workers own the whole graph locally: zero store round-trips,
            # every adjacency lookup a local hit (same metric names as the
            # simulated ledgers; values reflect this backend's reality).
            ledger.cache_stats = CacheStats(hits=ledger.counters.dbq_ops)
            tracer.add_span(
                f"worker-{ledger.worker_id}",
                wall_seconds=ledger.wall_seconds,
                sim_seconds=ledger.busy_seconds,
                category="execution",
                track=f"worker-{ledger.worker_id}",
                args={"tasks": ledger.num_tasks},
            )

        # Measured mean per-task wall cost, reported on the result.
        tasks_run = sum(ledger.num_tasks for ledger in ordered)
        mean_task_wall = (
            sum(ledger.wall_seconds for ledger in ordered) / tasks_run
            if tasks_run
            else 0.0
        )
        return finish_run(
            request, registry, ordered, len(tasks), wall0, self.name,
            mean_task_wall_seconds=mean_task_wall,
            worker_crashes=worker_crashes,
            tasks_retried=tasks_retried,
        )
