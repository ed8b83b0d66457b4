"""The process execution backend: real cores, full feature parity.

Fans local search tasks out over OS processes — the closest a single
machine gets to the paper's 16-worker deployment — while keeping the
whole engine contract: enumeration streams through the ordinary sink
pipeline, cancellation and deadlines interrupt at chunk boundaries, and
the result's telemetry snapshot uses the same metric names the simulated
backend emits.

Design notes
------------
* A fork pool of our own: ``num_workers`` forked processes, one duplex
  pipe each — one worker is a pool of one, so every worker count takes
  one path and the parent never runs a task itself: a run's worker
  state lives and dies in its workers.  Compiled closures cannot be
  pickled, so a worker compiles the plan once, when it starts.  It
  inherits the graph's neighbour frozensets and the parent's resolved
  task list at fork, split tasks' ``candidate_slice`` frozensets
  included, so a task visits its candidates in the parent's order (only
  fork runs are order-identical: a frozenset rebuilt from a pickle may
  iterate differently).
* The parent hands out work: a worker ``recv``s one ``(base, stop,
  attempt)`` chunk — a range of the inherited task list — and ``send``s
  its record, holding at most one chunk, so a worker that drew cheap
  tasks pulls again while another grinds through a hub vertex.  One
  chunk rule, :meth:`ProcessBackend._chunk_stops`: chunks are cut by
  work, not by count.  A task weighs its start vertex's degree (a split
  slice, its candidate count), and each chunk holds about
  ``1 / (workers × PULLS_PER_WORKER)`` of the total weight — the degree
  relabel puts every hub task in the tail, so equal task counts would
  hand one worker the whole tail.  A boundary is a pure function of the
  task list, the graph's degrees and the worker count.
* A chunk record is flat: counters as one ``array('q')``, walls as one
  ``array('d')``, matches as one buffer of fixed-width rows — an
  ``array('q')`` when ``packs_rows`` (serialization is a buffer copy;
  RES extends a list, packed into it once per task), a list otherwise —
  handed to the sink as :class:`~repro.engine.sinks.RowBlock` objects in
  task order (a reorder buffer holds early arrivals), so every backend's
  sink sees one row sequence and a LIMIT keeps the same prefix.
* The parent knows which chunk each worker holds: a death — EOF or a
  broken pipe; an injected ``crash`` is always ``os._exit`` — puts back
  exactly that chunk, and a kill mid-write only damages the pipe thrown
  away with it.  Every way out of a run kills and joins every worker, and
  a worker closes every parent-side pipe end it inherits, its own
  included, so it reads EOF and exits once a parent killed outright is
  gone.
* Workers own the whole graph locally, so the ledgers record zero
  distributed-store queries and every adjacency lookup as a cache hit —
  same metric names, values reflecting this backend's reality.
"""

from __future__ import annotations

import heapq
import multiprocessing as mp
import os
import threading
import time as _time
from array import array
from multiprocessing.connection import wait
from typing import Dict, List, Sequence, Tuple, Union

from ...faults import (
    InjectedFault,
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
    WorkerLedger,
    finish_run,
    packs_rows,
    resolve_tasks,
)

#: What one chunk of tasks sends home: (pid, counters, wall seconds,
#: matches|None) — ``len(COUNTER_FIELDS)`` counters and one wall per
#: task, and in collect mode one flat buffer of fixed-width rows (a
#: task's row count is its ``results`` counter).  A traced run appends
#: the worker's wire-format spans (see ``span_to_wire``), so the untraced
#: record stays an exact 4-tuple (zero extra IPC bytes).
_ChunkRecord = Tuple[int, array, array, Union[array, list, None]]

_NUM_COUNTERS = len(COUNTER_FIELDS)

#: Chunks per worker: enough for a worker that drew cheap tasks to keep
#: pulling while a peer grinds through a hub vertex.
PULLS_PER_WORKER = 8

#: One chunk: the ``[base, stop)`` range of the inherited task list and
#: the attempt it runs as.
_TaskChunk = Tuple[int, int, int]

#: Exit code an injected ``crash`` uses inside a pool worker — distinct
#: from negative signal codes, so a crash report tells the two apart.
_CRASH_EXIT_CODE = 70

#: Held from ``Pipe()`` until the parent has closed the child's end, so a
#: worker forked meanwhile for a concurrent query never inherits that end
#: (a dead worker's pipe would never read EOF).  It also guards
#: :data:`_PARENT_ENDS`.
_FORK_LOCK = threading.Lock()

#: Every open parent-side pipe end in this process, over all concurrent
#: runs.  A forked worker closes the copies it inherits, its own
#: included, so a worker's ``recv`` reads EOF once the parent is gone —
#: even a parent killed with SIGKILL.
_PARENT_ENDS: set = set()


class WorkerCrashed(RuntimeError):
    """A pool worker died and the retry budget could not recover the query.

    Raised by the process backend once a chunk lost to a dead worker (or
    to a lost record) has run ``config.task_retries`` retries.  Carries
    the dead workers seen (pid → exit code) and the ids of the lost tasks.
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
    plan, graph, mode: str, tasks, trace: bool = False, pack: bool = False,
    faults=None,
) -> dict:
    """A worker's state: compiled plan, adjacency access, the inherited
    task list.

    ``pack`` picks collect mode's match buffer: an ``array('q')`` (the
    parent decides eligibility once) or a list.  With ``trace`` on, the
    initializer times itself and parks the span (absolute
    ``perf_counter`` instants — fork children share the parent's epoch)
    for the first chunk record to carry home.
    """
    t0 = _time.perf_counter() if trace else 0.0
    state = {
        "compiled": compile_plan(plan, mode=mode),
        "get_adj": graph.adjacency().__getitem__,
        "vset": frozenset(graph.vertices),
        "tasks": tasks,
        "collect": mode == "collect",
        "pack": pack,
        "trace": trace,
        # Deterministic fault injection: one injector per attempt, so each
        # worker replays the schedule against its own per-site hit
        # counters and rules stay attempt-scoped (a retried chunk runs
        # attempt-0 rules clean).
        "faults": faults,
        "injectors": {},
    }
    if trace:
        state["pending_spans"] = [{
            "name": "worker-init", "t0": t0, "t1": _time.perf_counter(),
            "category": "worker", "args": {"mode": mode},
        }]
    return state


def _close_parent_end(conn) -> None:
    """Close a parent-side pipe end and forget it, under the fork lock: a
    worker forked meanwhile must not close a reused descriptor."""
    with _FORK_LOCK:
        _PARENT_ENDS.discard(conn)
        conn.close()


def _crash() -> None:
    """What an injected ``crash`` does: end this pool worker at once."""
    os._exit(_CRASH_EXIT_CODE)


def _run_tasks(
    state: dict, base: int, stop: int, attempt: int
) -> Union[_ChunkRecord, str]:
    """Execute tasks ``[base, stop)`` of the inherited list; return their
    one flat record, or a lost-chunk marker (a plain string — a healthy
    record keeps its exact wire shape) when an injected fault ate the
    chunk's work, which the parent then runs again."""
    injectors = state["injectors"]
    if attempt not in injectors:
        injectors[attempt] = get_injector(state["faults"], attempt=attempt)
    injector = injectors[attempt]
    run = state["compiled"].run_raw
    get_adj = state["get_adj"]
    vset = state["vset"]
    pack = state["pack"]
    matches = staged = emit_cb = None
    if state["collect"]:
        # Flat fixed-width rows: RES's tuple extends a list, packed into
        # the int64 buffer once per task.  An int64 array pickles as one
        # machine-format byte string instead of per-value opcodes.
        matches = array("q") if pack else []
        staged = [] if pack else matches
        emit_cb = staged.extend
    spans = None
    if state["trace"]:
        # Whatever spans are parked (the init span) ride this record out,
        # followed by one span per task.
        spans = state.get("pending_spans") or []
        state["pending_spans"] = []
    counters = array("q")
    walls = array("d")
    try:
        for task in state["tasks"][base:stop]:
            if injector.enabled:
                injector.hit(SITE_WORKER_TASK, crash=_crash)
            t0 = _time.perf_counter()
            raw = run(
                task.start, get_adj, vset=vset, emit=emit_cb, tcache={},
                candidate_override=task.candidate_slice,
            )
            if pack and staged:
                matches.fromlist(staged)
                staged.clear()
            t1 = _time.perf_counter()
            counters.extend(raw)
            walls.append(t1 - t0)
            if spans is not None:
                spans.append({
                    "name": f"task[{task.start}]", "t0": t0, "t1": t1,
                    "category": "task", "args": {"results": raw[RESULTS]},
                })
        if injector.enabled:
            # The IPC-send site: an injected error here simulates a result
            # message lost between a finished worker and the parent.
            injector.hit(SITE_WORKER_IPC, crash=_crash)
    except InjectedFault as exc:
        return str(exc)
    record = (os.getpid(), counters, walls, matches)
    return record if spans is None else record + (spans,)


def _serve(conn, *init_args) -> None:
    """A pool worker's life: build the state once, then answer chunks
    until the parent goes away (or kills it)."""
    for end in _PARENT_ENDS:
        end.close()  # this process's copies only: the parent keeps its own
    _PARENT_ENDS.clear()
    state = _init_worker(*init_args)
    try:
        while True:
            conn.send(_run_tasks(state, *conn.recv()))
    except (EOFError, OSError):
        pass


class ProcessBackend(ExecutionBackend):
    """Fan a plan's local search tasks over OS processes."""

    name = "process"

    @staticmethod
    def _chunk_stops(weights: Sequence[int], num_workers: int) -> List[int]:
        """Where each chunk of the task list ends: contiguous, never empty.

        A chunk closes as soon as the running weight crosses the next
        multiple of ``total / (num_workers × PULLS_PER_WORKER)``, so one
        heavy task is a chunk of its own and a run of light ones shares
        one.

        >>> ProcessBackend._chunk_stops([1] * 8, 1)  # equal weights
        [1, 2, 3, 4, 5, 6, 7, 8]
        >>> ProcessBackend._chunk_stops([1] * 14 + [10, 20], 1)  # a hub tail
        [6, 11, 15, 16]
        """
        # Integer arithmetic: running × pulls against k × total.
        pulls = num_workers * PULLS_PER_WORKER
        total = sum(weights) or 1
        stops: List[int] = []
        running = 0
        mark = total
        for stop, weight in enumerate(weights, 1):
            running += weight * pulls
            if running >= mark:
                stops.append(stop)
                mark = (running // total + 1) * total
        if weights and (not stops or stops[-1] < len(weights)):
            stops.append(len(weights))
        return stops

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
        pack = packs_rows(request)  # the match buffer's type, decided once
        match_width = plan.pattern.n

        # One resolved fault schedule for the run: an explicit config wins,
        # then the BENU_FAULTS env var; None keeps every site free.
        faults = resolve_faults(config.faults)

        records: List[_ChunkRecord] = []

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
            # A task's weight is static and known before the fork: its
            # start vertex's degree, or a split slice's candidate count.
            weights = [
                graph.degree(task.start) if task.candidate_slice is None
                else len(task.candidate_slice)
                for task in tasks
            ]
            recovery = self._run_pool(
                (plan, graph, mode, tasks, trace, pack, faults),
                self._chunk_stops(weights, num_workers),
                control, consume, num_workers, events, config.task_retries,
            )
            exec_span.args["tasks"] = len(tasks)

        return self._finalize(
            request, registry, tasks, records, wall0, tracer, *recovery,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _run_pool(
        init_args, stops, control, consume, num_workers, events,
        task_retries: int = 0,
    ) -> Tuple[int, int]:
        """Run every chunk — ``stops`` ends one each — on ``num_workers``
        forked workers, exactly once.

        The parent feeds idle workers the lowest pending chunk, waits on
        every pipe with a 0.1 s timeout (so a cancel or a deadline is
        noticed while workers grind), and hands arrived records to
        ``consume`` in task order through a reorder buffer, so the rows,
        the counters and where a LIMIT cuts match the single-node run.
        A LIMIT ends the run once the chunk that filled it is delivered.

        A broken pipe (on ``recv`` or ``send``) means its worker died: it
        is reaped, the one chunk it held runs again at ``attempt + 1``
        (:class:`WorkerCrashed` past ``task_retries``), and a replacement
        is forked.  A lost-chunk marker is retried the same way.  Returns
        ``(worker crashes, tasks retried)``.
        """
        ctx = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context()
        num_tasks = stops[-1] if stops else 0
        todo: List[_TaskChunk] = [
            (base, stop, 0) for base, stop in zip([0] + stops, stops)
        ]
        if events.enabled:
            for base, stop, _ in todo:
                events.emit(EV_TASK_DISPATCHED, task_id=base, tasks=stop - base)
        #: Early arrivals, by first task: (the chunk's stop, its record).
        held: Dict[int, Tuple[int, _ChunkRecord]] = {}
        next_base = 0
        crashes: Dict[int, int] = {}
        tasks_retried = 0
        #: A worker's end of the pipe → [its process, the chunk it holds].
        workers: Dict[object, list] = {}

        def limited() -> bool:
            return control is not None and control.limit_reached

        def fork() -> None:
            with _FORK_LOCK:
                conn, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_serve, args=(child,) + init_args, daemon=True
                )
                _PARENT_ENDS.add(conn)
                proc.start()
                child.close()
            workers[conn] = [proc, None]

        def retry(chunk: _TaskChunk) -> None:
            nonlocal tasks_retried
            base, stop, attempt = chunk
            if attempt >= task_retries:
                raise WorkerCrashed(crashes, list(range(base, stop)), attempt + 1)
            tasks_retried += stop - base
            if events.enabled:
                for task_id in range(base, stop):
                    events.emit(EV_TASK_RETRIED, task_id=task_id, attempt=attempt + 1)
            heapq.heappush(todo, (base, stop, attempt + 1))

        def feed(conn) -> None:
            if todo:
                workers[conn][1] = heapq.heappop(todo)
                try:
                    conn.send(workers[conn][1])
                except OSError:
                    bury(conn)

        def bury(conn) -> None:
            proc, chunk = workers.pop(conn)
            _close_parent_end(conn)
            proc.kill()  # a no-op on the dead; its exit code stands
            proc.join()
            crashes[proc.pid] = proc.exitcode
            if events.enabled:
                events.emit(
                    EV_WORKER_CRASHED, worker_pid=proc.pid,
                    exit_code=proc.exitcode, attempt=chunk[2] if chunk else 0,
                )
            if chunk is not None:
                retry(chunk)
            fork()

        try:
            for _ in range(num_workers):
                fork()
            while next_base < num_tasks and not limited():
                if control is not None:
                    control.check()
                for conn in [c for c, w in workers.items() if w[1] is None]:
                    feed(conn)
                for conn in wait(list(workers), timeout=0.1):
                    try:
                        record = conn.recv()
                    except (EOFError, OSError):
                        bury(conn)
                        continue
                    chunk, workers[conn][1] = workers[conn][1], None
                    if isinstance(record, str):
                        retry(chunk)
                    else:
                        held[chunk[0]] = (chunk[1], record)
                    feed(conn)  # before the sink gets its turn
                    while next_base in held and not limited():
                        stop, record = held.pop(next_base)
                        consume(next_base, record)
                        next_base = stop
        finally:
            for proc, _ in workers.values():
                proc.kill()
            for conn, (proc, _) in workers.items():
                proc.join()
                _close_parent_end(conn)
        return len(crashes), tasks_retried

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
                EV_TASK_FINISHED, task_id=base, tasks=len(walls),
                worker_pid=pid, embeddings=embeddings, wall_seconds=sum(walls),
            )

    # ------------------------------------------------------------------
    def _finalize(
        self, request, registry, tasks, records, wall0, tracer,
        worker_crashes=0, tasks_retried=0,
    ):
        cost_model = request.config.cost_model

        # Fault-tolerance ledger: registered only when something actually
        # happened, so a fault-free run's registry stays byte-identical.
        if worker_crashes:
            registry.counter(
                M_WORKER_CRASHES, help="worker processes crashed mid-query"
            ).inc(worker_crashes)
        if tasks_retried:
            registry.counter(
                M_TASK_RETRIES, help="task slices re-executed after a crash"
            ).inc(tasks_retried)

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
                f"worker-{ledger.worker_id}", wall_seconds=ledger.wall_seconds,
                sim_seconds=ledger.busy_seconds, category="execution",
                track=f"worker-{ledger.worker_id}", args={"tasks": ledger.num_tasks},
            )

        # Measured mean per-task wall cost, reported on the result.
        tasks_run = sum(ledger.num_tasks for ledger in ordered)
        mean_task_wall = (
            sum(ledger.wall_seconds for ledger in ordered) / tasks_run
            if tasks_run else 0.0
        )
        return finish_run(
            request, registry, ordered, len(tasks), wall0, self.name,
            mean_task_wall_seconds=mean_task_wall,
            worker_crashes=worker_crashes,
            tasks_retried=tasks_retried,
        )
