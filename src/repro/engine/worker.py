"""A simulated worker machine (one of the paper's reducers).

Each worker runs its tasks on a byte-bounded LRU database cache shared
by its working threads, and keeps a communication ledger and per-thread
simulated clocks.  Task execution is real (the compiled plan actually
runs); *time* is simulated deterministically from the measured
instruction counters and the latency model, so scalability and skew
figures are reproducible run to run.

Running a task records only what cannot be recomputed — its raw counters,
the DB round-trip seconds it caused, its wall time.  Simulated seconds,
the thread schedule and everything built on them are a pure function of
that log and are derived when somebody asks, once, at end of run.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple

from ..plan.codegen import DBQ_OPS, RESULTS, CompiledPlan, TaskCounters
from ..storage.cache import CacheStats, LRUDatabaseCache
from ..storage.kvstore import QueryStats
from .config import BenuConfig
from .local_task import LocalSearchTask


@dataclass
class TaskReport:
    """Outcome of one executed local search task."""

    task: LocalSearchTask
    counters: TaskCounters
    sim_seconds: float
    wall_seconds: float
    #: Simulated thread the task was scheduled on, and when it started
    #: there — together they describe the worker's simulated schedule.
    thread_id: int = 0
    sim_start: float = 0.0


class Worker:
    """One simulated worker machine executing local search tasks."""

    def __init__(
        self,
        worker_id: int,
        cache: LRUDatabaseCache,
        config: BenuConfig,
        tracer=None,
    ) -> None:
        self.worker_id = worker_id
        self.config = config
        # The cache may outlive the run (the query service keeps one per
        # worker slot per graph): rebind its ledger so this run's store
        # traffic is accounted here, and remember its running totals so
        # ``cache_stats`` stays per-run.
        self.query_stats = QueryStats()
        cache.query_stats = self.query_stats
        self.cache = cache
        self._cache_base = cache.stats.copy()
        # Compiled plans get a lookup that counts only misses; the hits
        # are settled per task from the DBQ count (see ``uncounted_getter``).
        self._get_adj = self.cache.uncounted_getter()
        #: Per executed task, only what cannot be recomputed: (task, raw
        #: counter tuple, DB-sim seconds, wall seconds).  Simulated
        #: seconds, the LPT schedule, ``TaskReport``s and the tracer's
        #: timeline slices are derived from it when somebody asks.
        self._log: List[Tuple[LocalSearchTask, Tuple[int, ...], float, float]] = []
        #: Optional telemetry tracer; tasks are recorded as slices on the
        #: simulated timeline (one track per worker thread).
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        # The derived schedule, extended over new log entries on demand.
        # Greedy LPT assignment over a min-heap of (load, thread) pairs;
        # ties break toward the lowest thread id, so the schedule is a
        # pure function of the simulated-seconds sequence.
        self._sims: List[float] = []
        self._placements: List[Tuple[float, int]] = []
        self._thread_loads: List[float] = [0.0] * config.threads_per_worker
        self._load_heap: List[tuple] = [
            (0.0, t) for t in range(config.threads_per_worker)
        ]

    # ------------------------------------------------------------------
    def execute_task(
        self,
        compiled: CompiledPlan,
        task: LocalSearchTask,
        vset: FrozenSet[int],
        emit: Optional[Callable] = None,
    ) -> Tuple[int, ...]:
        """Run one task; returns its raw counters (``COUNTER_FIELDS`` order)."""
        query_stats = self.query_stats
        db_before = query_stats.simulated_seconds
        misses_before = self.cache.stats.misses
        t0 = _time.perf_counter()
        raw = compiled.run_raw(
            task.start,
            self._get_adj,
            vset=vset,
            emit=emit,
            # A fresh triangle cache per task: every key holds the start
            # vertex, so no other task could hit it.
            tcache={},
            candidate_override=task.candidate_slice,
        )
        wall = _time.perf_counter() - t0
        self.cache.credit_lookups(raw[DBQ_OPS], misses_before)
        self._log.append(
            (task, raw, query_stats.simulated_seconds - db_before, wall)
        )
        return raw

    def _schedule(self) -> None:
        """Extend the simulated schedule over the tasks run since last asked."""
        done = len(self._sims)
        if done == len(self._log):
            return
        task_seconds = self.config.cost_model.task_seconds
        heap, loads, tracer = self._load_heap, self._thread_loads, self._tracer
        for task, raw, db_seconds, wall in self._log[done:]:
            sim = task_seconds(raw, db_seconds)
            # Assign to the least-loaded simulated thread.
            sim_start, tid = heapq.heappop(heap)
            heapq.heappush(heap, (sim_start + sim, tid))
            loads[tid] += sim
            self._sims.append(sim)
            self._placements.append((sim_start, tid))
            if tracer is not None:
                tracer.add_sim_slice(
                    f"worker-{self.worker_id}/thread-{tid}",
                    f"task v={task.start}",
                    sim_start,
                    sim,
                    args={
                        "results": raw[RESULTS],
                        "dbq_ops": raw[DBQ_OPS],
                        "wall_seconds": wall,
                    },
                )

    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self._log)

    @property
    def wall_seconds(self) -> float:
        """Total wall time actually spent running this worker's tasks."""
        return sum(entry[3] for entry in self._log)

    @property
    def task_sim_seconds(self) -> List[float]:
        """Simulated seconds per executed task, in execution order."""
        self._schedule()
        return self._sims

    @property
    def reports(self) -> List[TaskReport]:
        """One :class:`TaskReport` per executed task, built on demand."""
        self._schedule()
        return [
            TaskReport(task, TaskCounters.from_tuple(raw), sim, wall, tid, start)
            for (task, raw, _db, wall), sim, (start, tid) in zip(
                self._log, self._sims, self._placements
            )
        ]

    # ------------------------------------------------------------------
    @property
    def thread_loads(self) -> List[float]:
        """Simulated seconds scheduled on each working thread."""
        self._schedule()
        return self._thread_loads

    @property
    def makespan_seconds(self) -> float:
        """Simulated completion time of this worker (max thread load)."""
        return max(self.thread_loads)

    @property
    def busy_seconds(self) -> float:
        """Total simulated work executed on this worker."""
        return sum(self.thread_loads)

    @property
    def cache_stats(self) -> CacheStats:
        """This run's cache accounting (deltas, for adopted warm caches)."""
        base = self._cache_base
        stats = self.cache.stats
        return CacheStats(
            hits=stats.hits - base.hits,
            misses=stats.misses - base.misses,
            evictions=stats.evictions - base.evictions,
        )

    def total_counters(self) -> TaskCounters:
        return TaskCounters(*map(sum, zip(*(entry[1] for entry in self._log))))
