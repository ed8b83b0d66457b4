"""A simulated worker machine (one of the paper's reducers).

Each worker owns a byte-bounded LRU database cache shared by its working
threads, a communication ledger, and per-thread simulated clocks.  Task
execution is real (the compiled plan actually runs); *time* is simulated
deterministically from the measured instruction counters and the latency
model, so scalability and skew figures are reproducible run to run.
"""

from __future__ import annotations

import heapq
import time as _time
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple

from ..plan.codegen import DBQ_OPS, RESULTS, CompiledPlan, TaskCounters
from ..storage.cache import CacheStats, LRUDatabaseCache
from ..storage.kvstore import DistributedKVStore, QueryStats
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
        store: DistributedKVStore,
        config: BenuConfig,
        tracer=None,
        cache: Optional[LRUDatabaseCache] = None,
    ) -> None:
        self.worker_id = worker_id
        self.config = config
        self.query_stats = QueryStats()
        if cache is not None:
            # Adopt a warm cache owned by a longer-lived holder (the query
            # service keeps one per worker slot per graph).  Rebind its
            # ledger so this run's store traffic is accounted here, and
            # remember the running totals so ``cache_stats`` stays per-run.
            cache.query_stats = self.query_stats
            self.cache = cache
            self._cache_base = cache.stats.copy()
        else:
            self.cache = LRUDatabaseCache(
                store,
                capacity_bytes=config.cache_capacity_bytes,
                query_stats=self.query_stats,
                policy=config.cache_policy,
            )
            self._cache_base = CacheStats()
        # Per-task bookkeeping stays flat — the raw counter tuple the
        # plan returned, two floats, the placement — and becomes
        # TaskReport / TaskCounters objects only when somebody asks.
        self._tasks: List[LocalSearchTask] = []
        self._raw: List[Tuple[int, ...]] = []
        self._walls: List[float] = []
        self._placements: List[Tuple[float, int]] = []
        #: Simulated seconds per executed task, in execution order.
        self.task_sim_seconds: List[float] = []
        #: Total wall time actually spent running this worker's tasks.
        self.wall_seconds = 0.0
        #: Optional telemetry tracer; tasks are recorded as slices on the
        #: simulated timeline (one track per worker thread).
        self._tracer = tracer if (tracer is not None and tracer.enabled) else None
        # Greedy LPT assignment over a min-heap of (load, thread) pairs;
        # ties break toward the lowest thread id, so the schedule is
        # deterministic for equal loads.
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
    ) -> Tuple[Tuple[int, ...], float]:
        """Run one task; account simulated and wall time.

        Returns the task's raw counters (``COUNTER_FIELDS`` order) and
        its simulated seconds.
        """
        db_before = self.query_stats.simulated_seconds
        t0 = _time.perf_counter()
        raw = compiled.run_raw(
            task.start,
            self.cache.get,
            vset=vset,
            emit=emit,
            tcache={},
            candidate_override=task.candidate_slice,
        )
        wall = _time.perf_counter() - t0
        db_seconds = self.query_stats.simulated_seconds - db_before
        sim = self.config.cost_model.task_seconds(raw, db_seconds)

        # Assign to the least-loaded simulated thread.
        sim_start, tid = heapq.heappop(self._load_heap)
        heapq.heappush(self._load_heap, (sim_start + sim, tid))
        self._thread_loads[tid] += sim

        self._tasks.append(task)
        self._raw.append(raw)
        self._walls.append(wall)
        self._placements.append((sim_start, tid))
        self.task_sim_seconds.append(sim)
        self.wall_seconds += wall
        if self._tracer is not None:
            self._tracer.add_sim_slice(
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
        return raw, sim

    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self._raw)

    @property
    def reports(self) -> List[TaskReport]:
        """One :class:`TaskReport` per executed task, built on demand."""
        return [
            TaskReport(task, TaskCounters.from_tuple(raw), sim, wall, tid, start)
            for task, raw, sim, wall, (start, tid) in zip(
                self._tasks,
                self._raw,
                self.task_sim_seconds,
                self._walls,
                self._placements,
            )
        ]

    # ------------------------------------------------------------------
    @property
    def makespan_seconds(self) -> float:
        """Simulated completion time of this worker (max thread load)."""
        return max(self._thread_loads) if self._thread_loads else 0.0

    @property
    def busy_seconds(self) -> float:
        """Total simulated work executed on this worker."""
        return sum(self._thread_loads)

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
        return TaskCounters(*map(sum, zip(*self._raw)))
