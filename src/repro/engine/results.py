"""Result objects for BENU runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from ..graph.graph import Vertex
from ..plan.codegen import TaskCounters
from ..plan.compression import expand_code
from ..plan.generation import ExecutionPlan
from ..storage.cache import CacheStats
from ..storage.kvstore import QueryStats
from ..telemetry.snapshot import TelemetrySnapshot


@dataclass
class BenuResult:
    """Everything one BENU job produced and measured.

    ``count`` is RES executions: full matches for uncompressed plans,
    compressed codes for VCBC plans (use :meth:`expanded_matches` /
    :meth:`expanded_count` to get full matches from codes).
    """

    plan: ExecutionPlan
    count: int
    matches: Optional[List[Tuple[Vertex, ...]]] = None
    codes: Optional[List[Tuple[object, ...]]] = None
    counters: TaskCounters = field(default_factory=TaskCounters)
    communication: QueryStats = field(default_factory=QueryStats)
    cache: CacheStats = field(default_factory=CacheStats)
    num_tasks: int = 0
    num_workers: int = 0
    makespan_seconds: float = 0.0
    per_worker_busy_seconds: List[float] = field(default_factory=list)
    per_task_sim_seconds: List[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: Measured mean wall seconds per local search task (process backend
    #: only; 0.0 elsewhere).  A measurement for reports and the ledger;
    #: chunk sizes never depend on it.
    mean_task_wall_seconds: float = 0.0
    #: Which runtime executed the plan ("simulated", "inline", "process").
    execution_backend: str = "simulated"
    #: The run's row price ("frozenset" or "csr"; see BenuConfig).
    adjacency_backend: str = "frozenset"
    #: Fault-tolerance accounting (process backend only): worker processes
    #: that died mid-query and task slices re-executed to recover.  Both 0
    #: on a fault-free run.
    worker_crashes: int = 0
    tasks_retried: int = 0
    #: relabeled-id → original-id translation; None when no relabeling ran.
    #: Collected ``matches`` are already translated; ``codes`` stay in the
    #: relabeled space (expansion constraints compare under ≺) and are
    #: translated on expansion.
    id_mapping: Optional[dict] = None
    #: The run's telemetry snapshot: registry-backed metrics (always) plus
    #: the span tree / trace exports when tracing was enabled.
    telemetry: Optional[TelemetrySnapshot] = None

    # ------------------------------------------------------------------
    def expanded_matches(self) -> Iterator[Tuple[Vertex, ...]]:
        """Full matches decoded from VCBC codes (or the matches directly)."""
        if not self.plan.compressed:
            if self.matches is None:
                raise ValueError("run with collect=True to keep matches")
            yield from self.matches
            return
        if self.codes is None:
            raise ValueError("run with collect=True to keep compressed codes")
        translate = self.id_mapping
        for code in self.codes:
            for match in expand_code(self.plan, code):
                if translate is not None:
                    yield tuple(translate[v] for v in match)
                else:
                    yield match

    def expanded_count(self) -> int:
        """Total full matches, expanding codes when compressed."""
        if not self.plan.compressed:
            return self.count
        if self.codes is None:
            raise ValueError("run with collect=True to count full matches")
        return sum(1 for _ in self.expanded_matches())

    @property
    def communication_bytes(self) -> int:
        return self.communication.bytes_transferred

    @property
    def cache_hit_rate(self) -> float:
        return self.cache.hit_rate

    @property
    def kernel_counts(self) -> dict:
        """Always empty: no plan calls a kernel (ROADMAP item 3 drops it)."""
        return {}

    @property
    def shm_bytes(self) -> int:
        """Always 0: no transport maps shared memory (ROADMAP item 3)."""
        return 0

    def summary(self) -> str:
        """One-paragraph human-readable run report."""
        kind = "codes" if self.plan.compressed else "matches"
        return (
            f"pattern={self.plan.pattern.name} {kind}={self.count} "
            f"tasks={self.num_tasks} workers={self.num_workers} "
            f"makespan={self.makespan_seconds:.3f}s "
            f"comm={self.communication_bytes / 1e6:.2f}MB "
            f"(queries={self.communication.queries}) "
            f"cache_hit_rate={self.cache_hit_rate:.1%} "
            f"int_ops={self.counters.int_ops} dbq_ops={self.counters.dbq_ops}"
        )
