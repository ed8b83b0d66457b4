"""Configuration for BENU runs.

Defaults mirror the paper's setup (Section VII) scaled to the simulated
environment: the paper used 16 worker machines × 24 threads, a 30 GB
database cache and task-splitting threshold τ = 500 on graphs of 10⁷–10⁹
edges; our stand-in graphs are ~10⁴–10⁵ edges, so the defaults scale
accordingly while keeping every ratio meaningful.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from ..faults import FaultConfig
from ..graph.graph import Graph
from ..storage.kvstore import DistributedKVStore, LatencyModel
from ..telemetry.runtime import TelemetryConfig

#: The row prices a store can charge (``BenuConfig.adjacency_backend``).
ADJACENCY_BACKENDS = ("frozenset", "csr")

#: The execution runtimes the engine can negotiate end-to-end
#: (see repro.engine.backends): "simulated" — deterministic single-core
#: cluster simulation; "inline" — the literal plan interpreter on the
#: simulated task loop; "process" — real OS worker processes.
EXECUTION_BACKENDS = ("simulated", "inline", "process")


def _default_process_workers() -> int:
    """All cores but one — the process backend's conventional default."""
    return max(1, (os.cpu_count() or 2) - 1)


@dataclass(frozen=True)
class SimulationCostModel:
    """Per-operation costs for the deterministic time simulation.

    Values approximate measured Python/C set-op costs; absolute numbers do
    not matter for any experiment shape, only the INT ≪ cache-hit ≪ DBQ
    ordering the paper's instruction ranking assumes.
    """

    int_seconds: float = 2e-7     # one set intersection / filter pass
    trc_seconds: float = 1e-7     # triangle-cache lookup
    enu_seconds: float = 5e-8     # one loop iteration step
    result_seconds: float = 5e-8  # reporting one match/code
    cache_hit_seconds: float = 2e-7  # shared in-memory cache access

    def task_seconds(self, counters, db_seconds: float = 0.0) -> float:
        """Deterministic simulated duration of one task (Section IV-C).

        ``counters`` is the task's raw counter tuple
        (:data:`repro.plan.codegen.COUNTER_FIELDS` order).  Every
        ``get_adj`` is a cache lookup; misses add the DB round-trip time
        the caller measured into ``db_seconds`` (zero for backends whose
        workers own the whole graph locally).  The one definition every
        backend uses, so their ``benu_task_sim_seconds`` histograms are
        comparable.
        """
        int_ops, trc_ops, _trc_misses, dbq_ops, enu_steps, results = counters
        return (
            int_ops * self.int_seconds
            + trc_ops * self.trc_seconds
            + enu_steps * self.enu_seconds
            + results * self.result_seconds
            + dbq_ops * self.cache_hit_seconds
            + db_seconds
        )


@dataclass
class BenuConfig:
    """Everything tunable about a BENU run."""

    #: Number of simulated worker machines (the paper's reducers).
    num_workers: int = 4
    #: Working threads per worker sharing the DB cache.
    threads_per_worker: int = 4
    #: DB cache capacity in bytes per worker; None = unbounded, 0 = off.
    cache_capacity_bytes: Optional[int] = None
    #: DB cache replacement policy: "lru" (the paper), "fifo", "lfu", "random".
    cache_policy: str = "lru"
    #: The byte price of one adjacency row in the distributed store — what
    #: its query ledger and the DB cache's capacity count: "frozenset"
    #: (the row's delta+varint serialization) or "csr" (8 bytes per id,
    #: a raw int64 posting list).  Rows are the graph's frozensets and
    #: compile to the same code under both.
    adjacency_backend: str = "frozenset"
    #: Execution runtime: "simulated" (deterministic cluster simulation,
    #: the default), "inline" (plan interpreter, the oracle), or
    #: "process" (a pool of OS worker processes — real cores).
    execution_backend: str = "simulated"
    #: Task-splitting degree threshold τ (Section V-B); None disables.
    split_threshold: Optional[int] = 64
    #: Optimization level 0–3 (Fig. 7's x-axis); 3 is the paper's default.
    optimization_level: int = 3
    #: Generalized clique caching — the paper's proposed Opt3 extension
    #: (Section IV-B "future work"); off by default to match the paper.
    generalized_clique_cache: bool = False
    #: Degree filtering (the Section IV-A hook): drop candidates whose data
    #: degree is below the pattern vertex's degree.  Off by default.
    degree_filter: bool = False
    #: Emit VCBC-compressed codes (the paper's default execution mode).
    compressed: bool = False
    #: Collect matches/codes (True) or only count them (False).
    collect: bool = False
    #: Relabel the data graph by the (degree, id) total order first.
    #: Disable when the graph is already relabeled (the bundled datasets are).
    relabel: bool = True
    #: Database latency model.
    latency: LatencyModel = field(default_factory=LatencyModel)
    #: Per-operation simulated costs.
    cost_model: SimulationCostModel = field(default_factory=SimulationCostModel)
    #: Process backend: how many times a chunk lost to a worker crash may
    #: be re-executed on a replacement worker before the run fails with
    #: ``WorkerCrashed``.  0 disables recovery.
    task_retries: int = 2
    #: Deterministic fault-injection schedule; None — the default — means
    #: no injection (the ``BENU_FAULTS`` env var, resolved at execution
    #: time, can still supply one for chaos runs).
    faults: Optional[FaultConfig] = None
    #: Telemetry (tracing + hot-loop profiling); None — the default —
    #: disables every hook.  A metrics snapshot is still attached to each
    #: result, built once at end-of-run from the aggregated stats.
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("need at least one worker")
        if self.threads_per_worker < 1:
            raise ValueError("need at least one thread per worker")
        if self.split_threshold is not None and self.split_threshold < 1:
            raise ValueError("split threshold must be positive")
        if self.task_retries < 0:
            raise ValueError("task retries must be non-negative")
        if isinstance(self.faults, str):
            # Accept the BENU_FAULTS string grammar directly.
            self.faults = FaultConfig.parse(self.faults)
        if not 0 <= self.optimization_level <= 3:
            raise ValueError("optimization level must be 0..3")
        if self.adjacency_backend not in ADJACENCY_BACKENDS:
            raise ValueError(
                f"unknown adjacency backend {self.adjacency_backend!r}; "
                f"options: {sorted(ADJACENCY_BACKENDS)}"
            )
        if self.execution_backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"unknown execution backend {self.execution_backend!r}; "
                f"options: {sorted(EXECUTION_BACKENDS)}"
            )
        from ..storage.policies import POLICIES

        if self.cache_policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {self.cache_policy!r}; "
                f"options: {sorted(POLICIES)}"
            )


def build_store(graph: Graph, config: BenuConfig) -> DistributedKVStore:
    """The distributed store ``config`` describes, loaded with ``graph``.

    The one store build: the cluster, the simulated backend and the
    service's catalog all call it, so a store's latency and row price
    are always the config's.
    """
    return DistributedKVStore.from_graph(
        graph, latency=config.latency, backend=config.adjacency_backend
    )
