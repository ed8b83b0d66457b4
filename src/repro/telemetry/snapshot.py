"""The per-run telemetry snapshot attached to every :class:`BenuResult`.

One :class:`TelemetrySnapshot` bundles the run's :class:`MetricsRegistry`
(populated at the end of the run by
:func:`repro.engine.backends.base.finish_run`, whose ``LEDGER`` table maps
the fields of the ``QueryStats``/``CacheStats``/``TaskCounters``/
``KernelStats`` structs onto the metric names below, plus any live
histograms the profiler and storage hooks filled in) and, when tracing
was on, the :class:`~repro.telemetry.tracing.Tracer` holding the span
tree.

The snapshot's properties are *registry-backed views*: ``db_queries``,
``cache_hit_rate``, ``instruction_counts`` etc. read straight out of the
registry, so they agree with the stats structs by construction — the
parity the telemetry tests pin down.

Mapping to the paper (details in DESIGN.md):

========================  ==============================================
registry metric           paper quantity
========================  ==============================================
benu_db_queries_total     #DB queries (Fig. 7's communication bars)
benu_db_bytes_total       shuffled bytes stand-in (Table V/VI comm.)
benu_cache_*_total        cache hit ratio sweep (Fig. 8)
benu_instructions_total   instruction-count cost model (Section IV-C)
benu_task_sim_seconds     task size distribution (Fig. 9 splitting)
benu_makespan_seconds     job makespan (Figs. 9, 10)
========================  ==============================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from .registry import Counter, Histogram, HistogramValue, MetricsRegistry
from .tracing import Tracer

__all__ = [
    "TelemetrySnapshot",
    "M_DB_QUERIES",
    "M_DB_BYTES",
    "M_DB_SIM_SECONDS",
    "M_CACHE_HITS",
    "M_CACHE_MISSES",
    "M_CACHE_EVICTIONS",
    "M_INSTRUCTIONS",
    "M_TRC_MISSES",
    "M_TASKS",
    "M_KERNEL_CALLS",
    "M_SHM_ATTACHES",
    "G_SHM_BYTES",
    "G_MAKESPAN",
    "G_WALL",
    "G_WORKERS",
    "G_CACHE_HIT_RATIO",
    "H_TASK_SIM_SECONDS",
    "H_DB_QUERY_BYTES",
    "M_SERVICE_QUERIES",
    "M_SERVICE_REJECTED",
    "M_PLAN_CACHE_HITS",
    "M_PLAN_CACHE_MISSES",
    "G_SERVICE_RUNNING",
    "G_SERVICE_QUEUED",
    "G_CATALOG_BYTES",
    "M_CATALOG_EVICTIONS",
    "H_QUERY_WALL_SECONDS",
    "H_QUERY_QERROR",
    "QERROR_BUCKETS",
    "G_PLAN_PREDICTED",
    "G_PLAN_QERROR",
    "M_WORKER_CRASHES",
    "M_TASK_RETRIES",
    "M_FAULTS_INJECTED",
]

# Canonical metric names (``benu_`` prefix, Prometheus-style suffixes).
M_DB_QUERIES = "benu_db_queries_total"
M_DB_BYTES = "benu_db_bytes_total"
M_DB_SIM_SECONDS = "benu_db_sim_seconds_total"
M_CACHE_HITS = "benu_cache_hits_total"
M_CACHE_MISSES = "benu_cache_misses_total"
M_CACHE_EVICTIONS = "benu_cache_evictions_total"
M_INSTRUCTIONS = "benu_instructions_total"
M_TRC_MISSES = "benu_trc_cache_misses_total"
M_TASKS = "benu_tasks_total"
M_KERNEL_CALLS = "benu_kernel_calls_total"
M_SHM_ATTACHES = "benu_shm_attaches_total"
G_SHM_BYTES = "benu_shm_bytes"
G_MAKESPAN = "benu_makespan_seconds"
G_WALL = "benu_wall_seconds"
G_WORKERS = "benu_workers"
G_CACHE_HIT_RATIO = "benu_cache_hit_ratio"
H_TASK_SIM_SECONDS = "benu_task_sim_seconds"
H_DB_QUERY_BYTES = "benu_db_query_bytes"

# Query-service metrics (the resident engine built on top of one-shot runs).
M_SERVICE_QUERIES = "benu_service_queries_total"
M_SERVICE_REJECTED = "benu_service_rejected_total"
M_PLAN_CACHE_HITS = "benu_service_plan_cache_hits_total"
M_PLAN_CACHE_MISSES = "benu_service_plan_cache_misses_total"
G_SERVICE_RUNNING = "benu_service_running_queries"
G_SERVICE_QUEUED = "benu_service_queued_queries"
G_CATALOG_BYTES = "benu_service_catalog_bytes"
M_CATALOG_EVICTIONS = "benu_service_catalog_evictions_total"
H_QUERY_WALL_SECONDS = "benu_service_query_wall_seconds"

H_QUERY_QERROR = "benu_service_query_q_error"

# BENU-QL front-end: one count per logical-optimizer rule firing,
# labeled by rule name.
M_LANG_RULES = "benu_lang_rule_fired_total"

#: Bucket bounds for q-error histograms (a ratio >= 1).
QERROR_BUCKETS = (1.0, 1.5, 2.0, 5.0, 10.0, 100.0, 1000.0)

# Predicted-vs-actual plan accounting (the §IV-C/§V estimator confronted
# with the exact executed counts; the measurement half of adaptive
# re-planning).
G_PLAN_PREDICTED = "benu_plan_predicted_executions"
G_PLAN_QERROR = "benu_plan_q_error"

# Fault tolerance: crashes survived, work re-executed, faults injected.
M_WORKER_CRASHES = "benu_worker_crashes_total"
M_TASK_RETRIES = "benu_task_retries_total"
M_FAULTS_INJECTED = "benu_faults_injected_total"


@dataclass
class TelemetrySnapshot:
    """Everything one run measured, behind one machine-readable interface."""

    registry: MetricsRegistry
    #: Whether telemetry (tracing/profiling hooks) was enabled for the run.
    enabled: bool = False
    #: The job tracer; None when tracing was off.
    tracer: Optional[Tracer] = None

    # -- registry-backed views -----------------------------------------
    def _total(self, name: str) -> float:
        return self.registry.counter_total(name)

    @property
    def db_queries(self) -> int:
        """Total distributed-store queries (the paper's #queries)."""
        return int(self._total(M_DB_QUERIES))

    @property
    def db_bytes(self) -> int:
        return int(self._total(M_DB_BYTES))

    @property
    def db_sim_seconds(self) -> float:
        return self._total(M_DB_SIM_SECONDS)

    @property
    def cache_hits(self) -> int:
        return int(self._total(M_CACHE_HITS))

    @property
    def cache_misses(self) -> int:
        return int(self._total(M_CACHE_MISSES))

    @property
    def cache_evictions(self) -> int:
        return int(self._total(M_CACHE_EVICTIONS))

    @property
    def cache_lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of adjacency lookups served from worker caches (Fig. 8)."""
        lookups = self.cache_lookups
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def instruction_counts(self) -> Dict[str, int]:
        """Executions per instruction type: INT/TRC/DBQ/ENU/RES."""
        metric = self.registry.get(M_INSTRUCTIONS)
        out: Dict[str, int] = {}
        if isinstance(metric, Counter):
            for labels, value in metric.samples():
                instr = labels.get("instr", "?")
                out[instr] = out.get(instr, 0) + int(value)
        return out

    @property
    def results(self) -> int:
        return self.instruction_counts.get("RES", 0)

    @property
    def kernel_counts(self) -> Dict[str, int]:
        """Intersections served per kernel (empty: compiled plans call none)."""
        metric = self.registry.get(M_KERNEL_CALLS)
        out: Dict[str, int] = {}
        if isinstance(metric, Counter):
            for labels, value in metric.samples():
                kernel = labels.get("kernel", "?")
                out[kernel] = out.get(kernel, 0) + int(value)
        return {k: v for k, v in out.items() if v}

    def _gauge_by_instr(self, name: str) -> Dict[str, float]:
        metric = self.registry.get(name)
        out: Dict[str, float] = {}
        if metric is not None and metric.kind == "gauge":
            for labels, value in metric.samples():
                out[labels.get("instr", "?")] = float(value)
        return out

    @property
    def predicted_counts(self) -> Dict[str, float]:
        """Cost-model execution estimates per instruction type.

        Empty when the run's plan carried no predictions (plans built
        outside :func:`repro.engine.benu.build_plan`).
        """
        return self._gauge_by_instr(G_PLAN_PREDICTED)

    @property
    def q_errors(self) -> Dict[str, float]:
        """Per-instruction-type q-error: max(pred/actual, actual/pred)."""
        return self._gauge_by_instr(G_PLAN_QERROR)

    def instruction_wall_samples(self) -> Dict[str, HistogramValue]:
        """Sampled wall-time distributions per instruction type.

        Empty unless the run profiled (``TelemetryConfig(profile=True)``).
        """
        from .profiler import INSTRUCTION_SECONDS_METRIC

        metric = self.registry.get(INSTRUCTION_SECONDS_METRIC)
        out: Dict[str, HistogramValue] = {}
        if isinstance(metric, Histogram):
            for labels, value in metric.samples():
                out[labels.get("instr", "?")] = value
        return out

    @property
    def tasks(self) -> int:
        return int(self._total(M_TASKS))

    def _gauge(self, name: str) -> float:
        metric = self.registry.get(name)
        return metric.value() if metric is not None else 0.0

    @property
    def makespan_seconds(self) -> float:
        return self._gauge(G_MAKESPAN)

    @property
    def wall_seconds(self) -> float:
        return self._gauge(G_WALL)

    # -- exports --------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """The headline quantities as one flat JSON-able record."""
        return {
            "db_queries": self.db_queries,
            "db_bytes": self.db_bytes,
            "db_sim_seconds": self.db_sim_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "instruction_counts": self.instruction_counts,
            "predicted_counts": self.predicted_counts,
            "q_errors": self.q_errors,
            "tasks": self.tasks,
            "makespan_seconds": self.makespan_seconds,
            "wall_seconds": self.wall_seconds,
        }

    def as_dict(self) -> dict:
        """Full JSON-able export: summary + every registered metric."""
        return {
            "enabled": self.enabled,
            "summary": self.summary(),
            "metrics": self.registry.as_dict(),
        }

    def trace_tree(self) -> Optional[dict]:
        """The nested span-tree export, or None when tracing was off."""
        return self.tracer.to_dict() if self.tracer is not None else None

    def chrome_trace(self) -> Optional[dict]:
        """The Chrome ``trace_event`` export, or None when tracing was off."""
        return self.tracer.to_chrome() if self.tracer is not None else None

    def write_trace(self, path, format: str = "chrome") -> None:
        """Write the trace to ``path`` ('chrome' trace_event or nested 'json')."""
        if self.tracer is None:
            raise RuntimeError(
                "no trace was recorded; run with "
                "BenuConfig(telemetry=TelemetryConfig(trace=True))"
            )
        self.tracer.write(path, format=format)

    def write_metrics(self, path) -> None:
        """Write the metrics export (``as_dict``) to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
