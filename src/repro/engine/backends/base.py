"""The execution-backend contract and the utilities every backend shares.

The paper's Fig. 2 architecture has exactly one execution model — workers
pulling local search tasks against a shared adjacency store — and this
package keeps exactly one *logical* pipeline for it.  What varies is the
runtime underneath: the deterministic simulated cluster, the literal
plan interpreter, or a pool of OS processes.  Each of those is an
:class:`ExecutionBackend`; they all consume the same
:class:`ExecutionRequest` and produce the same
:class:`~repro.engine.results.BenuResult`, with the same telemetry
metric names, so everything above the backend (``run_benu``, the CLI,
the query service) selects one by name and never special-cases it.

Shared here:

* :func:`resolve_tasks` — task generation under the tracer span every
  backend records;
* :func:`run_mode` — a run collects iff it has a sink, and
  ``config.collect`` is one (:class:`~repro.engine.sinks.CollectSink`);
* :func:`packs_rows` — the one rule for whether a run's row blocks
  (:class:`~repro.engine.sinks.RowBlock`) are int64 arrays or lists;
* :data:`LEDGER` / :func:`mirror` — which stats-struct field becomes
  which metric: the stats structs of the lower layers know nothing of
  the registry;
* :func:`finish_run` — the end of every run: records the worker ledgers
  and run gauges and builds the :class:`BenuResult`, so metric names and
  result fields are identical across backends by construction.
"""

from __future__ import annotations

import abc
import time as _time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ...graph.graph import Graph
from ...plan.codegen import TaskCounters
from ...plan.cost import q_error
from ...plan.generation import ExecutionPlan
from ...storage.cache import CacheStats
from ...storage.kvstore import DistributedKVStore, QueryStats
from ...telemetry.progress import NULL_PROGRESS
from ...telemetry.registry import MetricsRegistry
from ...telemetry.runtime import Telemetry
from ...telemetry.snapshot import (
    G_CACHE_HIT_RATIO,
    G_MAKESPAN,
    G_PLAN_PREDICTED,
    G_PLAN_QERROR,
    G_WALL,
    G_WORKERS,
    H_TASK_SIM_SECONDS,
    M_CACHE_EVICTIONS,
    M_CACHE_HITS,
    M_CACHE_MISSES,
    M_DB_BYTES,
    M_DB_QUERIES,
    M_DB_SIM_SECONDS,
    M_INSTRUCTIONS,
    M_TASKS,
    M_TRC_MISSES,
)
from ..config import BenuConfig
from ..control import ExecutionControl
from ..local_task import LocalSearchTask
from ..results import BenuResult
from ..sinks import CollectSink
from ..task_split import generate_tasks


@dataclass
class ExecutionRequest:
    """Everything one backend needs to run one plan over one graph.

    ``store`` and ``worker_caches`` are reuse hooks for long-lived owners
    (the query service's graph catalog); backends that cannot use them
    (the process backend runs against the raw graph) simply ignore them.
    ``tasks`` overrides task generation — Exp-4 compares splitting on/off
    over identical plans this way.
    """

    plan: ExecutionPlan
    graph: Graph
    config: BenuConfig = field(default_factory=BenuConfig)
    telemetry: Optional[Telemetry] = None
    tasks: Optional[List[LocalSearchTask]] = None
    sink: object = None
    control: Optional[ExecutionControl] = None
    store: Optional[DistributedKVStore] = None
    worker_caches: Optional[list] = None
    #: Live progress tracker (the service polls it mid-run); the shared
    #: no-op by default, so backends report unconditionally.
    progress: object = NULL_PROGRESS
    #: Restrict task generation to these start vertices (a shard's owned
    #: slice of the task space); None runs the whole graph.  Ignored when
    #: an explicit ``tasks`` list is given.
    start_vertices: Optional[Sequence] = None
    #: The sink ``config.collect`` became; None when the run does not
    #: collect.  Its rows are the result's ``matches`` (or ``codes``).
    collector: Optional[CollectSink] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.telemetry is None:
            self.telemetry = Telemetry(self.config.telemetry)
        if self.sink is None and self.config.collect:
            # The one place collect=True becomes a sink: the bottom of
            # the chain a stream uses (an owner may wrap it, as
            # ``execute_plan`` wraps it in the id translation).
            self.sink = self.collector = CollectSink()

    @property
    def mode(self) -> str:
        """Compilation mode: ``collect`` or ``count``."""
        return run_mode(self.config, self.sink)


class ExecutionBackend(abc.ABC):
    """One runtime for the BENU task loop.

    The contract: :meth:`execute` runs every task of ``request.plan``
    over ``request.graph``, hands their rows to ``request.sink`` as row
    blocks in task order (in execution-space ids — translation happens a
    layer up), honors ``request.control`` at task or chunk boundaries (a
    cancel or expired deadline raises the typed
    :class:`~repro.engine.control.ExecutionInterrupted` out of this
    method and no partial result is returned; a reached LIMIT ends the
    run there and returns its result), and returns a
    :class:`~repro.engine.results.BenuResult` whose ``telemetry``
    snapshot uses the canonical metric names of
    :mod:`repro.telemetry.snapshot`.
    """

    #: Registry key (``BenuConfig.execution_backend`` value).
    name: str = "?"

    def execute(self, request: ExecutionRequest):
        """Run the request; return a :class:`BenuResult`.

        A collecting run's rows come back as the result's ``matches`` —
        or, for a compressed plan, its ``codes``.
        """
        result = self._execute(request)
        collector = request.collector
        if collector is not None:
            if request.plan.compressed:
                result.codes = collector.results
            else:
                result.matches = collector.results
        return result

    @abc.abstractmethod
    def _execute(self, request: ExecutionRequest):
        """Run every task, handing the rows to ``request.sink``."""


# ----------------------------------------------------------------- helpers
def resolve_tasks(request: ExecutionRequest, tracer) -> List[LocalSearchTask]:
    """The request's task list, generating (under a span) when not given."""
    if request.tasks is not None:
        return list(request.tasks)
    with tracer.span("task-generation") as span:
        tasks = list(
            generate_tasks(
                request.plan,
                request.graph,
                request.config.split_threshold,
                start_vertices=request.start_vertices,
            )
        )
        span.args["tasks"] = len(tasks)
        if request.start_vertices is not None:
            span.args["start_vertices"] = len(request.start_vertices)
    return tasks


def run_mode(config: BenuConfig, sink) -> str:
    """``collect`` iff the run has a sink — ``config.collect`` is one."""
    return "collect" if sink is not None or config.collect else "count"


def packs_rows(request: ExecutionRequest) -> bool:
    """Whether this run's matches are plain fixed-width int64 rows.

    True for an uncompressed plan (compressed codes carry frozenset
    slots) over a graph whose vertex ids all fit an ``array('q')``.  Such
    a run buffers its rows in an ``array('q')``; any other run with a
    sink in a plain list.  Either way the sink gets row blocks.
    """
    if request.sink is None or request.plan.compressed:
        return False
    try:
        array("q", request.graph.vertices)
    except (TypeError, OverflowError):
        return False
    return True


@dataclass
class WorkerLedger:
    """One worker's end-of-run accounting, backend-agnostic.

    The simulated backend fills it from its :class:`Worker` objects, the
    process backend from the chunk records its processes sent home —
    either way :func:`finish_run` records it under the same metric names.
    """

    worker_id: str
    counters: TaskCounters = field(default_factory=TaskCounters)
    query_stats: QueryStats = field(default_factory=QueryStats)
    cache_stats: CacheStats = field(default_factory=CacheStats)
    num_tasks: int = 0
    task_sim_seconds: List[float] = field(default_factory=list)
    busy_seconds: float = 0.0
    #: Simulated completion time: the busiest thread's share of
    #: ``busy_seconds`` (all of it for a one-thread worker).
    makespan_seconds: float = 0.0
    wall_seconds: float = 0.0


# ------------------------------------------------------------- run ledger
_INSTR_HELP = "instruction executions by type (Table III semantics)"

#: Which field of which stats struct becomes which metric, under which
#: constant labels: ``type -> ((field, metric, help, labels), ...)``.
#: Every metric is a counter the field is added to.  :func:`mirror` is
#: the one reader.
LEDGER: Dict[type, Tuple[Tuple[str, str, str, Dict[str, str]], ...]] = {
    QueryStats: (
        ("queries", M_DB_QUERIES, "distributed KV store queries", {}),
        ("bytes_transferred", M_DB_BYTES,
         "bytes fetched from the distributed KV store", {}),
        ("simulated_seconds", M_DB_SIM_SECONDS,
         "simulated seconds spent on DB round-trips", {}),
    ),
    CacheStats: (
        ("hits", M_CACHE_HITS, "adjacency lookups served by the worker cache", {}),
        ("misses", M_CACHE_MISSES, "adjacency lookups that went to the store", {}),
        ("evictions", M_CACHE_EVICTIONS, "cache entries evicted by the policy", {}),
    ),
    TaskCounters: (
        ("int_ops", M_INSTRUCTIONS, _INSTR_HELP, {"instr": "INT"}),
        ("trc_ops", M_INSTRUCTIONS, _INSTR_HELP, {"instr": "TRC"}),
        ("dbq_ops", M_INSTRUCTIONS, _INSTR_HELP, {"instr": "DBQ"}),
        ("enu_steps", M_INSTRUCTIONS, _INSTR_HELP, {"instr": "ENU"}),
        ("results", M_INSTRUCTIONS, _INSTR_HELP, {"instr": "RES"}),
        ("trc_misses", M_TRC_MISSES,
         "triangle-cache lookups that computed the result", {}),
    ),
}

#: Instruction type -> the :class:`TaskCounters` field holding its exact
#: executed count, which the plan's cost-model estimate predicts.
_INSTR_FIELDS = {
    labels["instr"]: name
    for name, metric, _, labels in LEDGER[TaskCounters]
    if metric == M_INSTRUCTIONS
}


def mirror(registry: MetricsRegistry, stats, **labels) -> None:
    """Record every field of ``stats`` into ``registry`` as :data:`LEDGER` says.

    >>> reg = MetricsRegistry()
    >>> mirror(reg, CacheStats(hits=9, misses=1), worker="2")
    >>> reg.counter_total("benu_cache_hits_total")
    9
    """
    for name, metric, help, constant in LEDGER[type(stats)]:
        sample = {**constant, **labels}
        registry.counter(metric, help, tuple(sample)).inc(
            getattr(stats, name), **sample
        )


def finish_run(
    request: ExecutionRequest,
    registry: MetricsRegistry,
    ledgers: List[WorkerLedger],
    num_tasks: int,
    wall0: float,
    backend: str,
    **extras,
) -> BenuResult:
    """Record a finished run into ``registry`` and return its result.

    The one end of every backend's run: each worker's ledger under its
    ``worker`` label, the plan's cost-model estimates beside their
    q-errors against the executed counts (when the plan carries
    estimates), and the run gauges.
    ``wall0`` is the ``perf_counter`` instant the run started; ``extras``
    are the :class:`BenuResult` fields only one backend knows.
    """
    counters = TaskCounters()
    communication = QueryStats()
    cache = CacheStats()
    per_task: List[float] = []
    task_hist = registry.histogram(
        H_TASK_SIM_SECONDS,
        help="simulated duration per local search task (Fig. 9 skew)",
        labels=("worker",),
    )
    tasks_counter = registry.counter(
        M_TASKS, "local search tasks executed", ("worker",)
    )
    for ledger in ledgers:
        counters = counters + ledger.counters
        communication.merge(ledger.query_stats)
        cache.merge(ledger.cache_stats)
        per_task.extend(ledger.task_sim_seconds)
        wid = ledger.worker_id
        mirror(registry, ledger.query_stats, worker=wid)
        mirror(registry, ledger.cache_stats, worker=wid)
        mirror(registry, ledger.counters, worker=wid)
        tasks_counter.inc(ledger.num_tasks, worker=wid)
        task_hist.observe_many(ledger.task_sim_seconds, worker=wid)

    predicted = getattr(request.plan, "predicted_counts", None)
    if predicted:
        pred_gauge = registry.gauge(
            G_PLAN_PREDICTED,
            help="cost-model execution estimate per instruction type (§IV-C)",
            labels=("instr",),
        )
        qerr_gauge = registry.gauge(
            G_PLAN_QERROR,
            help="max(pred/actual, actual/pred) per instruction type",
            labels=("instr",),
        )
        for instr, pred in predicted.items():
            name = _INSTR_FIELDS.get(instr)
            actual = float(getattr(counters, name)) if name else 0.0
            pred_gauge.set(pred, instr=instr)
            qerr_gauge.set(q_error(pred, actual), instr=instr)

    config = request.config
    makespan = max((ledger.makespan_seconds for ledger in ledgers), default=0.0)
    wall = _time.perf_counter() - wall0
    registry.gauge(G_MAKESPAN, "simulated job makespan").set(makespan)
    registry.gauge(G_WALL, "wall-clock run time").set(wall)
    registry.gauge(G_WORKERS, "worker machines/processes").set(config.num_workers)
    registry.gauge(G_CACHE_HIT_RATIO, "database cache hit ratio").set(
        cache.hit_rate
    )
    return BenuResult(
        plan=request.plan,
        count=counters.results,
        counters=counters,
        communication=communication,
        cache=cache,
        num_tasks=num_tasks,
        num_workers=config.num_workers,
        makespan_seconds=makespan,
        per_worker_busy_seconds=[ledger.busy_seconds for ledger in ledgers],
        per_task_sim_seconds=per_task,
        wall_seconds=wall,
        execution_backend=backend,
        adjacency_backend=config.adjacency_backend,
        telemetry=request.telemetry.snapshot(registry),
        **extras,
    )
