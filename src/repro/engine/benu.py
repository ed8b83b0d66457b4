"""The top-level BENU API (Algorithm 2).

``run_benu`` wires the full pipeline: relabel the data graph under the
(degree, id) total order, generate the best execution plan, build the
distributed store, split tasks, execute on the simulated cluster, and
translate results back to the original vertex ids.

The pipeline is factored into reusable stages so a resident query
service can pay each cost once instead of per query:

* :func:`prepare_data` — relabel a data graph and remember the mapping;
* :func:`prepare_plan` — plan search/generation for a prepared graph;
* :func:`execute_plan` — run a plan on a (possibly pre-built, warm)
  cluster, with optional streaming sink and cooperative control.

Convenience wrappers: ``count_subgraphs`` and ``enumerate_subgraphs``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..graph.graph import Graph, Vertex
from ..graph.order import invert_mapping, relabel_by_degree_order
from ..pattern.pattern_graph import PatternGraph
from ..plan.compression import compress_plan
from ..plan.cost import DEFAULT_STATS, GraphStats, predict_instruction_counts
from ..plan.generation import ExecutionPlan, generate_raw_plan
from ..plan.optimizer import apply_generalized_clique_cache, optimize
from ..plan.pools import bind_pools
from ..plan.search import generate_best_plan
from ..plan.validate import validate_plan
from ..telemetry.runtime import Telemetry
from .backends import ExecutionRequest, get_backend
from .config import BenuConfig
from .control import ExecutionControl
from .results import BenuResult
from .sinks import TranslatingSink, block_translator

if TYPE_CHECKING:  # the cluster runs plans through execute_plan
    from .cluster import SimulatedCluster

PatternLike = Union[Graph, PatternGraph]


def _as_pattern(pattern: PatternLike, name: str = "pattern") -> PatternGraph:
    if isinstance(pattern, PatternGraph):
        return pattern
    return PatternGraph(pattern, name=name)


def build_plan(
    pattern: PatternLike,
    data: Optional[Graph] = None,
    order: Optional[Sequence[Vertex]] = None,
    optimization_level: int = 3,
    compressed: bool = False,
    generalized_clique_cache: bool = False,
    tracer=None,
) -> ExecutionPlan:
    """Build an execution plan, searched (default) or from a fixed order.

    With ``order`` given, the plan is generated for exactly that matching
    order and optimized; otherwise Algorithm 3 searches for the best one
    using ``data``'s statistics (or the defaults).  ``tracer`` (a
    :class:`repro.telemetry.Tracer`) records the search's phases as spans.
    """
    pattern = _as_pattern(pattern)
    stats = GraphStats.of(data) if data is not None else None
    if order is not None:
        plan = optimize(generate_raw_plan(pattern, order), optimization_level)
        if compressed:
            plan = compress_plan(plan)
    else:
        kwargs = {"stats": stats} if stats is not None else {}
        plan = generate_best_plan(
            pattern,
            optimization_level=optimization_level,
            compressed=compressed,
            tracer=tracer,
            **kwargs,
        ).plan
    if generalized_clique_cache:
        apply_generalized_clique_cache(plan)
    validate_plan(plan)
    # Remember what the §IV-C estimator expects each instruction type to
    # execute, so the run can report predicted-vs-actual q-errors.  Plan
    # shape and codegen are untouched — compiled sources stay
    # byte-identical with or without the predictions.
    plan.predicted_counts = predict_instruction_counts(
        plan, stats if stats is not None else DEFAULT_STATS
    )
    return plan


@dataclass
class PreparedData:
    """A data graph readied for execution, with its id translation.

    ``graph`` carries execution-space ids (relabeled under the (degree,
    id) total order when the source wasn't already); ``mapping`` /
    ``inverse`` translate original ↔ execution ids, both None when no
    relabeling happened.
    """

    graph: Graph
    mapping: Optional[Dict[Vertex, Vertex]] = None
    inverse: Optional[Dict[Vertex, Vertex]] = None

    @property
    def relabeled(self) -> bool:
        return self.mapping is not None

    @cached_property
    def inverse_blocks(self):
        """``inverse`` in block form (see ``block_translator``), built once
        for every query that streams over this graph."""
        return block_translator(self.inverse)

    def degree_pools(
        self, pattern: PatternGraph
    ) -> Tuple[Dict[Vertex, str], Dict[str, frozenset]]:
        """The degree filter's pools for ``pattern`` on ``graph``.

        Pattern vertex u of degree k ≥ 2 gets ``VDk = {v : d_G(v) ≥ k}``
        (degree-1 vertices need none: every candidate has an edge).  Each
        pool is built once per threshold and kept for every later query.
        """
        built = self.__dict__.setdefault("_degree_pools", {})
        pools, constants = {}, {}
        for u in pattern.vertices:
            k = pattern.degree(u)
            if k < 2:
                continue
            name = pools[u] = f"VD{k}"
            if k not in built:
                graph = self.graph
                built[k] = frozenset(
                    v for v in graph.vertices if graph.degree(v) >= k
                )
            constants[name] = built[k]
        return pools, constants


def prepare_data(
    data: Graph, config: Optional[BenuConfig] = None, tracer=None
) -> PreparedData:
    """Relabel ``data`` per ``config.relabel`` and keep the translation."""
    config = config or BenuConfig()
    if not config.relabel:
        return PreparedData(data)
    if tracer is not None:
        with tracer.span("relabel"):
            relabeled, mapping = relabel_by_degree_order(data)
    else:
        relabeled, mapping = relabel_by_degree_order(data)
    return PreparedData(relabeled, mapping, invert_mapping(mapping))


def prepare_plan(
    pattern: PatternLike,
    prepared: PreparedData,
    config: Optional[BenuConfig] = None,
    order: Optional[Sequence[Vertex]] = None,
    tracer=None,
) -> ExecutionPlan:
    """Build the execution plan for a prepared graph under ``config``.

    With ``order`` given, Algorithm 3's search is skipped and the plan is
    generated for exactly that matching order — the path a plan-cache hit
    takes (the emitted match set is order-independent: it is fixed by the
    pattern's symmetry-breaking conditions alone).
    """
    config = config or BenuConfig()
    return build_plan(
        _as_pattern(pattern),
        prepared.graph,
        order=order,
        optimization_level=config.optimization_level,
        compressed=config.compressed,
        generalized_clique_cache=config.generalized_clique_cache,
        tracer=tracer,
    )


def execute_plan(
    plan: ExecutionPlan,
    prepared: PreparedData,
    config: Optional[BenuConfig] = None,
    telemetry: Optional[Telemetry] = None,
    cluster: Optional["SimulatedCluster"] = None,
    sink=None,
    control: Optional[ExecutionControl] = None,
    tasks=None,
    worker_caches=None,
    progress=None,
    start_vertices: Optional[Sequence[Vertex]] = None,
) -> BenuResult:
    """Run ``plan`` over prepared data and translate results back.

    The runtime is ``config.execution_backend``: the in-process backends
    (simulated / inline) run over a distributed store — ``cluster`` lends
    an existing :class:`SimulatedCluster`'s store (and its telemetry when
    none is given; the run keeps ``config``), otherwise one is built —
    while the process backend fans tasks out over OS worker processes
    against the raw graph (the store and ``worker_caches`` are ignored
    there).

    ``worker_caches`` keeps worker database caches warm across calls;
    ``sink`` streams matches instead of collecting them (``collect=True``
    is a :class:`~repro.engine.sinks.CollectSink` stream); either way full
    matches arrive translated to original ids by one
    :class:`~repro.engine.sinks.TranslatingSink`, while compressed codes
    stay in execution space; ``control`` is checked at every boundary
    between chunks of tasks, on whichever side of the process boundary
    the tasks run; ``progress`` (a :class:`repro.telemetry.QueryProgress`)
    is updated at the same granularity, so a concurrent poller sees live
    completion; ``start_vertices`` restricts task generation to a slice of
    the start-vertex space (a shard's owned vertices).  The process
    backend's queue chunks depend only on the task count and
    ``config.num_workers``.  ``config.degree_filter`` binds the graph's
    degree pools to ``plan`` here, per run, and drops the start vertices
    of too small a degree.
    """
    config = config or BenuConfig()
    if config.degree_filter:
        plan, start_vertices = bind_pools(
            plan, *prepared.degree_pools(plan.pattern), start_vertices,
            stats=GraphStats.of(prepared.graph),
        )
    store = None
    if cluster is not None:
        store = cluster.store
        if telemetry is None:
            telemetry = cluster.telemetry
    request = ExecutionRequest(
        plan=plan,
        graph=prepared.graph,
        config=config,
        telemetry=telemetry,
        tasks=tasks,
        sink=sink,
        control=control,
        store=store,
        worker_caches=worker_caches,
        start_vertices=start_vertices,
    )
    if progress is not None:
        request.progress = progress
    if request.sink is not None and prepared.relabeled and not plan.compressed:
        # Full matches, streamed or collected, leave in original ids;
        # compressed codes stay in execution space (their expansion
        # constraints compare under ≺).
        request.sink = TranslatingSink(
            request.sink, prepared.inverse, prepared.inverse_blocks
        )
    result = get_backend(config.execution_backend).execute(request)
    if prepared.relabeled:
        result.id_mapping = prepared.inverse
    return result


def run_benu(
    pattern: PatternLike,
    data: Graph,
    config: Optional[BenuConfig] = None,
    plan: Optional[ExecutionPlan] = None,
) -> BenuResult:
    """Run the full BENU pipeline and return a :class:`BenuResult`.

    The data graph is relabeled by the (degree, id) total order unless
    ``config.relabel`` is False (the bundled datasets are pre-relabeled);
    collected matches are translated back to the original ids.
    """
    config = config or BenuConfig()
    pattern = _as_pattern(pattern)
    telemetry = Telemetry(config.telemetry)
    tracer = telemetry.tracer

    with tracer.span(
        "benu-job",
        args={
            "pattern": pattern.name,
            "data_vertices": data.num_vertices,
            "data_edges": data.num_edges,
        },
    ):
        prepared = prepare_data(data, config, tracer=tracer)

        if plan is None:
            with tracer.span("plan-search") as span:
                plan = prepare_plan(pattern, prepared, config, tracer=tracer)
                span.args["order"] = [str(v) for v in plan.order]
        else:
            validate_plan(plan)

        result = execute_plan(plan, prepared, config, telemetry=telemetry)
    return result


def count_subgraphs(
    pattern: PatternLike, data: Graph, config: Optional[BenuConfig] = None
) -> int:
    """Number of subgraphs of ``data`` isomorphic to ``pattern``.

    Thanks to symmetry breaking this equals the number of matches BENU
    enumerates (Definition 2 + the bijection of Section II-A).

    >>> from repro.graph.graph import complete_graph
    >>> from repro.graph.patterns import TRIANGLE
    >>> count_subgraphs(TRIANGLE, complete_graph(4))
    4
    """
    config = config or BenuConfig()
    if config.compressed:
        raise ValueError("count_subgraphs counts full matches; use compressed=False")
    return run_benu(pattern, data, config).count


def enumerate_subgraphs(
    pattern: PatternLike, data: Graph, config: Optional[BenuConfig] = None
) -> List[Tuple[Vertex, ...]]:
    """All matches ``(f_1, ..., f_n)`` of ``pattern`` in ``data``.

    Each tuple is indexed by sorted pattern vertex; exactly one match per
    isomorphic subgraph is returned (symmetry breaking dedups).
    """
    config = replace(config or BenuConfig(), collect=True)
    return list(run_benu(pattern, data, config).expanded_matches())
