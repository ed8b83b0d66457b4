"""Bind a BENU-QL query (or a bare pattern) to the shared plan pipeline.

:func:`execute_query` is the one place a query meets Algorithm 2.  It
adds only query semantics: zero start vertices for an unsatisfiable
query, projection or GROUP BY as sinks, VCBC expansion, and a typed
error for label predicates on an unlabeled graph; ``execute_plan`` binds
the plan that runs (count twin, label and degree pools).  Callers differ
only in where the plan comes from — ``prepare_plan`` here
(:func:`run_query`), the plan cache in ``BenuService`` — and in the
runtime they bring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from ..engine.benu import (
    DataGraph,
    PreparedData,
    execute_plan,
    prepare_data,
    prepare_plan,
)
from ..engine.config import BenuConfig
from ..engine.control import ExecutionControl
from ..engine.results import BenuResult
from ..engine.sinks import (
    CollectSink,
    CountSink,
    GroupCountSink,
    LimitSink,
    ProjectingSink,
    RowBlock,
    block_emitter,
)
from ..graph.graph import Vertex
from ..labeled.pattern import LabeledPatternGraph
from ..pattern.pattern_graph import PatternGraph
from ..plan.compression import expand_code
from ..plan.generation import ExecutionPlan
from .errors import QuerySemanticError
from .lowering import LoweredQuery, lower_query

#: A lowered BENU-QL query, or a bare pattern (rows or count by sink).
Query = Union[LoweredQuery, PatternGraph]
#: GROUP BY key → match count, in original ids.
Groups = Dict[Hashable, int]


@dataclass(frozen=True)
class QueryResult:
    """The answer to one BENU-QL query.

    Exactly one of ``count`` / ``matches`` / ``groups`` is meaningful,
    selected by ``kind`` (``count`` is also populated alongside matches
    and groups for convenience).
    """

    kind: str
    columns: Tuple[str, ...]
    count: int
    matches: Optional[List[Tuple[Vertex, ...]]] = None
    groups: Optional[Groups] = None
    lowered: Optional[LoweredQuery] = None

    def rows(self) -> List[Tuple]:
        """Uniform tabular view (CLI rendering)."""
        if self.kind == "count":
            return [(self.count,)]
        if self.kind == "groups":
            return [(k, v) for k, v in sorted((self.groups or {}).items())]
        return list(self.matches or [])


class _ExpandingSink:
    """VCBC codes in, full matches in original ids out, in code order."""

    def __init__(self, inner, plan: ExecutionPlan, inverse) -> None:
        self._inner_block = block_emitter(inner)
        self._plan = plan
        self._translate = inverse.__getitem__ if inverse is not None else None

    def emit_block(self, block: RowBlock) -> None:
        plan = self._plan
        flat = [
            v for code in block for m in expand_code(plan, code) for v in m
        ]
        if self._translate is not None:
            flat = list(map(self._translate, flat))
        if flat:
            self._inner_block(RowBlock(flat, plan.pattern.n))


def _pattern(query: Query) -> PatternGraph:
    return query.pattern if isinstance(query, LoweredQuery) else query


def execute_query(
    query: Query,
    plan: ExecutionPlan,
    prepared: PreparedData,
    config: BenuConfig,
    start_vertices: Optional[Sequence[Vertex]] = None,
    sink=None,
    **runtime,
) -> Tuple[BenuResult, Optional[Groups]]:
    """Run ``query`` on its pool-less ``plan``: ``(result, groups)``.

    ``sink`` is the caller's inner sink (None = count only); projection
    narrows rows before it, GROUP BY counts them in its own sink instead
    (``groups``: key → count in original ids; None for other kinds), and
    a compressed run's codes are expanded first.  ``start_vertices`` is
    the caller's base (a shard's owned slice; None = every vertex); an
    unsatisfiable query gets none, so it runs over zero tasks on any
    backend.  ``runtime`` goes to ``execute_plan`` (telemetry, cluster,
    control, caches, progress).
    """
    if (
        isinstance(_pattern(query), LabeledPatternGraph)
        and prepared.label_index is None
    ):
        raise QuerySemanticError(
            "query uses label predicates but the data graph has no labels"
        )
    group_sink = None
    if isinstance(query, LoweredQuery):
        if query.unsatisfiable:
            start_vertices = []
        if query.kind == "groups":
            sink = group_sink = GroupCountSink(query.group_by)
        elif sink is not None and query.projection is not None:
            sink = ProjectingSink(sink, query.projection)
    if sink is not None and plan.compressed:
        sink = _ExpandingSink(sink, plan, prepared.inverse)
    result = execute_plan(
        plan, prepared, config,
        sink=sink, start_vertices=start_vertices, **runtime,
    )
    return result, None if group_sink is None else dict(group_sink.counts)


def run_local(
    query: Query,
    data: DataGraph,
    config: Optional[BenuConfig] = None,
    sink=None,
    control: Optional[ExecutionControl] = None,
) -> Tuple[BenuResult, Optional[Groups]]:
    """Plan ``query`` for ``data`` and run it in-process."""
    config = config or BenuConfig()
    prepared = prepare_data(data, config)
    plan = prepare_plan(_pattern(query), prepared, config)
    return execute_query(
        query, plan, prepared, config, sink=sink, control=control
    )


def run_query(
    query: Union[str, LoweredQuery],
    data: DataGraph,
    config: Optional[BenuConfig] = None,
    limit: Optional[int] = None,
) -> QueryResult:
    """Run a BENU-QL query against ``data`` and return its result.

    ``data`` may be a plain :class:`Graph` or a :class:`LabeledGraph`;
    label predicates require the latter.  An unlabeled query against a
    ``LabeledGraph`` matches on structure alone.  ``limit`` caps a
    stream's rows and stops the run once it has them.  Under a
    compressed config every kind answers in full matches.
    """
    lowered = lower_query(query) if isinstance(query, str) else query
    config = config or BenuConfig()
    rows = sink = control = None
    if lowered.kind == "stream":
        sink = rows = CollectSink()
        if limit is not None:
            control = ExecutionControl()
            sink = LimitSink(rows, limit, control)
    elif lowered.kind == "count" and config.compressed:
        sink = CountSink()  # codes are not matches: count the expansions
    result, groups = run_local(lowered, data, config, sink, control)
    if groups is not None:
        count = sum(groups.values())
    else:  # each sink here counts its rows
        count = (result if sink is None else sink).count
    return QueryResult(
        kind=lowered.kind,
        columns=lowered.columns,
        count=count,
        matches=None if rows is None else rows.results,
        groups=groups,
        lowered=lowered,
    )
