"""The labeled BENU runner — property-graph subgraph enumeration.

There is no labeled execution loop: a labeled run is the ordinary
pipeline — :func:`~repro.engine.benu.prepare_plan` →
:func:`~repro.plan.pools.bind_pools` with the pattern's
:func:`~repro.labeled.plans.label_pools` (per-label candidate pools as
plan constants, start vertices cut to the start vertex's pool) →
:func:`~repro.engine.benu.execute_plan` — bound in one place,
:func:`repro.lang.run.execute_query`.  Everything the shared
path provides — the three execution backends, streaming sinks,
cooperative control, result translation — therefore works for labeled
patterns unchanged.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from ..engine.config import BenuConfig
from ..engine.results import BenuResult
from ..graph.graph import Vertex
from .graphs import LabeledGraph
from .pattern import LabeledPatternGraph


def run_labeled_benu(
    pattern: LabeledPatternGraph,
    data: LabeledGraph,
    config: Optional[BenuConfig] = None,
) -> BenuResult:
    """Enumerate label-preserving matches of ``pattern`` in ``data``.

    Returns the same :class:`BenuResult` the unlabeled pipeline does
    (counts are matches or VCBC codes depending on ``config.compressed``).
    """
    # The query runner sits above labeled/ (it lowers BENU-QL onto these
    # patterns), so it is imported at call time.
    from ..lang.run import run_local

    return run_local(pattern, data, config)[0]


def count_labeled_subgraphs(
    pattern: LabeledPatternGraph,
    data: LabeledGraph,
    config: Optional[BenuConfig] = None,
) -> int:
    """Number of label-preserving subgraph instances.

    >>> from repro.graph.graph import complete_graph
    >>> data = LabeledGraph(
    ...     complete_graph(4).edges(), {1: "A", 2: "A", 3: "B", 4: "B"}
    ... )
    >>> tri = LabeledPatternGraph(complete_graph(3), {1: "A", 2: "A", 3: "B"})
    >>> count_labeled_subgraphs(tri, data)  # choose the A-pair and one B
    2
    """
    config = config or BenuConfig()
    if config.compressed:
        raise ValueError("counting full matches requires compressed=False")
    return run_labeled_benu(pattern, data, config).count


def enumerate_labeled_subgraphs(
    pattern: LabeledPatternGraph,
    data: LabeledGraph,
    config: Optional[BenuConfig] = None,
) -> List[Tuple[Vertex, ...]]:
    """All label-preserving matches, one per subgraph instance."""
    config = replace(config or BenuConfig(), collect=True)
    return list(run_labeled_benu(pattern, data, config).expanded_matches())
