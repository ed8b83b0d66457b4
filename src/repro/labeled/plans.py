"""Label pools: a labeled pattern's candidate pools on one data graph.

Each label the pattern uses becomes a named plan constant (``VL0``,
``VL1``, ...) holding the data vertices that carry it;
:func:`~repro.plan.pools.bind_pools` intersects every candidate set with
its vertex's pool and cuts the start vertices to u_{k1}'s.  A ``None``
label (the declarative front-end's "unconstrained" marker) gets no pool.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..graph.graph import Vertex
from ..plan.cost import GraphStats
from ..plan.generation import ExecutionPlan
from ..plan.pools import bind_pools
from .graphs import LabeledGraph
from .pattern import LabeledPatternGraph


def label_constant_name(label_id: int) -> str:
    """The plan-constant name for label pool ``label_id``."""
    return f"VL{label_id}"


def label_pools(
    pattern: LabeledPatternGraph, data: LabeledGraph
) -> Tuple[Dict[Vertex, str], Dict[str, frozenset]]:
    """``(pattern vertex → pool name, pool name → data vertices)``."""
    labels = sorted(
        {
            pattern.label_of(u)
            for u in pattern.vertices
            if pattern.label_of(u) is not None
        },
        key=repr,
    )
    names = {lbl: label_constant_name(i) for i, lbl in enumerate(labels)}
    pools = {
        u: names[pattern.label_of(u)]
        for u in pattern.vertices
        if pattern.label_of(u) is not None
    }
    constants = {name: data.vertices_with_label(lbl) for lbl, name in names.items()}
    return pools, constants


def labelize_plan(
    plan: ExecutionPlan,
    pattern: LabeledPatternGraph,
    data: LabeledGraph,
) -> ExecutionPlan:
    """``plan`` with ``pattern``'s label pools on ``data`` bound."""
    return bind_pools(
        plan, *label_pools(pattern, data), stats=GraphStats.of(data.graph)
    )[0]
