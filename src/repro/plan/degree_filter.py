"""Degree filtering — the extra filtering hook Section IV-A mentions.

"BENU supports integrating other filtering techniques like degree filter
by adding corresponding filtering conditions."  A valid match must map
each pattern vertex u onto a data vertex of degree ≥ d_P(u); candidates
below that can be dropped before enumeration.

Implementation reuses the plan-constants mechanism (as the labeled
extension does): for each required threshold k a pool
``VDk = {v : d_G(v) ≥ k}`` is injected, and every ENU's source set is
intersected with its vertex's pool first.  Thresholds of ≤ 1 are skipped
(every candidate already has an incident edge).

The paper warns that filters nested under many ENUs can cost more than
they save; the inserted intersections sit exactly where the candidate set
is already being materialized, so the overhead is one C-speed set
intersection per candidate-set construction.
"""

from __future__ import annotations

from typing import Dict, List

from ..graph.graph import Graph
from .generation import ExecutionPlan
from .instructions import Instruction, InstructionType, intersect, tvar
from .optimizer import fresh_temp_index


def degree_pool_name(threshold: int) -> str:
    """The plan-constant name for the degree-≥-threshold pool."""
    return f"VD{threshold}"


def degree_pools(data: Graph, thresholds) -> Dict[str, frozenset]:
    """``{VDk: {v : d(v) ≥ k}}`` for each requested threshold."""
    pools: Dict[str, frozenset] = {}
    for k in sorted(set(thresholds)):
        pools[degree_pool_name(k)] = frozenset(
            v for v in data.vertices if data.degree(v) >= k
        )
    return pools


def apply_degree_filter(plan: ExecutionPlan, data: Graph) -> ExecutionPlan:
    """Return a copy of ``plan`` with per-vertex degree filtering.

    Only pattern vertices of degree ≥ 2 get a filter (degree-1 vertices
    are trivially satisfied by any neighbor).
    """
    pattern = plan.pattern
    thresholds = {
        u: pattern.degree(u) for u in pattern.vertices if pattern.degree(u) >= 2
    }
    if not thresholds:
        return plan
    pools = degree_pools(data, thresholds.values())

    next_temp = fresh_temp_index(plan)
    out: List[Instruction] = []
    for inst in plan.instructions:
        if inst.type is InstructionType.ENU:
            u = int(inst.target[1:])
            if u in thresholds:
                filtered = tvar(next_temp)
                next_temp += 1
                out.append(
                    intersect(
                        filtered,
                        (inst.operands[0], degree_pool_name(thresholds[u])),
                    )
                )
                out.append(inst.with_operands((filtered,)))
                continue
        if inst.type is InstructionType.RES and plan.compressed_vertices:
            operands: List[str] = []
            for u, op in zip(pattern.vertices, inst.operands):
                if u in plan.compressed_vertices and u in thresholds:
                    filtered = tvar(next_temp)
                    next_temp += 1
                    out.append(
                        intersect(
                            filtered, (op, degree_pool_name(thresholds[u]))
                        )
                    )
                    operands.append(filtered)
                else:
                    operands.append(op)
            out.append(inst.with_operands(operands))
            continue
        out.append(inst)

    filtered_plan = ExecutionPlan(
        pattern=pattern,
        order=plan.order,
        instructions=out,
        compressed=plan.compressed,
        compressed_vertices=plan.compressed_vertices,
        constants={**plan.constants, **pools},
    )
    assert filtered_plan.defined_before_use()
    return filtered_plan
