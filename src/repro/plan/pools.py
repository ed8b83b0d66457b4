"""Candidate pools — the extra filtering conditions Section IV-A mentions.

"BENU supports integrating other filtering techniques like degree filter
by adding corresponding filtering conditions."  Such a filter is a *pool*
per pattern vertex u: the data vertices a match may map u onto.  Two
sources feed it — a labeled pattern's vertex labels (``VL0``, ``VL1``, …)
and the degree filter (``VDk = {v : d_G(v) ≥ k}`` for d_P(u) = k ≥ 2) —
and :func:`bind_pools` is their one rewrite.  Every ENU over u's
candidates, and every compressed set u reports at RES, first narrows its
set with ``T := Intersect(S, POOL)``; the pools enter the plan as named
constants, compiled into the generated function's namespace.  u_{k1} has
no ENU: its pool narrows the start vertices instead, so a start vertex
outside it never becomes a task.

Pools belong to one data graph, so they are bound per run, after the plan
cache: a cached plan carries none.  The inserted intersections sit where
the candidate set is materialized anyway, so a pool costs one C-speed set
intersection per candidate-set construction.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from ..graph.graph import Vertex
from .cost import GraphStats, predict_instruction_counts
from .generation import ExecutionPlan
from .instructions import Instruction, InstructionType, intersect, tvar
from .optimizer import fresh_temp_index


def bind_pools(
    plan: ExecutionPlan,
    pools: Mapping[Vertex, str],
    constants: Mapping[str, frozenset],
    start_vertices: Optional[Sequence[Vertex]] = None,
    *,
    stats: GraphStats,
) -> Tuple[ExecutionPlan, Optional[Sequence[Vertex]]]:
    """``(plan with pools, start vertices in u_{k1}'s pool)``.

    ``pools`` maps a pattern vertex to the name of its pool in
    ``constants``; an absent vertex is unconstrained.  ``start_vertices``
    is the caller's base (a shard's owned slice; None = every vertex) and
    comes back unchanged when u_{k1} has no pool.  The copy's
    ``predicted_counts`` price it on ``stats`` (the data graph's), pool
    intersections included, so a run's q-errors grade the plan it ran.

    The copy is memoised on ``plan`` per pools and stats, so a cached
    plan bound again to the same graph's pools is the same plan and
    ``compile_plan``'s memo on it hits; another graph's pools miss.
    """
    if not pools:
        return plan, start_vertices
    first = pools.get(plan.order[0])
    if first is not None:
        pool = constants[first]
        start_vertices = (
            sorted(pool) if start_vertices is None
            else [v for v in start_vertices if v in pool]
        )
    hit = plan.__dict__.get("_pooled")
    if hit is not None and hit[:3] == (pools, constants, stats):
        return hit[3], start_vertices

    out: List[Instruction] = []
    next_temp = fresh_temp_index(plan)

    def narrowed(u, operand: str) -> str:
        # Emit ``T := Intersect(operand, POOL_u)`` and read T instead.
        nonlocal next_temp
        filtered = tvar(next_temp)
        next_temp += 1
        out.append(intersect(filtered, (operand, pools[u])))
        return filtered

    for inst in plan.instructions:
        if inst.type is InstructionType.ENU:
            u = int(inst.target[1:])
            if u in pools:
                inst = inst.with_operands((narrowed(u, inst.operands[0]),))
        elif inst.type is InstructionType.RES:
            # Compressed image sets are filtered before reporting.
            inst = inst.with_operands([
                narrowed(u, op)
                if u in plan.compressed_vertices and u in pools
                else op
                for u, op in zip(plan.pattern.vertices, inst.operands)
            ])
        out.append(inst)

    bound = ExecutionPlan(
        pattern=plan.pattern,
        order=plan.order,
        instructions=out,
        conditions=plan.conditions,
        compressed=plan.compressed,
        compressed_vertices=plan.compressed_vertices,
        constants={**plan.constants, **constants},
    )
    assert bound.defined_before_use()
    bound.predicted_counts = predict_instruction_counts(bound, stats)
    plan.__dict__["_pooled"] = (dict(pools), dict(constants), stats, bound)
    return bound, start_vertices
