"""Label-aware execution plans.

``labelize_plan`` rewrites an (optimized, possibly compressed) plan so that
every candidate set is intersected with the data graph's per-label vertex
pool before enumeration or reporting.  The pools enter the plan as named
constants (``VL0``, ``VL1``, ...), injected into the compiled function's
namespace — the codegen, interpreter, caches and cluster need no changes.

The start vertex's label is *not* checked inside the plan: the labeled
runner simply never creates local search tasks for data vertices of the
wrong label (the cheaper place to enforce it).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..plan.generation import ExecutionPlan
from ..plan.instructions import Instruction, InstructionType, fvar, intersect, tvar
from ..plan.optimizer import fresh_temp_index
from .graphs import Label, LabeledGraph
from .pattern import LabeledPatternGraph


def label_constant_name(label_id: int) -> str:
    """The plan-constant name for label pool ``label_id``."""
    return f"VL{label_id}"


def labelize_plan(
    plan: ExecutionPlan,
    pattern: LabeledPatternGraph,
    data: LabeledGraph,
) -> ExecutionPlan:
    """Return a copy of ``plan`` with per-label candidate filtering.

    For every ENU ``f_j := Foreach(S)`` an intersection with u_j's label
    pool is inserted; for compressed plans the reported image sets are
    filtered the same way before RES.  A ``None`` label (the declarative
    front-end's "unconstrained" marker) gets no pool and no intersection.
    The copy keeps the plan's ``predicted_counts``.

    The copy is memoised on ``plan`` for one (``data``, labels) pair, so a
    cached plan labelized again for the same graph object is the same
    plan and ``compile_plan``'s memo on it hits; a re-registered graph
    misses.
    """
    hit = plan.__dict__.get("_labelized")
    if hit is not None and hit[0] is data and hit[1] == pattern.labels:
        return hit[2]
    labels = sorted(
        {
            pattern.label_of(u)
            for u in pattern.vertices
            if pattern.label_of(u) is not None
        },
        key=repr,
    )
    label_id = {lbl: i for i, lbl in enumerate(labels)}
    constants: Dict[str, frozenset] = {
        label_constant_name(i): data.vertices_with_label(lbl)
        for lbl, i in label_id.items()
    }

    def pool_var(u) -> Optional[str]:
        label = pattern.label_of(u)
        if label is None:
            return None
        return label_constant_name(label_id[label])

    next_temp = fresh_temp_index(plan)
    out: List[Instruction] = []
    first = plan.order[0]
    for inst in plan.instructions:
        if inst.type is InstructionType.ENU:
            u = int(inst.target[1:])
            pool = pool_var(u)
            if pool is None:
                out.append(inst)
                continue
            filtered = tvar(next_temp)
            next_temp += 1
            out.append(intersect(filtered, (inst.operands[0], pool)))
            out.append(inst.with_operands((filtered,)))
            continue
        if inst.type is InstructionType.RES:
            # Compressed image sets are label-filtered before reporting.
            operands: List[str] = []
            for u, op in zip(pattern.vertices, inst.operands):
                pool = pool_var(u)
                if u in plan.compressed_vertices and pool is not None:
                    filtered = tvar(next_temp)
                    next_temp += 1
                    out.append(intersect(filtered, (op, pool)))
                    operands.append(filtered)
                else:
                    operands.append(op)
            out.append(inst.with_operands(operands))
            continue
        out.append(inst)

    labeled = ExecutionPlan(
        pattern=pattern,
        order=plan.order,
        instructions=out,
        compressed=plan.compressed,
        compressed_vertices=plan.compressed_vertices,
        constants={**plan.constants, **constants},
        predicted_counts=plan.predicted_counts,
    )
    assert labeled.defined_before_use()
    plan.__dict__["_labelized"] = (data, dict(pattern.labels), labeled)
    return labeled


def start_label_pool(
    plan: ExecutionPlan, pattern: LabeledPatternGraph, data: LabeledGraph
) -> Optional[frozenset]:
    """Data vertices eligible as the start vertex (u_{k1}'s label pool).

    ``None`` means the start vertex is unconstrained (its pattern label
    is ``None``): every data vertex is eligible.
    """
    label = pattern.label_of(plan.order[0])
    if label is None:
        return None
    return data.vertices_with_label(label)
