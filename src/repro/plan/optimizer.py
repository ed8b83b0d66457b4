"""Execution-plan optimizations (Section IV-B).

Three passes, applied cumulatively (matching the X axis of Fig. 7):

1. **Common subexpression elimination** — Apriori-style mining of operand
   combinations shared by multiple INT instructions, hoisted into fresh
   temporaries.
2. **Instruction reordering** — flatten INT instructions to two operands,
   build the dependency graph, topologically sort with the type rank
   INI < INT < TRC < DBQ < ENU < RES so cheap/filtering work moves out of
   inner loops.
3. **Triangle caching** — rewrite ``Intersect(A_first, A_j)`` (start vertex
   with one of its pattern neighbors) into a TRC instruction served by the
   per-thread triangle cache.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .dependency import ranked_topological_sort
from .generation import ExecutionPlan, eliminate_uni_operand
from .instructions import (
    VG,
    Instruction,
    InstructionType,
    avar,
    intersect,
    trc,
    tvar,
    var_index,
)

#: Optimization levels for :func:`optimize` (cumulative).
LEVEL_RAW = 0
LEVEL_CSE = 1
LEVEL_REORDER = 2
LEVEL_TRIANGLE = 3


def fresh_temp_index(plan: ExecutionPlan) -> int:
    """First unused numeric suffix for new T variables."""
    top = max((u for u in plan.pattern.vertices), default=0)
    for inst in plan.instructions:
        names = [inst.target, *inst.operands, *(f.var for f in inst.filters)]
        for name in names:
            if name not in (VG, "start", "f") and name[1:].isdigit():
                top = max(top, var_index(name))
    return top + 1


# ----------------------------------------------------------------------
# Optimization 1: common subexpression elimination
# ----------------------------------------------------------------------
def _mine_common_subexpressions(
    operand_sets: Sequence[FrozenSet[str]],
) -> Dict[FrozenSet[str], int]:
    """Frequent operand combinations (size ≥ 2, support ≥ 2), Apriori style.

    Returns a map subexpression → number of INT instructions containing it
    as a subset.
    """
    # Level 1: frequent single operands.
    singles: Dict[str, int] = {}
    for ops in operand_sets:
        for op in ops:
            singles[op] = singles.get(op, 0) + 1
    frequent_items = {op for op, c in singles.items() if c >= 2}

    result: Dict[FrozenSet[str], int] = {}
    current: Set[FrozenSet[str]] = set()
    for a, b in combinations(sorted(frequent_items), 2):
        cand = frozenset((a, b))
        support = sum(1 for ops in operand_sets if cand <= ops)
        if support >= 2:
            current.add(cand)
            result[cand] = support

    while current:
        nxt: Set[FrozenSet[str]] = set()
        for s1 in current:
            for item in frequent_items:
                if item in s1:
                    continue
                cand = s1 | {item}
                if cand in nxt or cand in result:
                    continue
                support = sum(1 for ops in operand_sets if cand <= ops)
                if support >= 2:
                    nxt.add(cand)
                    result[cand] = support
        current = nxt
    return result


def _pick_subexpression(
    plan: ExecutionPlan, mined: Dict[FrozenSet[str], int]
) -> Optional[FrozenSet[str]]:
    """Tie-breaking of Section IV-B: most operands, then most frequent,
    then earliest first appearance in the plan."""
    if not mined:
        return None

    def first_appearance(sub: FrozenSet[str]) -> int:
        for idx, inst in enumerate(plan.instructions):
            if inst.type is InstructionType.INT and sub <= set(inst.operands):
                return idx
        return len(plan.instructions)

    return min(
        mined,
        key=lambda sub: (-len(sub), -mined[sub], first_appearance(sub), sorted(sub)),
    )


def eliminate_common_subexpressions(plan: ExecutionPlan) -> None:
    """Optimization 1, in place: repeat CSE until no common subexpression."""
    next_temp = fresh_temp_index(plan)
    while True:
        int_ops = [
            frozenset(inst.operands)
            for inst in plan.instructions
            if inst.type is InstructionType.INT and len(inst.operands) >= 2
        ]
        mined = _mine_common_subexpressions(int_ops)
        sub = _pick_subexpression(plan, mined)
        if sub is None:
            break
        temp = tvar(next_temp)
        next_temp += 1

        new_instructions: List[Instruction] = []
        inserted = False
        for inst in plan.instructions:
            is_host = (
                inst.type is InstructionType.INT
                and len(inst.operands) >= 2
                and sub <= set(inst.operands)
            )
            if is_host and not inserted:
                # Hoist the subexpression right before its first appearance,
                # operands in their original order there.
                ordered_sub = [op for op in inst.operands if op in sub]
                new_instructions.append(intersect(temp, ordered_sub))
                inserted = True
            if is_host:
                replaced = False
                new_ops: List[str] = []
                for op in inst.operands:
                    if op in sub:
                        if not replaced:
                            new_ops.append(temp)
                            replaced = True
                    else:
                        new_ops.append(op)
                new_instructions.append(inst.with_operands(new_ops))
            else:
                new_instructions.append(inst)
        plan.instructions = new_instructions
    eliminate_uni_operand(plan)


# ----------------------------------------------------------------------
# Optimization 2: instruction reordering
# ----------------------------------------------------------------------
def _definition_positions(instructions: Sequence[Instruction]) -> Dict[str, int]:
    positions = {VG: -2, "start": -1}
    for idx, inst in enumerate(instructions):
        positions[inst.target] = idx
    return positions


def flatten_intersections(plan: ExecutionPlan) -> None:
    """Split INT instructions into ≤2-operand chains, in place.

    Operands are first sorted by definition position (earlier-defined
    first), then folded left-associatively; the final link keeps the
    original target and filters so semantics are unchanged.
    """
    next_temp = fresh_temp_index(plan)
    out: List[Instruction] = []
    positions = _definition_positions(plan.instructions)
    for inst in plan.instructions:
        if inst.type is not InstructionType.INT or len(inst.operands) <= 2:
            out.append(inst)
            continue
        ops = sorted(inst.operands, key=lambda o: positions[o])
        acc = ops[0]
        for i, op in enumerate(ops[1:], start=1):
            last = i == len(ops) - 1
            if last:
                out.append(intersect(inst.target, (acc, op), inst.filters))
            else:
                temp = tvar(next_temp)
                next_temp += 1
                out.append(intersect(temp, (acc, op)))
                acc = temp
    plan.instructions = out


def reorder_instructions(plan: ExecutionPlan) -> None:
    """Optimization 2, in place: flatten, then ranked topological sort."""
    flatten_intersections(plan)
    plan.instructions = ranked_topological_sort(
        plan.instructions, predefined=tuple(plan.constants)
    )


# ----------------------------------------------------------------------
# Optimization 3: triangle caching
# ----------------------------------------------------------------------
def apply_triangle_cache(plan: ExecutionPlan) -> None:
    """Optimization 3, in place.

    An INT ``X := Intersect(A_i, A_j)`` where one of u_i/u_j is the start
    vertex and the other is its pattern neighbor computes the triangle set
    around the start; such instructions are served by the per-thread
    triangle cache via TRC.
    """
    first = plan.order[0]
    first_adj = plan.pattern.neighbors(first)
    out: List[Instruction] = []
    for inst in plan.instructions:
        if (
            inst.type is InstructionType.INT
            and not inst.filters
            and len(inst.operands) == 2
            and all(op.startswith("A") and op[1:].isdigit() for op in inst.operands)
        ):
            i, j = (var_index(op) for op in inst.operands)
            pair = {i, j}
            if first in pair and (pair - {first}).pop() in first_adj:
                fi, fj = f"f{i}", f"f{j}"
                out.append(trc(inst.target, fi, fj, inst.operands[0], inst.operands[1]))
                continue
        out.append(inst)
    plan.instructions = out


def _restorations(plan: ExecutionPlan) -> Dict[str, FrozenSet[int]]:
    """Map each set variable to the pattern vertices whose adjacency sets
    compose it, when it is a pure intersection of A-variables.

    The paper's clique-cache sketch: "restore" an INT's operands by
    replacing temporaries with the adjacency sets that calculate them.
    Filtered INTs are not pure intersections, so they restore to nothing.
    """
    restored: Dict[str, FrozenSet[int]] = {}
    for inst in plan.instructions:
        if inst.type is InstructionType.DBQ:
            restored[inst.target] = frozenset({var_index(inst.operands[0])})
        elif inst.type in (InstructionType.INT, InstructionType.TRC):
            if inst.filters:
                continue
            if inst.type is InstructionType.TRC:
                sources = inst.operands[-2:]
            else:
                sources = inst.operands
            parts = [restored.get(op) for op in sources]
            if all(p is not None for p in parts):
                restored[inst.target] = frozenset().union(*parts)
    return restored


def apply_generalized_clique_cache(plan: ExecutionPlan) -> None:
    """The paper's proposed Optimization 3 extension, in place.

    Any filter-free two-operand INT whose restored adjacency sets
    ``A_x1 ∩ ... ∩ A_xk`` span a k-clique of the pattern computes the set
    of data vertices completing a (k+1)-clique around ``f_x1..f_xk`` — a
    cacheable motif.  The instruction becomes a generalized TRC keyed by
    the (sorted) mapped clique; the per-task cache serves repeats.

    Unlike the paper's triangle cache, keys need not involve the start
    vertex: the cache is scoped to one task, so any repeated key is a
    legitimate reuse and entry count stays bounded by the task's search
    tree.
    """
    pattern = plan.pattern.graph
    restored = _restorations(plan)
    out: List[Instruction] = []
    for inst in plan.instructions:
        if (
            inst.type is InstructionType.INT
            and not inst.filters
            and len(inst.operands) == 2
        ):
            verts = restored.get(inst.target)
            if verts is not None and len(verts) >= 2:
                is_clique = all(
                    pattern.has_edge(a, b)
                    for a in verts
                    for b in verts
                    if a < b
                )
                if is_clique:
                    keys = [f"f{i}" for i in sorted(verts)]
                    out.append(
                        Instruction(
                            inst.target,
                            InstructionType.TRC,
                            (*keys, *inst.operands),
                        )
                    )
                    continue
        out.append(inst)
    plan.instructions = out


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------
def optimize(plan: ExecutionPlan, level: int = LEVEL_TRIANGLE) -> ExecutionPlan:
    """Apply optimizations cumulatively up to ``level`` on a copy.

    Level 0 returns an untouched copy; 1 adds CSE; 2 adds reordering;
    3 adds triangle caching (the default, the paper's full pipeline).
    """
    if not 0 <= level <= LEVEL_TRIANGLE:
        raise ValueError(f"optimization level must be 0..3, got {level}")
    copy = ExecutionPlan(
        pattern=plan.pattern,
        order=plan.order,
        instructions=list(plan.instructions),
        conditions=plan.conditions,
        compressed=plan.compressed,
        compressed_vertices=plan.compressed_vertices,
        constants=dict(plan.constants),
    )
    if level >= LEVEL_CSE:
        eliminate_common_subexpressions(copy)
    if level >= LEVEL_REORDER:
        reorder_instructions(copy)
    if level >= LEVEL_TRIANGLE:
        apply_triangle_cache(copy)
    return copy
