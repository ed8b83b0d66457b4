"""VCBC output compression for execution plans (Section IV-B).

Vertex-cover based compression (Qiao et al., PVLDB'17) represents matching
results as *helves* — matches of the induced core P(V_c) on a vertex cover
V_c — plus a *conditional image set* per non-cover vertex.  A BENU plan is
compressed by taking the shortest matching-order prefix that covers every
pattern edge, deleting the ENU instructions of the remaining vertices, and
reporting their candidate sets directly.

Non-cover vertices form an independent set, so a compressed code
``(helve, {C_j})`` expands to full matches by choosing one vertex per C_j
subject to (a) pairwise distinctness and (b) any symmetry-breaking
conditions between non-cover vertices — constraints the per-vertex sets
cannot carry.  :func:`expand_code` re-applies them, making
decompression exact (tests assert compressed+expanded == uncompressed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from ..graph.graph import Vertex
from .generation import ExecutionPlan, eliminate_uni_operand
from .instructions import (
    Filter,
    Instruction,
    InstructionType,
    cvar,
    fvar,
)


@dataclass(frozen=True)
class CompressedCode:
    """One VCBC code: the helve plus conditional image sets.

    ``slots`` holds, per pattern vertex in sorted order, either a data
    vertex (cover vertex — part of the helve) or a frozenset of data
    vertices (non-cover vertex — its conditional image set).
    """

    pattern_vertices: Tuple[Vertex, ...]
    slots: Tuple[object, ...]

    @property
    def helve(self) -> Tuple[Vertex, ...]:
        return tuple(s for s in self.slots if not isinstance(s, frozenset))

    def image_sets(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        return {
            u: s
            for u, s in zip(self.pattern_vertices, self.slots)
            if isinstance(s, frozenset)
        }

    def match_count(self, conditions: Sequence[Tuple[int, int]] = ()) -> int:
        """Number of full matches this code expands to (exact)."""
        return sum(1 for _ in self.expansions(conditions))

    def expansions(
        self, conditions: Sequence[Tuple[int, int]] = ()
    ) -> Iterator[Tuple[Vertex, ...]]:
        """All full matches encoded, honoring distinctness + conditions.

        ``conditions`` are (position, position) pairs into the sorted
        pattern-vertex tuple meaning slot[lo] < slot[hi].  Non-cover slots
        are few (n − |V_c| ≤ n − 1) so a plain product with leaf checking
        is exact and fast enough.
        """
        set_positions = [
            i for i, s in enumerate(self.slots) if isinstance(s, frozenset)
        ]
        fixed_values = {s for s in self.slots if not isinstance(s, frozenset)}
        current = list(self.slots)

        def backtrack(idx: int) -> Iterator[Tuple[Vertex, ...]]:
            if idx == len(set_positions):
                if all(current[lo] < current[hi] for lo, hi in conditions):
                    yield tuple(current)
                return
            pos = set_positions[idx]
            for v in sorted(self.slots[pos]):
                if v in fixed_values:
                    continue
                if any(current[p] == v for p in set_positions[:idx]):
                    continue
                current[pos] = v
                yield from backtrack(idx + 1)
            current[pos] = self.slots[pos]

        yield from backtrack(0)


def compress_plan(plan: ExecutionPlan) -> ExecutionPlan:
    """Transform an (optimized) plan to emit VCBC-compressed codes.

    Follows the paper: find the shortest matching-order prefix forming a
    vertex cover; for every later vertex u_j delete its ENU, drop ``f_j``
    from other instructions' filters, and report ``C_j`` in RES.
    """
    if plan.compressed:
        raise ValueError("plan is already compressed")
    k = plan.pattern.cover_prefix(plan.order)
    cover = set(plan.order[:k])
    dropped = tuple(u for u in plan.order[k:])
    if not dropped:
        return ExecutionPlan(
            pattern=plan.pattern,
            order=plan.order,
            instructions=list(plan.instructions),
            conditions=plan.conditions,
            compressed=True,
            compressed_vertices=(),
            constants=dict(plan.constants),
        )
    dropped_fvars = {fvar(u) for u in dropped}
    # The set variable each dropped vertex enumerates (usually C_j, but
    # uni-operand elimination may have renamed it to a T or A variable).
    image_var: Dict[str, str] = {}
    for inst in plan.instructions:
        if inst.type is InstructionType.ENU and inst.target in dropped_fvars:
            image_var[inst.target] = inst.operands[0]

    out: List[Instruction] = []
    for inst in plan.instructions:
        if inst.type is InstructionType.ENU and inst.target in dropped_fvars:
            continue
        if inst.type is InstructionType.DBQ and inst.operands[0] in dropped_fvars:
            # Cannot happen for a true cover prefix (no later neighbors),
            # but guard against malformed input.
            raise ValueError(f"non-cover vertex has a DBQ instruction: {inst}")
        if inst.type is InstructionType.RES:
            operands = tuple(
                image_var[fvar(u)] if fvar(u) in dropped_fvars else fvar(u)
                for u in plan.pattern.vertices
            )
            out.append(inst.with_operands(operands))
            continue
        if any(f.var in dropped_fvars for f in inst.filters):
            kept = tuple(f for f in inst.filters if f.var not in dropped_fvars)
            inst = inst.with_filters(kept)
        out.append(inst)

    compressed = ExecutionPlan(
        pattern=plan.pattern,
        order=plan.order,
        instructions=out,
        conditions=plan.conditions,
        compressed=True,
        compressed_vertices=dropped,
        constants=dict(plan.constants),
    )
    eliminate_uni_operand(compressed)
    return compressed


def expand_code(
    plan: ExecutionPlan, code_slots: Sequence[object]
) -> Iterator[Tuple[Vertex, ...]]:
    """Expand one compressed code into the full matches it encodes.

    Re-applies the constraints compression dropped: pairwise distinctness
    among non-cover assignments (vs each other and the helve) and
    symmetry-breaking conditions involving at least one non-cover vertex.
    """
    vertices = plan.pattern.vertices
    pos_of = {u: i for i, u in enumerate(vertices)}
    conditions = [
        (pos_of[lo], pos_of[hi])
        for lo, hi in plan.conditions
        if lo in plan.compressed_vertices or hi in plan.compressed_vertices
    ]
    code = CompressedCode(vertices, tuple(code_slots))
    yield from code.expansions(conditions)


def expected_match_count(plan: ExecutionPlan, codes: Sequence[Sequence[object]]) -> int:
    """Total full matches across compressed codes (used by tests/benches)."""
    return sum(
        sum(1 for _ in expand_code(plan, slots)) for slots in codes
    )
