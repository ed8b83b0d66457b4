"""Raw execution-plan generation from a matching order (Section IV-A).

Given a pattern P and a matching order ``O: u_{k1}, ..., u_{kn}``, emit the
instruction sequence described in the paper:

* two instructions ``f_{k1} := Init(start)`` / ``A_{k1} := GetAdj(f_{k1})``
  for the first vertex;
* per remaining vertex: a raw-candidate INT over the adjacency sets of
  earlier-mapped neighbors (or V(G)), a refining INT applying
  symmetry-breaking and injectivity filters, an ENU, and — only if a later
  neighbor will need it — a DBQ;
* a final RES instruction;
* uni-operand elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.graph import Vertex
from ..pattern.pattern_graph import PatternGraph
from ..pattern.symmetry import Condition
from .instructions import (
    VG,
    Filter,
    FilterKind,
    Instruction,
    InstructionType,
    avar,
    cvar,
    dbq,
    enu,
    fvar,
    ini,
    intersect,
    res,
    tvar,
)


@dataclass
class ExecutionPlan:
    """A BENU execution plan: instructions + the metadata that shaped them."""

    pattern: PatternGraph
    order: Tuple[Vertex, ...]
    instructions: List[Instruction]
    #: The symmetry-breaking conditions ``(lo, hi)`` its filters encode:
    #: the pattern's own, or (a count plan) a set anchored along ``order``.
    conditions: Tuple[Condition, ...]
    compressed: bool = False
    #: Pattern vertices whose ENU was removed by VCBC compression.
    compressed_vertices: Tuple[Vertex, ...] = ()
    #: Named constant sets available to instructions (the candidate pools
    #: of :mod:`repro.plan.pools`).
    constants: Dict[str, frozenset] = field(default_factory=dict)
    #: Cost-model estimate of per-instruction-type execution counts
    #: (filled by ``build_plan`` against the target graph's stats);
    #: confronted with the exact executed counts for q-error accounting.
    predicted_counts: Optional[Dict[str, float]] = None
    #: ``(optimization_level, generalized_clique_cache)`` when
    #: ``build_plan`` built the plan, so its count twin is built alike;
    #: None for a plan assembled by hand.
    built_with: Optional[Tuple[int, bool]] = None

    def __str__(self) -> str:
        from .instructions import format_plan

        return format_plan(self.instructions)

    def __getstate__(self) -> dict:
        # ``compile_plan``, ``bind_pools`` and ``count_plan`` park their
        # memos on the instance; none pickles or belongs to a copy.
        state = dict(self.__dict__)
        for memo in ("_compiled", "_pooled", "_counting"):
            state.pop(memo, None)
        return state

    # ------------------------------------------------------------------
    @property
    def enu_count(self) -> int:
        return sum(
            1 for i in self.instructions if i.type is InstructionType.ENU
        )

    def loop_depths(self) -> List[int]:
        """For each instruction, how many ENU instructions precede it."""
        depths = []
        depth = 0
        for inst in self.instructions:
            depths.append(depth)
            if inst.type is InstructionType.ENU:
                depth += 1
        return depths

    def instructions_of_type(self, type_: InstructionType) -> List[Instruction]:
        return [i for i in self.instructions if i.type is type_]

    def defined_before_use(self) -> bool:
        """Static check: every variable is defined before it is read."""
        defined = {"start", VG, *self.constants}
        for inst in self.instructions:
            if any(v not in defined for v in inst.used_vars):
                return False
            defined.add(inst.target)
        return True


def _symmetry_filter(
    conditions: Sequence[Condition], earlier: Vertex, current: Vertex
) -> Optional[Filter]:
    """The symmetry filter ``current``'s candidates owe to ``earlier``.

    If the partial order says ``earlier < current``, candidates must be
    ``> f_earlier``; the reverse gives ``< f_earlier``; no constraint → None.
    """
    for lo, hi in conditions:
        if (lo, hi) == (earlier, current):
            return Filter(FilterKind.GT, fvar(earlier))
        if (lo, hi) == (current, earlier):
            return Filter(FilterKind.LT, fvar(earlier))
    return None


def generate_raw_plan(
    pattern: PatternGraph,
    order: Sequence[Vertex],
    conditions: Optional[Sequence[Condition]] = None,
) -> ExecutionPlan:
    """Generate the raw (unoptimized) plan of Section IV-A.

    ``conditions`` are the symmetry-breaking conditions its filters
    encode, the pattern's own by default.

    >>> from repro.graph.patterns import TRIANGLE
    >>> from repro.pattern.pattern_graph import PatternGraph
    >>> plan = generate_raw_plan(PatternGraph(TRIANGLE), [1, 2, 3])
    >>> print(plan)  # doctest: +NORMALIZE_WHITESPACE
      1: f1 := Init(start)
      2: A1 := GetAdj(f1)
      3: C2 := Intersect(A1) | >f1
      4:   f2 := Foreach(C2)
      5:   A2 := GetAdj(f2)
      6:   T3 := Intersect(A1, A2)
      7:   C3 := Intersect(T3) | >f1, >f2
      8:     f3 := Foreach(C3)
      9:     f := ReportMatch(f1, f2, f3)
    """
    order = tuple(order)
    if sorted(order) != list(pattern.vertices):
        raise ValueError(
            f"matching order {order} is not a permutation of {pattern.vertices}"
        )
    if conditions is None:
        conditions = pattern.symmetry_conditions
    conditions = tuple(conditions)
    position = {u: i for i, u in enumerate(order)}
    instructions: List[Instruction] = []

    first = order[0]
    instructions.append(ini(first))
    instructions.append(dbq(first))

    for idx in range(1, len(order)):
        u = order[idx]
        earlier = order[:idx]
        mapped_neighbors = [w for w in earlier if pattern.graph.has_edge(w, u)]

        # 1) Raw candidates: intersect adjacency sets of mapped neighbors.
        raw_ops = tuple(avar(w) for w in mapped_neighbors) or (VG,)
        raw_target = tvar(u)
        instructions.append(intersect(raw_target, raw_ops))

        # 2) Refined candidates: symmetry-breaking + injectivity filters.
        filters: List[Filter] = []
        for w in earlier:
            sym = _symmetry_filter(conditions, w, u)
            if sym is not None:
                filters.append(sym)
            elif not pattern.graph.has_edge(w, u):
                # Injectivity; omitted for neighbors since T ⊆ A_w ∌ f_w.
                filters.append(Filter(FilterKind.NE, fvar(w)))
        instructions.append(intersect(cvar(u), (raw_target,), filters))

        # 3) Enumerate.
        instructions.append(enu(u, cvar(u)))

        # 4) Fetch the adjacency set only if a later neighbor needs it.
        has_later_neighbor = any(
            position[w] > idx for w in pattern.neighbors(u)
        )
        if has_later_neighbor:
            instructions.append(dbq(u))

    instructions.append(res([fvar(u) for u in pattern.vertices]))

    plan = ExecutionPlan(pattern, order, instructions, conditions)
    eliminate_uni_operand(plan)
    return plan


def eliminate_uni_operand(plan: ExecutionPlan) -> None:
    """Uni-operand elimination (end of Section IV-A), in place.

    INT instructions with exactly one operand and no filters are removed and
    their target replaced by the operand everywhere.  Runs to fixpoint since
    one removal can expose another.
    """
    changed = True
    while changed:
        changed = False
        rename: Dict[str, str] = {}
        kept: List[Instruction] = []
        for inst in plan.instructions:
            if (
                inst.type is InstructionType.INT
                and len(inst.operands) == 1
                and not inst.filters
            ):
                rename[inst.target] = inst.operands[0]
                changed = True
            else:
                kept.append(inst)
        if changed:
            # Chase chains (T2 -> T1 -> A1) to the final name.
            def resolve(name: str) -> str:
                while name in rename:
                    name = rename[name]
                return name

            flat = {k: resolve(k) for k in rename}
            plan.instructions = [inst.rename(flat) for inst in kept]
