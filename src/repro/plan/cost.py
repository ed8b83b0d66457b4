"""Cost estimation for execution plans (Section IV-C).

The execution cost of a plan splits into:

* **computation cost** — total executions of INT/TRC instructions, and
* **communication cost** — total executions of DBQ instructions.

Execution counts hinge on how many matches each partial pattern graph P_i
has in the data graph.  Following the paper we adopt the random-graph
cardinality model of Lai et al. (PVLDB'16 §5.1): under an Erdős–Rényi
assumption with edge probability ρ = 2M / (N(N−1)), a connected pattern
with n' vertices and m' edges has

    E[#matches] = N · (N−1) ··· (N−n'+1) · ρ^{m'}

(the count of *matches*, i.e. injective homomorphisms, not deduplicated
subgraphs).  Disconnected partial patterns multiply their components'
estimates, as the paper prescribes.

A plan cuts every partial match that breaks one of its §II-A
symmetry-breaking conditions (``plan.conditions``), so each prefix P_i is
priced at its symmetry-broken estimate (:func:`estimate_prefix_matches`):
orders that bound early beat their automorphic twins, and of two condition
sets for one order, the one that bounds earlier costs less.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Optional, Sequence, Tuple

from ..graph.graph import Graph, Vertex
from ..pattern.symmetry import Condition, symmetry_breaking_conditions
from .generation import ExecutionPlan
from .instructions import InstructionType, var_index


@dataclass(frozen=True)
class GraphStats:
    """Data-graph statistics the cardinality model needs."""

    num_vertices: int
    num_edges: int

    @classmethod
    def of(cls, graph: Graph) -> "GraphStats":
        return cls(graph.num_vertices, graph.num_edges)

    @property
    def edge_probability(self) -> float:
        n = self.num_vertices
        if n < 2:
            return 0.0
        return min(1.0, 2.0 * self.num_edges / (n * (n - 1)))


#: Default statistics used when plan generation runs without a data graph
#: (Exp-1 evaluates plan generation alone); sized like a mid-range Table I
#: graph so cost trade-offs are realistic.
DEFAULT_STATS = GraphStats(num_vertices=1_000_000, num_edges=10_000_000)


def estimate_matches(pattern: Graph, stats: GraphStats) -> float:
    """Expected matches of ``pattern`` under the active cardinality model.

    The default is the ER model of Lai et al. (Section IV-C); stats
    objects that provide their own ``estimate_matches`` (e.g. the
    configuration-model :class:`repro.plan.estimators.EmpiricalGraphStats`)
    override it — the paper's "the estimation model can be replaced" hook.

    Components multiply; the empty pattern has exactly one (empty) match.
    """
    custom = getattr(stats, "estimate_matches", None)
    if custom is not None:
        return custom(pattern)
    total = 1.0
    rho = stats.edge_probability
    for component in pattern.connected_components():
        sub = pattern.induced_subgraph(component)
        est = 1.0
        for i in range(sub.num_vertices):
            est *= max(0.0, stats.num_vertices - i)
        est *= rho ** sub.num_edges
        total *= est
    return total


def symmetry_share(
    conditions: Sequence[Condition], prefix: Iterable[Vertex]
) -> float:
    """Share of a prefix's matches its symmetry-breaking conditions admit.

    Only *direct* conditions between two prefix vertices count: the plan
    filters a candidate on a listed pair alone, so that is all a partial
    match satisfies.  The share is the poset's linear extensions over
    (vertices the conditions touch)!; over all of P it is 1/|Aut(P)|.

    >>> symmetry_share([(1, 2), (1, 3), (2, 3)], [1, 3])
    0.5
    """
    inside = set(prefix)
    pairs = [(lo, hi) for lo, hi in conditions if lo in inside and hi in inside]
    if not pairs:
        return 1.0
    rank = {v: i for i, v in enumerate(sorted({v for p in pairs for v in p}))}
    return _poset_share(
        len(rank), tuple(sorted((rank[lo], rank[hi]) for lo, hi in pairs))
    )


@lru_cache(maxsize=1024)
def _poset_share(k: int, pairs: Tuple[Tuple[int, int], ...]) -> float:
    """Linear extensions of the poset on 0..k-1 over k!, by subset DP."""
    below = [0] * k
    for lo, hi in pairs:
        below[hi] |= 1 << lo
    ways = [0] * (1 << k)
    ways[0] = 1
    for placed, count in enumerate(ways):
        if count:
            for v in range(k):
                if not placed >> v & 1 and below[v] & placed == below[v]:
                    ways[placed | 1 << v] += count
    return ways[-1] / math.factorial(k)


def estimate_prefix_matches(
    pattern: Graph,
    prefix: Sequence[Vertex],
    conditions: Sequence[Condition],
    stats: GraphStats,
) -> float:
    """Symmetry-broken matches of the partial pattern on ``prefix``: the
    one prefix estimate of the search step and of every cost walk."""
    share = symmetry_share(conditions, prefix)
    return estimate_matches(pattern.induced_subgraph(prefix), stats) * share


@dataclass(frozen=True)
class PlanCost:
    """(communication, computation) cost pair, ordered lexicographically.

    The paper ranks plans by communication cost first — a DBQ round-trip
    dwarfs an in-memory intersection — with computation cost as the
    tie-breaker.
    """

    communication: float
    computation: float

    def __lt__(self, other: "PlanCost") -> bool:
        return (self.communication, self.computation) < (
            other.communication,
            other.computation,
        )

    def __le__(self, other: "PlanCost") -> bool:
        return not other < self


def estimate_computation_cost(
    plan: ExecutionPlan, stats: GraphStats = DEFAULT_STATS
) -> float:
    """EstimateComputationCost of Algorithm 3.

    Walk the plan; the INI and each ENU instruction advance the partial
    pattern P_i, whose symmetry-broken match estimate is the execution
    multiplicity of every following INT/TRC instruction.
    """
    return _walk_cost(plan, stats, (InstructionType.INT, InstructionType.TRC))


def estimate_communication_cost(
    plan: ExecutionPlan, stats: GraphStats = DEFAULT_STATS
) -> float:
    """Total estimated DBQ executions (same walk, counting DBQ)."""
    return _walk_cost(plan, stats, (InstructionType.DBQ,))


def _walk(plan: ExecutionPlan, stats: GraphStats):
    """Yield ``(instruction, estimate)``: the INI and each ENU advance the
    enumerated prefix, whose symmetry-broken estimate prices the
    instruction itself and every one after it.

    The enumerated pattern vertex is read off the instruction target
    (``f<i>``), which also handles VCBC-compressed plans whose non-cover
    ENUs were deleted.
    """
    pattern = plan.pattern.graph
    conditions = plan.conditions
    prefix: list = []
    cur_num = 0.0
    for inst in plan.instructions:
        if inst.type in (InstructionType.INI, InstructionType.ENU):
            prefix.append(var_index(inst.target))
            cur_num = estimate_prefix_matches(pattern, prefix, conditions, stats)
        yield inst, cur_num


def _walk_cost(
    plan: ExecutionPlan,
    stats: GraphStats,
    counted_types: Tuple[InstructionType, ...],
) -> float:
    return sum(num for inst, num in _walk(plan, stats) if inst.type in counted_types)


def predict_instruction_counts(
    plan: ExecutionPlan, stats: GraphStats = DEFAULT_STATS
) -> Dict[str, float]:
    """Per-instruction-type execution estimates under the §IV-C model.

    The same walk as :func:`_walk_cost`, but keeping each type separate
    so the estimates can be confronted with the exact executed counts
    the engine already measures (``TaskCounters``): an INT/TRC/DBQ at
    prefix P_i executes once per symmetry-broken match of P_i; an ENU's
    loop iterates once per match of the *extended* prefix; RES fires once
    per match of the full enumerated prefix (estimate / |Aut(P)| for an
    uncompressed plan).

    Keys are instruction-type names (``"INT"``, ``"TRC"``, ``"DBQ"``,
    ``"ENU"``, ``"RES"``) — the same vocabulary as the registry's
    ``instr`` label, so prediction and measurement join trivially.
    """
    predicted: Dict[str, float] = {}
    for inst, num in _walk(plan, stats):
        if inst.type is not InstructionType.INI:
            name = inst.type.value
            predicted[name] = predicted.get(name, 0.0) + num
    return predicted


def q_error(predicted: float, actual: float) -> float:
    """The symmetric estimation-error ratio, >= 1.

    ``max(predicted/actual, actual/predicted)`` with both sides clamped
    to >= 1 so zero counts (an estimate of 0.3 against 0 executions)
    stay finite — the convention of the cardinality-estimation
    literature (see PAPERS.md: Ren et al., querytorque).

    >>> q_error(10.0, 100.0)
    10.0
    >>> q_error(0.0, 0.0)
    1.0
    """
    p = max(float(predicted), 1.0)
    a = max(float(actual), 1.0)
    return max(p / a, a / p)


def estimate_plan_cost(
    plan: ExecutionPlan, stats: GraphStats = DEFAULT_STATS
) -> PlanCost:
    """Full (communication, computation) cost of a plan."""
    return PlanCost(
        communication=estimate_communication_cost(plan, stats),
        computation=estimate_computation_cost(plan, stats),
    )


def order_communication_cost(
    pattern: Graph,
    order: Sequence[Vertex],
    stats: GraphStats = DEFAULT_STATS,
    conditions: Optional[Sequence[Condition]] = None,
) -> float:
    """Communication cost of a matching order, plan-free (Algorithm 3 logic).

    A DBQ is generated for position i exactly when u_{k_i} still has an
    unused neighbor; its multiplicity is the symmetry-broken estimate of
    P_i, under ``conditions`` (by default the ones ``pattern`` itself
    yields; a plan passes its own).  Optimizations never move DBQs across
    ENUs, so this depends on the order and the conditions alone.
    """
    if conditions is None:
        conditions = symmetry_breaking_conditions(pattern)
    used: list = []
    remaining = set(order)
    cost = 0.0
    for u in order:
        remaining.discard(u)
        used.append(u)
        if any(w in remaining for w in pattern.neighbors(u)):
            cost += estimate_prefix_matches(pattern, used, conditions, stats)
    return cost
