"""Best execution plan generation — Algorithm 3 (Section IV-D).

The search enumerates matching orders depth-first, maintaining the
communication cost incrementally (case 1 / case 2 of the paper).  Each
step is priced at the prefix's symmetry-broken match estimate
(:func:`repro.plan.cost.estimate_prefix_matches`), so of two automorphic
orders the one whose conditions bound earlier costs less.  Two pruning
strategies apply:

* **Dual pruning** — syntactically-equivalent vertices generate dual orders
  with identical match estimates, so within each SE class only ascending-id
  placements are explored.
* **Cost-based pruning** — a partial order whose communication cost already
  exceeds the best complete one is abandoned.

Orders tied at the minimum communication cost become candidates; each gets
a fully optimized plan, and the one with the least estimated computation
cost wins.

The returned :class:`SearchStats` records α (match-estimate invocations in
the search) and β (optimized-plan generations, = |O_cand|) and their upper
bounds — exactly what Table IV reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..graph.graph import Vertex
from ..pattern.equivalence import passes_dual_condition
from ..pattern.pattern_graph import PatternGraph
from ..telemetry.tracing import NULL_TRACER
from .compression import compress_plan
from .cost import (
    DEFAULT_STATS,
    GraphStats,
    estimate_computation_cost,
    estimate_prefix_matches,
)
from .generation import ExecutionPlan, generate_raw_plan
from .optimizer import LEVEL_TRIANGLE, optimize


@dataclass
class SearchStats:
    """Instrumentation of one best-plan search (Table IV measurements)."""

    pattern_name: str = ""
    alpha: int = 0  # estimate invocations inside Search (line 15)
    beta: int = 0   # optimized-plan generations (|O_cand|)
    explored_orders: int = 0
    elapsed_seconds: float = 0.0
    n: int = 0

    @property
    def alpha_upper_bound(self) -> int:
        """Σ_{i=1..n} P(n, i) — every prefix of every permutation."""
        n = self.n
        return sum(math.perm(n, i) for i in range(1, n + 1))

    @property
    def beta_upper_bound(self) -> int:
        """n! — one optimized plan per matching order."""
        return math.factorial(self.n)

    @property
    def relative_alpha(self) -> float:
        """α / upper bound, as a fraction (Table IV reports percent)."""
        bound = self.alpha_upper_bound
        return self.alpha / bound if bound else 0.0

    @property
    def relative_beta(self) -> float:
        bound = self.beta_upper_bound
        return self.beta / bound if bound else 0.0


@dataclass
class BestPlanResult:
    """Output of :func:`generate_best_plan`."""

    plan: ExecutionPlan
    candidate_orders: List[Tuple[Vertex, ...]]
    communication_cost: float
    computation_cost: float
    stats: SearchStats


def generate_best_plan(
    pattern: PatternGraph,
    stats: GraphStats = DEFAULT_STATS,
    optimization_level: int = LEVEL_TRIANGLE,
    compressed: bool = False,
    tracer=None,
) -> BestPlanResult:
    """Algorithm 3: find the least-cost execution plan for ``pattern``.

    Parameters
    ----------
    stats:
        Data-graph statistics for the cardinality model (Exp-1 uses the
        defaults; real runs pass ``GraphStats.of(data_graph)``).
    optimization_level:
        Optimizer level applied to candidate plans (0–3).
    compressed:
        Apply the VCBC transformation to the winning plan.
    tracer:
        Optional :class:`repro.telemetry.Tracer`; the search's two phases
        become child spans carrying Table IV's α/β as span args.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    search_stats = SearchStats(pattern_name=pattern.name, n=pattern.n)
    t0 = time.perf_counter()

    best_comm = math.inf
    candidate_orders: List[Tuple[Vertex, ...]] = []
    se_index = pattern.se_class_index
    graph = pattern.graph
    conditions = pattern.symmetry_conditions
    vertices = list(pattern.vertices)

    order: List[Vertex] = []
    used: set = set()

    def search(comm_cost: float) -> None:
        nonlocal best_comm, candidate_orders
        if len(order) == len(vertices):
            search_stats.explored_orders += 1
            if comm_cost < best_comm:
                best_comm = comm_cost
                candidate_orders = [tuple(order)]
            elif comm_cost == best_comm:
                candidate_orders.append(tuple(order))
            return
        for u in vertices:
            if u in used:
                continue
            if not passes_dual_condition(graph, order, u, se_index):
                continue
            order.append(u)
            used.add(u)
            remaining = [v for v in vertices if v not in used]
            if any(w in graph.neighbors(u) for w in remaining):
                # Case 1: u still has unused neighbors → a DBQ for u will
                # exist, executed once per symmetry-broken match of the
                # partial pattern.
                step = estimate_prefix_matches(graph, order, conditions, stats)
                search_stats.alpha += 1
            else:
                # Case 2: all neighbors used → no DBQ for u.
                step = 0.0
            new_cost = comm_cost + step
            if new_cost <= best_comm:
                search(new_cost)
            used.discard(u)
            order.pop()

    with tracer.span("order-enumeration", category="plan-search") as span:
        search(0.0)
        span.args.update(
            alpha=search_stats.alpha,
            explored_orders=search_stats.explored_orders,
            candidate_orders=len(candidate_orders),
        )

    best_plan: Optional[ExecutionPlan] = None
    best_comp = math.inf
    with tracer.span("candidate-optimization", category="plan-search") as span:
        for cand in candidate_orders:
            raw = generate_raw_plan(pattern, cand)
            plan = optimize(raw, optimization_level)
            search_stats.beta += 1
            comp = estimate_computation_cost(plan, stats)
            if comp < best_comp:
                best_comp = comp
                best_plan = plan
        span.args["beta"] = search_stats.beta
    assert best_plan is not None, "a connected pattern always yields a plan"

    if compressed:
        best_plan = compress_plan(best_plan)

    search_stats.elapsed_seconds = time.perf_counter() - t0
    return BestPlanResult(
        plan=best_plan,
        candidate_orders=candidate_orders,
        communication_cost=best_comm,
        computation_cost=best_comp,
        stats=search_stats,
    )
