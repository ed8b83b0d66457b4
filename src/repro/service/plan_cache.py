"""The canonical plan cache: isomorphic patterns share one plan search.

Plan search (paper §V, Algorithm 3) dominates latency for small queries
(Table IV), yet its outcome depends only on the pattern's *structure*
and the data graph's statistics — not on how a client happened to label
the pattern's vertices.  The cache therefore keys on the pattern's
canonical form (:mod:`repro.pattern.canonical`) plus the config fields
that shape the plan and the data graph's *registration*, whose statistics
picked the order: a graph replaced under the same name misses.  No cached
plan carries a candidate pool — label and degree pools belong to the
graph and are bound per run (:mod:`repro.plan.pools`).

Cache levels on a hit:

* **exact** — the same labeled pattern was seen before: the fully built
  :class:`~repro.plan.generation.ExecutionPlan` is returned as-is (plans
  are read-only during execution, so sharing is safe);
* **isomorphic** — a relabeled twin was seen: the cached *matching
  order* is translated through the canonical mapping and the plan is
  regenerated for the submitted labels, skipping Algorithm 3 entirely.

Rows follow the pattern's symmetry-breaking conditions, which are
independent of the matching order, so they are the same on every hit
path.  Counts follow the plan's: a count run executes the cached plan's
:func:`~repro.engine.benu.count_plan` twin (anchored along its order),
derived at its first count run and memoised on the plan.

Hits and misses are counted in the service telemetry registry
(``benu_service_plan_cache_{hits,misses}_total``), hits labeled by kind.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, Tuple

from ..engine.benu import PreparedData, prepare_plan
from ..engine.config import BenuConfig
from ..pattern.canonical import canonical_digest, canonical_form
from ..pattern.pattern_graph import PatternGraph
from ..plan.generation import ExecutionPlan
from ..telemetry.snapshot import M_PLAN_CACHE_HITS, M_PLAN_CACHE_MISSES


@dataclass(frozen=True)
class PlanCacheKey:
    """Everything a compiled plan's shape depends on."""

    pattern_key: str  # canonical-form digest (isomorphism class)
    graph: Hashable  # the data graph's registration (stats pick the order)
    optimization_level: int
    compressed: bool
    generalized_clique_cache: bool

    @staticmethod
    def of(
        pattern_key: str, graph: Hashable, config: BenuConfig
    ) -> "PlanCacheKey":
        return PlanCacheKey(
            pattern_key=pattern_key,
            graph=graph,
            optimization_level=config.optimization_level,
            compressed=config.compressed,
            generalized_clique_cache=config.generalized_clique_cache,
        )


def _exact_signature(pattern: PatternGraph) -> Tuple:
    """Per-exact-pattern memo key: edge set, plus vertex labels if any.

    Labeled patterns compute label-aware symmetry conditions, so a
    labeled pattern and its structural twin must never share a built
    plan — the canonical (structure-only) cache key may still share the
    winning matching *order* between them, which is safe: the order only
    affects cost, never the rows (and a count twin anchors in the
    labeled pattern's own group).
    """
    edges = tuple(sorted(tuple(sorted(e)) for e in pattern.graph.edges()))
    labels = getattr(pattern, "labels", None)
    if labels is None:
        return edges
    return (
        edges,
        tuple(sorted((u, repr(labels[u])) for u in pattern.graph.vertices)),
    )


@dataclass
class CachedPlanEntry:
    """Cached state for one (isomorphism class, graph, config) key."""

    #: Winning matching order, expressed in canonical vertex ids.
    canonical_order: Tuple[int, ...]
    #: Fully built plans, memoized per exact labeling.
    plans: Dict[Tuple, ExecutionPlan] = field(default_factory=dict)


class PlanCache:
    """Thread-safe canonical plan cache with telemetry counters."""

    def __init__(self, registry=None) -> None:
        self._registry = registry
        self._entries: Dict[PlanCacheKey, CachedPlanEntry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def _count(self, outcome: str) -> None:
        if outcome == "miss":
            self.misses += 1
            if self._registry is not None:
                self._registry.counter(
                    M_PLAN_CACHE_MISSES, "plan-cache misses (full plan search ran)"
                ).inc()
        else:
            self.hits += 1
            if self._registry is not None:
                self._registry.counter(
                    M_PLAN_CACHE_HITS,
                    "plan-cache hits (plan search skipped)",
                    ("kind",),
                ).inc(kind=outcome)

    def get_or_build(
        self,
        pattern: PatternGraph,
        prepared: PreparedData,
        graph: Hashable,
        config: BenuConfig,
        tracer=None,
    ) -> Tuple[ExecutionPlan, str]:
        """The plan for ``pattern`` on registration ``graph`` under ``config``.

        Returns ``(plan, outcome)`` with outcome ``"exact"``,
        ``"isomorphic"`` (both hits — no plan search ran) or ``"miss"``.
        """
        canonical, to_canonical = canonical_form(pattern.graph)
        key = PlanCacheKey.of(canonical_digest(canonical), graph, config)
        exact = _exact_signature(pattern)

        with self._lock:
            entry = self._entries.get(key)
            cached_plan = entry.plans.get(exact) if entry is not None else None
            canonical_order = entry.canonical_order if entry is not None else None

        if cached_plan is not None:
            self._count("exact")
            return cached_plan, "exact"

        if canonical_order is not None:
            # Translate the winning order into this labeling and skip
            # Algorithm 3: generation + optimization only.
            from_canonical = {c: u for u, c in to_canonical.items()}
            order = [from_canonical[c] for c in canonical_order]
            plan = prepare_plan(
                pattern, prepared, config, order=order, tracer=tracer
            )
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    entry.plans.setdefault(exact, plan)
            self._count("isomorphic")
            return plan, "isomorphic"

        plan = prepare_plan(pattern, prepared, config, tracer=tracer)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = CachedPlanEntry(
                    canonical_order=tuple(to_canonical[u] for u in plan.order)
                )
                self._entries[key] = entry
            entry.plans.setdefault(exact, plan)
        self._count("miss")
        return plan, "miss"

    def forget(self, graph: Hashable) -> None:
        """Drop every entry of registration ``graph``: it was replaced or
        evicted, so no later query can hit them."""
        with self._lock:
            for key in [k for k in self._entries if k.graph == graph]:
                del self._entries[key]
