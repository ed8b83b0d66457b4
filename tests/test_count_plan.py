"""Count plans choose their own symmetry breaking (``count_plan``).

A count-only run may use any valid symmetry-breaking conditions, so
``count_plan`` builds a twin of the searched plan with the conditions
anchored along its order and keeps it only when the cost estimate says it
is cheaper.  These witnesses sweep every numbering of the patterns whose
conditions the numbering moves, on the two topologies of ROADMAP item 2:
the count is exact (the WCOJ baseline, the labeled oracle) and the count
plan never does more INT+TRC+DBQ than the plan rows run on.
"""

import re
from dataclasses import replace
from itertools import permutations

import pytest

from repro.baselines.wcoj import run_wcoj
from repro.engine.benu import (
    bind_run,
    build_plan,
    count_plan,
    execute_plan,
    prepare_data,
    prepare_plan,
)
from repro.engine.config import BenuConfig
from repro.graph.generators import chung_lu
from repro.graph.graph import Graph
from repro.graph.patterns import get_pattern
from repro.labeled.graphs import LabeledGraph
from repro.labeled.oracle import count_labeled_matches
from repro.labeled.pattern import LabeledPatternGraph
from repro.lang import lower_query, pattern_to_query
from repro.lang.run import run_query
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.codegen import (
    COUNTER_FIELDS,
    DBQ_OPS,
    INT_OPS,
    RESULTS,
    compile_plan,
    generate_source,
)
from repro.plan.cost import GraphStats
from repro.plan.generation import generate_raw_plan
from repro.plan.optimizer import optimize
from repro.plan.pools import bind_pools

TOPOLOGIES = {
    "small": dict(n=300, avg_degree=5, exponent=2.5, seed=2019),
    "mid": dict(n=700, avg_degree=7, exponent=2.5, seed=2019),
}
TRC_OPS = COUNTER_FIELDS.index("trc_ops")


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def prepared(request):
    spec = TOPOLOGIES[request.param]
    graph = chung_lu(spec["n"], spec["avg_degree"], spec["exponent"], seed=spec["seed"])
    return prepare_data(graph, BenuConfig())


def renumberings(base: Graph):
    """``(numbering, back)`` for every distinct numbering π(base), with
    ``back`` = π⁻¹ mapping its vertex ids to the base's."""
    seen = set()
    vertices = base.vertices
    for image in permutations(vertices):
        perm = dict(zip(vertices, image))
        edges = tuple(sorted(
            tuple(sorted((perm[a], perm[b]))) for a, b in base.edges()
        ))
        if edges not in seen:
            seen.add(edges)
            yield Graph(edges), {v: u for u, v in perm.items()}


class Counting:
    """``(count, INT+TRC+DBQ)`` of plans counted on one graph.

    Runs are memoised on the generated source with vertex ids mapped back
    to the base numbering: two numberings whose plans compile to the same
    code up to that renaming count alike, so each code runs once.
    """

    def __init__(self, graph, n):
        self.graph, self.n = graph, n
        self.runs = {}

    def key(self, plan, back, starts=None):
        def rename(m):
            i = int(m.group(2))
            return m.group(1) + str(back[i] if i <= self.n else i)

        source = re.sub(r"\b([fACT])(\d+)\b", rename, generate_source(plan))
        return source, None if starts is None else tuple(starts)

    def __call__(self, plan, back, starts=None):
        key = self.key(plan, back, starts)
        if key not in self.runs:
            task = compile_plan(plan).run_raw
            graph = self.graph
            vset = frozenset(graph.vertices)
            count = work = 0
            for v in graph.vertices if starts is None else starts:
                counters = task(v, graph.neighbors, vset, None, {}, None)
                count += counters[RESULTS]
                work += counters[INT_OPS] + counters[TRC_OPS] + counters[DBQ_OPS]
            self.runs[key] = count, work
        return self.runs[key]


@pytest.mark.parametrize("name", ["q1", "q4", "q5", "demo"])
def test_every_numbering_counts_exactly_and_no_dearer(prepared, name):
    graph = prepared.graph
    stats = GraphStats.of(graph)
    base = get_pattern(name)
    config = BenuConfig()
    counting = Counting(graph, base.num_vertices)
    twins = set()
    want = None
    for numbering, back in renumberings(base):
        plan = prepare_plan(PatternGraph(numbering, name), prepared, config)
        chosen = count_plan(plan, stats)
        assert chosen.order == plan.order
        if chosen is plan:
            continue  # the row plan's count: nothing new to witness
        if want is None:
            want = run_wcoj(PatternGraph(base, name), graph).count
        key = counting.key(chosen, back)
        if key not in twins:  # the engine's count, once per code
            twins.add(key)
            assert execute_plan(plan, prepared, config).count == want, numbering
        count, work = counting(chosen, back)
        row_count, row_work = counting(plan, back)
        assert count == row_count == want, numbering
        assert work <= row_work, (numbering, work, row_work)
    # House and q4 have numberings whose conditions land late; q5 and
    # demo's never beat the pattern's own on the estimate.
    assert bool(twins) == (name in ("q1", "q4"))


@pytest.mark.parametrize(
    "name,labels",
    [
        ("q1", {1: "B"}),
        ("q1", {2: "A", 5: "A"}),
        ("q1", {3: "C"}),
        ("q4", {1: "B"}),
        ("q4", {4: "A"}),
    ],
)
def test_every_labeled_numbering_matches_the_oracle(name, labels):
    """Labels shrink the group: the twin anchors in the label-preserving
    one, never in the structural one."""
    spec = TOPOLOGIES["small"]
    graph = chung_lu(spec["n"], spec["avg_degree"], spec["exponent"], seed=spec["seed"])
    data = LabeledGraph(
        graph.edges(), {v: "ABC"[v * 7 % 3] for v in graph.vertices},
        vertices=graph.vertices,
    )
    base = get_pattern(name)
    full = {u: labels.get(u) for u in base.vertices}
    want = count_labeled_matches(LabeledPatternGraph(base, full), data)
    config = BenuConfig()
    counting = None
    queried = set()
    for numbering, back in renumberings(base):
        pattern = LabeledPatternGraph(
            numbering, {v: full[u] for v, u in back.items()}
        )
        count_query = lower_query(pattern_to_query(pattern, "count"))
        prepared = prepare_data(data, config)
        plan = prepare_plan(count_query.pattern, prepared, config)
        if counting is None:
            counting = Counting(prepared.graph, base.num_vertices)
        counted, starts = bind_run(plan, prepared, config, counting=True)
        rows, row_starts = bind_run(plan, prepared, config, counting=False)
        key = counting.key(counted, back, starts)
        if key not in queried:  # the whole query path, once per code
            queried.add(key)
            assert run_query(count_query, data, config).count == want, numbering
        count, work = counting(counted, back, starts)
        row_count, row_work = counting(rows, back, row_starts)
        assert count == row_count == want, numbering
        assert work <= row_work, (numbering, work, row_work)


class TestCountPlan:
    HOUSE = Graph([(1, 2), (1, 3), (2, 4), (2, 5), (3, 5), (4, 5)])

    def _plan(self, **kwargs):
        graph = chung_lu(300, 5, 2.5, seed=2019)
        return build_plan(PatternGraph(self.HOUSE, "house"), graph, **kwargs), graph

    def test_the_twin_anchors_along_the_order_and_is_memoised(self):
        plan, graph = self._plan()
        stats = GraphStats.of(graph)
        twin = count_plan(plan, stats)
        assert twin is not plan and twin.order == plan.order
        assert twin.conditions == tuple(
            plan.pattern.anchored_conditions(plan.order)
        )
        assert plan.conditions == tuple(plan.pattern.symmetry_conditions)
        assert count_plan(plan, stats) is twin and count_plan(twin, stats) is twin
        assert twin.predicted_counts is not None

    def test_rows_keep_the_pattern_conditions(self):
        """A collecting run returns the row plan's representatives, which
        the twin's conditions would not all admit."""
        plan, graph = self._plan()
        config = BenuConfig(relabel=False)  # rows in the order ≺ compares
        prepared = prepare_data(graph, config)
        twin = count_plan(plan, GraphStats.of(graph))
        rows = execute_plan(plan, prepared, replace(config, collect=True)).matches
        assert execute_plan(plan, prepared, config).count == len(rows)

        def admits(conditions, row):
            match = dict(zip(plan.pattern.vertices, row))
            return all(match[lo] < match[hi] for lo, hi in conditions)

        assert all(admits(plan.conditions, row) for row in rows)
        assert not all(admits(twin.conditions, row) for row in rows)

    def test_plans_it_leaves_alone(self):
        plan, graph = self._plan()
        stats = GraphStats.of(graph)
        compressed, _ = self._plan(compressed=True)
        hand_made = optimize(generate_raw_plan(plan.pattern, plan.order))
        pooled, _ = bind_pools(
            plan, {plan.order[0]: "P"}, {"P": frozenset(graph.vertices)},
            stats=stats,
        )
        for untouched in (compressed, hand_made, pooled):
            assert count_plan(untouched, stats) is untouched
