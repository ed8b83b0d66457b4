"""Tests for the candidate-pool rewrite with degree pools (Section IV-A)."""

import random

import pytest

from repro.engine.benu import (
    PreparedData,
    build_plan,
    count_subgraphs,
    prepare_data,
    prepare_plan,
    run_benu,
)
from repro.engine.config import BenuConfig
from repro.graph.generators import chung_lu, erdos_renyi
from repro.graph.graph import complete_graph, star_graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.labeled import (
    LabeledGraph,
    LabeledPatternGraph,
    count_labeled_matches,
)
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.codegen import compile_plan
from repro.plan.compression import compress_plan
from repro.plan.cost import GraphStats, predict_instruction_counts, q_error
from repro.plan.generation import generate_raw_plan
from repro.plan.optimizer import optimize
from repro.plan.pools import bind_pools
from repro.plan.validate import validate_plan


@pytest.fixture(scope="module")
def data_graph():
    g, _ = relabel_by_degree_order(chung_lu(200, 5.0, exponent=2.2, seed=81))
    return g


def plan_for(name, compressed=False):
    pg = PatternGraph(get_pattern(name), name)
    plan = optimize(generate_raw_plan(pg, list(pg.vertices)))
    return compress_plan(plan) if compressed else plan


def bind_degree_pools(plan, prepared):
    return bind_pools(
        plan, *prepared.degree_pools(plan.pattern),
        stats=GraphStats.of(prepared.graph),
    )[0]


def degree_filtered(plan, data):
    """``plan`` with its degree pools on ``data`` bound."""
    return bind_degree_pools(plan, PreparedData(data))


class TestPools:
    def test_pool_contents(self, data_graph):
        pattern = PatternGraph(get_pattern("q4"), "q4")
        pools, constants = PreparedData(data_graph).degree_pools(pattern)
        for u, name in pools.items():
            assert name == f"VD{pattern.degree(u)}"
            assert constants[name] == {
                v for v in data_graph.vertices
                if data_graph.degree(v) >= pattern.degree(u)
            }

    def test_thresholds_deduplicated(self, data_graph):
        prepared = PreparedData(data_graph)
        clique = PatternGraph(complete_graph(4), "clique4")
        pools, constants = prepared.degree_pools(clique)
        assert set(pools.values()) == {"VD3"} and list(constants) == ["VD3"]
        # Each threshold's pool is built once per prepared graph.
        assert prepared.degree_pools(clique)[1]["VD3"] is constants["VD3"]


class TestTransformation:
    def test_constants_injected(self, data_graph):
        plan = degree_filtered(plan_for("chordal_square"), data_graph)
        validate_plan(plan)
        assert any(name.startswith("VD") for name in plan.constants)

    def test_degree_one_pattern_untouched(self, data_graph):
        pg = PatternGraph(star_graph(3), "star")
        plan = optimize(generate_raw_plan(pg, [1, 2, 3, 4]))
        filtered = degree_filtered(plan, data_graph)
        # Only the hub (degree 3) needs a pool; leaves are degree 1.
        pools = [n for n in filtered.constants if n.startswith("VD")]
        assert pools == ["VD3"]

    def test_compressed_res_sets_filtered(self, data_graph):
        plan = degree_filtered(
            plan_for("chordal_square", compressed=True), data_graph
        )
        validate_plan(plan)
        (res,) = [i for i in plan.instructions if i.type.name == "RES"]
        assert any(op.startswith("T") for op in res.operands)

    def test_rebinding_the_same_pools_is_memoised(self, data_graph):
        base = plan_for("q4")
        prepared = PreparedData(data_graph)
        first = bind_degree_pools(base, prepared)
        again = bind_degree_pools(base, prepared)
        assert again is first
        other, _ = relabel_by_degree_order(erdos_renyi(30, 0.3, seed=2))
        assert degree_filtered(base, other) is not first


class TestCorrectness:
    @pytest.mark.parametrize("name", ["triangle", "q1", "q4", "q9", "chordal_square"])
    def test_results_unchanged(self, name, data_graph):
        base = plan_for(name)
        filtered = degree_filtered(base, data_graph)
        vset = frozenset(data_graph.vertices)

        def count(plan):
            compiled = compile_plan(plan)
            return sum(
                compiled.run(v, data_graph.neighbors, vset=vset).results
                for v in data_graph.vertices
            )

        assert count(base) == count(filtered)

    def test_filter_reduces_enumeration_steps(self, data_graph):
        """On a skewed graph the filter prunes low-degree candidates for
        high-degree pattern vertices."""
        base = plan_for("clique4")
        filtered = degree_filtered(base, data_graph)
        vset = frozenset(data_graph.vertices)

        def enu_steps(plan):
            compiled = compile_plan(plan)
            return sum(
                compiled.run(v, data_graph.neighbors, vset=vset).enu_steps
                for v in data_graph.vertices
            )

        assert enu_steps(filtered) <= enu_steps(base)

    def test_end_to_end_config_flag(self):
        g = erdos_renyi(40, 0.25, seed=5)
        for name in ("q3", "q6"):
            plain = count_subgraphs(get_pattern(name), g, BenuConfig())
            filtered = count_subgraphs(
                get_pattern(name), g, BenuConfig(degree_filter=True)
            )
            assert plain == filtered

    def test_prepared_plans_carry_no_pools(self, data_graph):
        """Degree pools are bound per run, so a plan (and what a plan
        cache keeps of it) is the same with the filter on or off."""
        prepared = prepare_data(data_graph, BenuConfig(relabel=False))
        on = prepare_plan(get_pattern("q4"), prepared, BenuConfig(degree_filter=True))
        off = prepare_plan(get_pattern("q4"), prepared, BenuConfig())
        assert on.constants == {} and on.instructions == off.instructions
        assert build_plan(get_pattern("q4"), order=[1, 2, 3, 4, 5]).constants == {}

    def test_combines_with_clique_cache(self, data_graph):
        g = data_graph
        plain = count_subgraphs(get_pattern("q3"), g, BenuConfig(relabel=False))
        both = count_subgraphs(
            get_pattern("q3"),
            g,
            BenuConfig(
                relabel=False,
                degree_filter=True,
                generalized_clique_cache=True,
            ),
        )
        assert plain == both

    @pytest.mark.parametrize(
        "backend,workers", [("simulated", 4), ("inline", 4), ("process", 2)]
    )
    def test_labeled_query_matches_the_oracle(self, backend, workers):
        """Label pools and degree pools bind together on every backend."""
        g = erdos_renyi(40, 0.2, seed=11)
        rng = random.Random(11)
        data = LabeledGraph(
            g.edges(), {v: rng.choice("AB") for v in g.vertices},
            vertices=g.vertices,
        )
        pattern = LabeledPatternGraph(
            get_pattern("chordal_square"), {1: "A", 2: "B", 3: "A", 4: None}
        )
        config = BenuConfig(
            degree_filter=True, execution_backend=backend, num_workers=workers
        )
        assert count_subgraphs(pattern, data, config) == (
            count_labeled_matches(pattern, data)
        )


class TestPredictions:
    """A pooled run's predictions price the plan that runs."""

    def test_bound_plan_prices_its_pool_intersections(self, data_graph):
        prepared = PreparedData(data_graph)
        stats = GraphStats.of(data_graph)
        base = prepare_plan(get_pattern("clique4"), prepared)
        before = dict(base.predicted_counts)
        bound = bind_degree_pools(base, prepared)
        assert bound.predicted_counts == predict_instruction_counts(bound, stats)
        assert bound.predicted_counts["INT"] > base.predicted_counts["INT"]
        assert base.predicted_counts == before  # the cached plan is untouched

    def test_degree_filtered_clique4_estimate(self):
        graph = chung_lu(300, 5.0, exponent=2.2, seed=3)
        pattern = get_pattern("clique4")
        plain = run_benu(pattern, graph, BenuConfig())
        filtered = run_benu(pattern, graph, BenuConfig(degree_filter=True))
        # Without pools the run reports the plan's own estimates ...
        prepared = prepare_data(graph, BenuConfig())
        assert plain.telemetry.predicted_counts == (
            prepare_plan(pattern, prepared).predicted_counts
        )
        # ... and with them the estimate covers the pool intersections.
        predicted = filtered.telemetry.predicted_counts["INT"]
        executed = filtered.telemetry.instruction_counts["INT"]
        assert q_error(predicted, executed) <= 1.25


class TestStartVertices:
    @pytest.mark.parametrize("relabel", [False, True])
    def test_tasks_start_only_on_vertices_of_enough_degree(
        self, data_graph, relabel
    ):
        triangle = PatternGraph(get_pattern("triangle"), "triangle")
        base = BenuConfig(relabel=relabel, split_threshold=None)
        plain = run_benu(triangle, data_graph, base)
        filtered = run_benu(
            triangle, data_graph, BenuConfig(
                relabel=relabel, split_threshold=None, degree_filter=True
            )
        )
        plan = prepare_plan(triangle, prepare_data(data_graph, base), base)
        need = triangle.degree(plan.order[0])
        eligible = sum(1 for v in data_graph.vertices if data_graph.degree(v) >= need)
        assert plain.num_tasks == data_graph.num_vertices
        assert filtered.num_tasks == eligible < data_graph.num_vertices
        assert filtered.count == plain.count
