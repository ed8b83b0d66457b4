"""Tests for the cardinality model and plan cost estimation (Section IV-C)."""

import math

import pytest

from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph, complete_graph, path_graph
from repro.graph.patterns import get_pattern
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.cost import (
    DEFAULT_STATS,
    GraphStats,
    PlanCost,
    estimate_communication_cost,
    estimate_computation_cost,
    estimate_matches,
    estimate_plan_cost,
    order_communication_cost,
    predict_instruction_counts,
    q_error,
)
from repro.plan.generation import generate_raw_plan
from repro.plan.optimizer import optimize


class TestGraphStats:
    def test_of_graph(self):
        g = complete_graph(5)
        stats = GraphStats.of(g)
        assert (stats.num_vertices, stats.num_edges) == (5, 10)
        assert stats.edge_probability == 1.0

    def test_edge_probability_clamped(self):
        assert GraphStats(2, 5).edge_probability == 1.0
        assert GraphStats(1, 0).edge_probability == 0.0

    def test_sparse_probability(self):
        stats = GraphStats(1000, 999 * 500 // 2)
        assert stats.edge_probability == pytest.approx(0.5)


class TestEstimateMatches:
    def test_single_vertex_is_n(self):
        stats = GraphStats(100, 50)
        single = Graph(vertices=[1])
        assert estimate_matches(single, stats) == pytest.approx(100)

    def test_edge_estimate(self):
        """E[matches of an edge] = N(N−1)·ρ = 2M."""
        stats = GraphStats(1000, 5000)
        edge = Graph([(1, 2)])
        assert estimate_matches(edge, stats) == pytest.approx(2 * 5000)

    def test_triangle_formula(self):
        stats = GraphStats(100, 300)
        rho = stats.edge_probability
        expected = 100 * 99 * 98 * rho ** 3
        assert estimate_matches(complete_graph(3), stats) == pytest.approx(expected)

    def test_disconnected_components_multiply(self):
        stats = GraphStats(1000, 3000)
        one_edge = Graph([(1, 2)])
        two_edges = Graph([(1, 2), (3, 4)])
        single = estimate_matches(one_edge, stats)
        assert estimate_matches(two_edges, stats) == pytest.approx(
            single * single, rel=1e-2
        )

    def test_denser_pattern_fewer_matches(self):
        stats = GraphStats(10_000, 100_000)
        sparse = estimate_matches(path_graph(4), stats)
        dense = estimate_matches(complete_graph(4), stats)
        assert dense < sparse

    def test_empty_pattern(self):
        assert estimate_matches(Graph(), DEFAULT_STATS) == 1.0


class TestPlanCost:
    def test_lexicographic_ordering(self):
        """Communication dominates; computation breaks ties (Section IV-D)."""
        assert PlanCost(1, 100) < PlanCost(2, 1)
        assert PlanCost(1, 5) < PlanCost(1, 6)
        assert not PlanCost(1, 5) < PlanCost(1, 5)
        assert PlanCost(1, 5) <= PlanCost(1, 5)

    def test_estimate_plan_cost_positive(self):
        pg = PatternGraph(get_pattern("q1"), "q1")
        plan = optimize(generate_raw_plan(pg, [1, 2, 3, 4, 5]))
        cost = estimate_plan_cost(plan)
        assert cost.communication > 0
        assert cost.computation > 0

    def test_estimates_finite_across_optimization_levels(self):
        """The count model is not monotone under rewrites (hoisting trades
        per-branch pruning for higher multiplicity), but every level must
        stay estimable and in the same ballpark."""
        pg = PatternGraph(get_pattern("demo"), "demo")
        raw = generate_raw_plan(pg, [1, 3, 5, 2, 6, 4])
        stats = GraphStats(10_000, 80_000)
        raw_cost = estimate_computation_cost(raw, stats)
        assert raw_cost > 0
        for level in (1, 2, 3):
            opt_cost = estimate_computation_cost(optimize(raw, level), stats)
            assert 0 < opt_cost < raw_cost * 10

    def test_communication_independent_of_optimization(self):
        """Optimizations never move DBQs across ENUs (Section IV-D)."""
        pg = PatternGraph(get_pattern("q7"), "q7")
        raw = generate_raw_plan(pg, [1, 3, 2, 4, 5, 6])
        stats = GraphStats(10_000, 80_000)
        base = estimate_communication_cost(raw, stats)
        for level in (1, 2, 3):
            assert estimate_communication_cost(optimize(raw, level), stats) == (
                pytest.approx(base)
            )

    def test_order_communication_cost_matches_plan_walk(self):
        stats = GraphStats(50_000, 400_000)
        for name, order in [
            ("q1", [1, 2, 3, 4, 5]),
            ("q5", [3, 2, 4, 1, 5]),
            ("demo", [1, 3, 5, 2, 6, 4]),
        ]:
            pg = PatternGraph(get_pattern(name), name)
            plan = generate_raw_plan(pg, order)
            from_plan = estimate_communication_cost(plan, stats)
            from_order = order_communication_cost(pg.graph, order, stats)
            assert from_plan == pytest.approx(from_order)
            # A plan on other conditions is priced on its own.
            anchored = pg.anchored_conditions(order)
            twin = generate_raw_plan(pg, order, anchored)
            assert estimate_communication_cost(twin, stats) == pytest.approx(
                order_communication_cost(pg.graph, order, stats, anchored)
            )

    def test_compressed_plan_still_estimable(self):
        """The cost walk reads enumerated vertices off instruction targets,
        so VCBC plans (deleted ENUs) estimate without error."""
        from repro.plan.compression import compress_plan

        pg = PatternGraph(get_pattern("q4"), "q4")
        plan = optimize(generate_raw_plan(pg, [5, 2, 3, 1, 4]))
        stats = GraphStats(10_000, 80_000)
        compressed = compress_plan(plan)
        assert estimate_computation_cost(compressed, stats) > 0
        assert estimate_communication_cost(compressed, stats) <= (
            estimate_communication_cost(plan, stats)
        )


class TestPredictedCounts:
    """The prediction half of predicted-vs-actual plan accounting."""

    def test_triangle_predictions_cover_every_instruction_type(self):
        pg = PatternGraph(get_pattern("triangle"), "triangle")
        plan = optimize(generate_raw_plan(pg, [1, 2, 3]))
        predicted = predict_instruction_counts(plan, GraphStats(100, 500))
        assert set(predicted) <= {"INT", "TRC", "DBQ", "ENU", "RES"}
        assert predicted["RES"] > 0
        assert all(v >= 0 for v in predicted.values())

    def test_res_prediction_matches_cardinality_model(self):
        """RES fires once per symmetry-broken full-pattern match, so its
        prediction is the ER cardinality estimate of the whole pattern
        (which counts ordered embeddings) over |Aut(triangle)| = 6."""
        pg = PatternGraph(get_pattern("triangle"), "triangle")
        plan = optimize(generate_raw_plan(pg, [1, 2, 3]))
        stats = GraphStats(100, 500)
        predicted = predict_instruction_counts(plan, stats)
        assert predicted["RES"] == pytest.approx(
            estimate_matches(pg.graph, stats) / 6
        )

    def test_exact_on_complete_graph(self):
        """On K_n the ER model is exact: the model counts ordered
        embeddings, and the symmetry share (1/|Aut(triangle)| = 1/6) turns
        them into the unordered matches the engine reports."""
        from repro.engine.benu import run_benu

        g = complete_graph(6)
        result = run_benu(get_pattern("triangle"), g)
        predicted = result.plan.predicted_counts
        assert predicted is not None
        assert predicted["RES"] == pytest.approx(result.count, rel=0.01)

    def test_build_plan_attaches_predictions(self):
        from repro.engine.benu import build_plan

        plan = build_plan(get_pattern("chordal_square"), erdos_renyi(30, 0.3, seed=2))
        assert plan.predicted_counts
        assert set(plan.predicted_counts) <= {"INT", "TRC", "DBQ", "ENU", "RES"}


class TestQError:
    def test_symmetric_ratio(self):
        assert q_error(10.0, 100.0) == pytest.approx(10.0)
        assert q_error(100.0, 10.0) == pytest.approx(10.0)
        assert q_error(50.0, 50.0) == 1.0

    def test_clamped_below_one(self):
        assert q_error(0.0, 0.0) == 1.0
        assert q_error(0.5, 0.0) == 1.0
        assert q_error(0.0, 7.0) == 7.0

    def test_run_snapshot_carries_q_errors(self):
        from repro.engine.benu import run_benu

        result = run_benu(
            get_pattern("chordal_square"), erdos_renyi(40, 0.2, seed=11)
        )
        snap = result.telemetry
        assert set(snap.q_errors) == set(snap.predicted_counts)
        assert snap.q_errors and all(v >= 1.0 for v in snap.q_errors.values())
        for instr, actual in snap.instruction_counts.items():
            if instr in snap.predicted_counts:
                assert snap.q_errors[instr] == pytest.approx(
                    q_error(snap.predicted_counts[instr], float(actual))
                )
        summary = snap.summary()
        assert summary["q_errors"] == snap.q_errors
        assert summary["predicted_counts"] == snap.predicted_counts
