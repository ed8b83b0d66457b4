"""Tests for the property-graph (labeled) extension."""

import random

import pytest

from repro.engine.benu import (
    bind_run,
    count_subgraphs,
    enumerate_subgraphs,
    prepare_data,
    run_benu,
)
from repro.engine.config import BenuConfig
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph, complete_graph, cycle_graph, star_graph
from repro.graph.order import degree_order_relabeling
from repro.labeled import (
    LabeledGraph,
    LabeledPatternGraph,
    count_labeled_matches,
    enumerate_labeled_matches,
)
from repro.plan.cost import GraphStats, predict_instruction_counts
from repro.plan.generation import generate_raw_plan
from repro.plan.instructions import InstructionType
from repro.plan.optimizer import optimize
from repro.plan.validate import validate_plan


def labeled_random_graph(n=30, p=0.3, seed=9, alphabet="ABC"):
    g = erdos_renyi(n, p, seed=seed)
    rng = random.Random(seed)
    labels = {v: rng.choice(alphabet) for v in g.vertices}
    raw = LabeledGraph(g.edges(), labels, vertices=g.vertices)
    # Relabel under ≺ so the oracle's integer comparisons are exact.
    return raw.relabel_vertices(degree_order_relabeling(raw.graph))


@pytest.fixture
def data() -> LabeledGraph:
    return labeled_random_graph()


class TestLabeledGraph:
    def test_requires_all_labels(self):
        with pytest.raises(ValueError, match="without labels"):
            LabeledGraph([(1, 2)], {1: "A"})

    def test_label_index(self):
        g = LabeledGraph([(1, 2), (2, 3)], {1: "A", 2: "B", 3: "A"})
        assert g.vertices_with_label("A") == frozenset({1, 3})
        assert g.vertices_with_label("Z") == frozenset()
        assert g.label_frequencies() == {"A": 2, "B": 1}

    def test_relabel_vertices_moves_labels(self):
        g = LabeledGraph([(1, 2)], {1: "A", 2: "B"})
        h = g.relabel_vertices({1: 10, 2: 20})
        assert h.label_of(10) == "A"
        assert h.label_of(20) == "B"
        assert h.neighbors(10) == frozenset({20})


class TestLabeledPattern:
    def test_labels_shrink_symmetry(self):
        uniform = LabeledPatternGraph(
            complete_graph(3), {1: "A", 2: "A", 3: "A"}
        )
        assert uniform.num_automorphisms == 6
        mixed = LabeledPatternGraph(complete_graph(3), {1: "A", 2: "A", 3: "B"})
        assert mixed.num_automorphisms == 2
        assert mixed.symmetry_conditions == [(1, 2)]

    def test_fully_distinguished_pattern_no_conditions(self):
        p = LabeledPatternGraph(cycle_graph(4), {1: "A", 2: "B", 3: "C", 4: "D"})
        assert p.symmetry_conditions == []

    def test_se_classes_refined_by_label(self):
        p = LabeledPatternGraph(star_graph(3), {1: "H", 2: "X", 3: "X", 4: "Y"})
        assert sorted(map(sorted, p.se_classes)) == [[1], [2, 3], [4]]

    def test_missing_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledPatternGraph(complete_graph(3), {1: "A"})


def bind_labels(plan, data):
    """``plan`` with its label pools on ``data`` bound, ids as given."""
    config = BenuConfig(relabel=False)
    return bind_run(plan, prepare_data(data, config), config, counting=False)[0]


class TestLabelPools:
    def test_adds_label_intersections(self, data):
        pattern = LabeledPatternGraph(
            complete_graph(3), {1: "A", 2: "A", 3: "B"}, "tri"
        )
        base = optimize(generate_raw_plan(pattern, [1, 2, 3]))
        plan = bind_labels(base, data)
        validate_plan(plan)
        # Every ENU now loops over a label-filtered temp.
        for inst in plan.instructions:
            if inst.type is InstructionType.ENU:
                assert inst.operands[0].startswith("T")
        assert any(name.startswith("VL") for name in plan.constants)

    def test_constants_hold_label_pools(self, data):
        pattern = LabeledPatternGraph(
            complete_graph(3), {1: "A", 2: "A", 3: "B"}, "tri"
        )
        base = optimize(generate_raw_plan(pattern, [1, 2, 3]))
        plan = bind_labels(base, data)
        pools = set(map(frozenset, plan.constants.values()))
        assert data.vertices_with_label("A") in pools
        assert data.vertices_with_label("B") in pools
        # The copy is priced as it runs, label intersections included
        # (q-error accounting grades the plan that ran).
        stats = GraphStats.of(data.graph)
        assert plan.predicted_counts == predict_instruction_counts(plan, stats)
        assert plan.predicted_counts["INT"] > (
            predict_instruction_counts(base, stats)["INT"]
        )


class TestEndToEnd:
    def test_k4_hand_count(self):
        data = LabeledGraph(
            complete_graph(4).edges(), {1: "A", 2: "A", 3: "B", 4: "B"}
        )
        tri = LabeledPatternGraph(complete_graph(3), {1: "A", 2: "A", 3: "B"})
        assert count_subgraphs(tri, data) == 2

    @pytest.mark.parametrize(
        "edges,labels",
        [
            (complete_graph(3).edges(), {1: "A", 2: "A", 3: "B"}),
            (complete_graph(3).edges(), {1: "A", 2: "B", 3: "C"}),
            (cycle_graph(4).edges(), {1: "A", 2: "B", 3: "A", 4: "B"}),
            (Graph([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]).edges(),
             {1: "A", 2: "B", 3: "A", 4: "C"}),
            (star_graph(3).edges(), {1: "H", 2: "X", 3: "X", 4: "X"}),
        ],
    )
    def test_matches_oracle(self, edges, labels, data):
        pattern = LabeledPatternGraph(Graph(edges), labels)
        cfg = BenuConfig(relabel=False)
        got = sorted(enumerate_subgraphs(pattern, data, cfg))
        want = sorted(enumerate_labeled_matches(pattern, data))
        assert got == want

    def test_counts_match_oracle_across_alphabets(self):
        for alphabet in ("AB", "ABC", "ABCDE"):
            data = labeled_random_graph(seed=4, alphabet=alphabet)
            pattern = LabeledPatternGraph(
                cycle_graph(4), dict(zip([1, 2, 3, 4], alphabet * 2))
            )
            cfg = BenuConfig(relabel=False)
            assert count_subgraphs(pattern, data, cfg) == (
                count_labeled_matches(pattern, data)
            )

    def test_compressed_expansion(self, data):
        pattern = LabeledPatternGraph(
            Graph([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]),
            {1: "A", 2: "B", 3: "A", 4: "B"},
        )
        cfg = BenuConfig(relabel=False, collect=True)
        plain = sorted(enumerate_subgraphs(pattern, data, cfg))
        compressed = sorted(
            enumerate_subgraphs(
                pattern,
                data,
                BenuConfig(relabel=False, collect=True, compressed=True),
            )
        )
        assert plain == compressed

    def test_relabel_path_returns_original_ids(self):
        g = erdos_renyi(25, 0.3, seed=13, offset=500)
        rng = random.Random(2)
        data = LabeledGraph(
            g.edges(), {v: rng.choice("AB") for v in g.vertices}, g.vertices
        )
        pattern = LabeledPatternGraph(complete_graph(3), {1: "A", 2: "A", 3: "B"})
        result = run_benu(pattern, data, BenuConfig(collect=True))
        for match in result.matches:
            assert all(v >= 500 for v in match)
            # label preservation in original id space
            assert data.label_of(match[0]) == "A"
            assert data.label_of(match[2]) == "B"

    def test_label_selectivity_prunes_tasks(self, data):
        """Only right-label start vertices get tasks."""
        pattern = LabeledPatternGraph(
            complete_graph(3), {1: "A", 2: "A", 3: "B"}
        )
        cfg = BenuConfig(relabel=False)
        result = run_benu(pattern, data, cfg)
        start_label = pattern.label_of(result.plan.order[0])
        assert result.num_tasks <= len(data.vertices_with_label(start_label)) * 4

    def test_no_label_overlap_zero_matches(self, data):
        pattern = LabeledPatternGraph(
            complete_graph(3), {1: "Z", 2: "Z", 3: "Z"}
        )
        assert count_subgraphs(pattern, data, BenuConfig(relabel=False)) == 0
