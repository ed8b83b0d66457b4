"""Tests for task generation and splitting (Section V-B)."""

import pytest

from repro.engine.local_task import LocalSearchTask
from repro.engine.task_split import (
    generate_tasks,
    plan_supports_splitting,
    split_slices,
)
from repro.graph.generators import chung_lu
from repro.graph.graph import star_graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.compression import compress_plan
from repro.plan.generation import generate_raw_plan
from repro.plan.optimizer import optimize


@pytest.fixture
def skewed_graph():
    g, _ = relabel_by_degree_order(chung_lu(300, 6.0, exponent=2.2, seed=5))
    return g


def plan_for(name, order=None):
    pg = PatternGraph(get_pattern(name), name)
    return optimize(generate_raw_plan(pg, order or list(pg.vertices)))


class TestSplitSlices:
    def test_partition_properties(self):
        slices = split_slices(list(range(10)), 3)
        assert len(slices) == 3
        assert sorted(v for s in slices for v in s) == list(range(10))
        sizes = sorted(len(s) for s in slices)
        assert sizes == [3, 3, 4]

    def test_single_slice(self):
        assert split_slices([1, 2, 3], 1) == [frozenset({1, 2, 3})]

    def test_more_slices_than_items(self):
        slices = split_slices([1, 2], 4)
        assert sum(len(s) for s in slices) == 2

    def test_bad_count(self):
        with pytest.raises(ValueError):
            split_slices([1], 0)


class TestPlanSupport:
    def test_uncompressed_plans_splittable(self):
        assert plan_supports_splitting(plan_for("q5"))

    def test_star_compressed_not_splittable(self):
        """VCBC drops every non-hub ENU of a star: nothing to slice."""
        pg = PatternGraph(star_graph(3), "star")
        plan = compress_plan(optimize(generate_raw_plan(pg, [1, 2, 3, 4])))
        assert not plan_supports_splitting(plan)

    def test_single_vertex_pattern(self):
        from repro.graph.graph import Graph

        pg = PatternGraph(Graph(vertices=[1]), "v1")
        plan = generate_raw_plan(pg, [1])
        assert not plan_supports_splitting(plan)


class TestGenerateTasks:
    def test_no_threshold_one_task_per_vertex(self, skewed_graph):
        tasks = list(generate_tasks(plan_for("triangle"), skewed_graph, None))
        assert len(tasks) == skewed_graph.num_vertices
        assert all(not t.is_split for t in tasks)

    def test_heavy_vertices_split(self, skewed_graph):
        tau = 20
        tasks = list(generate_tasks(plan_for("triangle"), skewed_graph, tau))
        # ⌈d/τ⌉ > 1 requires d > τ; degree-exactly-τ stays a single task.
        heavy = [v for v in skewed_graph.vertices if skewed_graph.degree(v) > tau]
        assert heavy, "fixture should have hubs"
        split_starts = {t.start for t in tasks if t.is_split}
        assert split_starts == set(heavy)

    def test_split_count_formula(self, skewed_graph):
        """Adjacent first two pattern vertices: ⌈d(v)/τ⌉ subtasks."""
        tau = 20
        plan = plan_for("triangle")
        assert plan.pattern.graph.has_edge(plan.order[0], plan.order[1])
        tasks = list(generate_tasks(plan, skewed_graph, tau))
        by_start = {}
        for t in tasks:
            by_start.setdefault(t.start, []).append(t)
        for v, ts in by_start.items():
            d = skewed_graph.degree(v)
            if d >= tau:
                assert len(ts) == -(-d // tau)
            else:
                assert len(ts) == 1

    def test_slices_disjoint_and_cover_adjacency(self, skewed_graph):
        tau = 15
        plan = plan_for("triangle")
        tasks = list(generate_tasks(plan, skewed_graph, tau))
        hub = max(skewed_graph.vertices, key=skewed_graph.degree)
        slices = [t.candidate_slice for t in tasks if t.start == hub]
        union = set()
        for s in slices:
            assert not union & s  # disjoint
            union |= s
        assert union == set(skewed_graph.neighbors(hub))

    def test_split_metadata(self, skewed_graph):
        tasks = [
            t
            for t in generate_tasks(plan_for("triangle"), skewed_graph, 15)
            if t.is_split
        ]
        assert tasks
        t = tasks[0]
        assert t.split_total > 1
        assert 0 <= t.split_index < t.split_total
        assert "slice" in repr(t)

    def test_unsplittable_plan_never_splits(self, skewed_graph):
        pg = PatternGraph(star_graph(3), "star")
        plan = compress_plan(optimize(generate_raw_plan(pg, [1, 2, 3, 4])))
        tasks = list(generate_tasks(plan, skewed_graph, 5))
        assert all(not t.is_split for t in tasks)

    def test_nothing_to_split_reads_no_degree(self, skewed_graph, monkeypatch):
        """No threshold, or a plan that cannot split: the start vertices in
        order, one task each, and not one degree lookup."""
        star = PatternGraph(star_graph(3), "star")
        unsplittable = compress_plan(optimize(generate_raw_plan(star, [1, 2, 3, 4])))
        cases = ((plan_for("triangle"), None), (unsplittable, 5))
        monkeypatch.setattr(
            type(skewed_graph), "degree", lambda self, v: pytest.fail("degree read")
        )
        for plan, tau in cases:
            tasks = list(generate_tasks(plan, skewed_graph, tau))
            assert tasks == [LocalSearchTask(v) for v in skewed_graph.vertices]


class TestEdgeCases:
    def test_empty_data_graph(self):
        from repro.graph.graph import Graph

        empty = Graph()
        assert list(generate_tasks(plan_for("triangle"), empty, None)) == []
        assert list(generate_tasks(plan_for("triangle"), empty, 2)) == []

    def test_empty_data_graph_end_to_end(self):
        from repro.engine.benu import count_subgraphs
        from repro.engine.config import BenuConfig
        from repro.graph.graph import Graph

        config = BenuConfig(num_workers=2, split_threshold=2, relabel=False)
        assert count_subgraphs(get_pattern("triangle"), Graph(), config) == 0

    def test_data_graph_smaller_than_pattern(self):
        """A 2-vertex data graph still yields one task per vertex for a
        triangle plan — they all enumerate nothing, but generation and
        execution must not blow up."""
        from repro.engine.benu import count_subgraphs
        from repro.engine.config import BenuConfig
        from repro.graph.graph import Graph

        tiny = Graph([(1, 2)])
        tasks = list(generate_tasks(plan_for("triangle"), tiny, None))
        assert len(tasks) == 2
        assert all(not t.is_split for t in tasks)
        config = BenuConfig(num_workers=4, split_threshold=1, relabel=False)
        assert count_subgraphs(get_pattern("clique4"), tiny, config) == 0

    def test_single_hub_splits_into_more_tasks_than_workers(self):
        """One hub with d ≫ τ must fan out into many subtasks so every
        worker gets a share — the whole point of Section V-B."""
        from repro.engine.benu import run_benu
        from repro.engine.config import BenuConfig

        hub_graph, _ = relabel_by_degree_order(star_graph(40))
        tau = 4
        plan = plan_for("triangle")
        tasks = list(generate_tasks(plan, hub_graph, tau))
        hub = max(hub_graph.vertices, key=hub_graph.degree)
        hub_tasks = [t for t in tasks if t.start == hub]
        assert len(hub_tasks) == 10  # ceil(40 / 4)
        num_workers = 4
        assert len(hub_tasks) > num_workers
        # Slices partition the hub's adjacency exactly.
        union = set()
        for t in hub_tasks:
            assert not union & t.candidate_slice
            union |= t.candidate_slice
        assert union == set(hub_graph.neighbors(hub))
        # End-to-end: split execution matches the unsplit count (a star
        # has no triangles; use a wheel so the count is non-zero).
        from repro.graph.graph import Graph

        spokes = list(range(2, 42))
        wheel = Graph(
            [(1, s) for s in spokes]
            + [(spokes[i], spokes[(i + 1) % len(spokes)]) for i in range(len(spokes))]
        )
        wheel, _ = relabel_by_degree_order(wheel)
        split_cfg = BenuConfig(
            num_workers=num_workers, split_threshold=tau, relabel=False
        )
        unsplit_cfg = BenuConfig(
            num_workers=num_workers, split_threshold=None, relabel=False
        )
        pattern = get_pattern("triangle")
        split_result = run_benu(pattern, wheel, split_cfg)
        assert split_result.count == run_benu(pattern, wheel, unsplit_cfg).count
        assert split_result.count == 40
