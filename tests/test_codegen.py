"""Tests for the plan compiler (codegen) against the reference interpreter."""

from itertools import permutations

import pytest

from repro.engine.interpreter import interpret_plan
from repro.graph.generators import erdos_renyi
from repro.graph.graph import complete_graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.codegen import TaskCounters, compile_plan, generate_source
from repro.plan.compression import compress_plan
from repro.plan.generation import generate_raw_plan
from repro.plan.optimizer import optimize


@pytest.fixture
def data_graph():
    g, _ = relabel_by_degree_order(erdos_renyi(24, 0.3, seed=31))
    return g


def plan_for(name, order, level=3, compressed=False):
    plan = optimize(
        generate_raw_plan(PatternGraph(get_pattern(name), name), order), level
    )
    return compress_plan(plan) if compressed else plan


class TestTaskCounters:
    def test_addition(self):
        a = TaskCounters(1, 2, 1, 3, 4, 5)
        b = TaskCounters(10, 20, 10, 30, 40, 50)
        assert a + b == TaskCounters(11, 22, 11, 33, 44, 55)

    def test_trc_hits(self):
        assert TaskCounters(trc_ops=10, trc_misses=3).trc_hits == 7

    def test_from_tuple(self):
        assert TaskCounters.from_tuple((1, 2, 3, 4, 5, 6)).enu_steps == 5


class TestGeneratedSource:
    def test_source_is_valid_python(self):
        plan = plan_for("q1", [1, 2, 3, 4, 5])
        src = generate_source(plan)
        compile(src, "<test>", "exec")

    def test_bad_mode_rejected(self):
        plan = plan_for("triangle", [1, 2, 3])
        with pytest.raises(ValueError):
            generate_source(plan, mode="stream")

    def test_uninstrumented_source_has_no_counters(self):
        plan = plan_for("triangle", [1, 2, 3])
        src = generate_source(plan, instrument=False)
        assert "n_int" not in src
        assert "n_dbq" not in src

    def test_source_attached_to_compiled_plan(self):
        compiled = compile_plan(plan_for("triangle", [1, 2, 3]))
        assert "def _benu_task" in compiled.source


class TestCompileMemo:
    """An instrumented, unprofiled compile is memoised on the plan."""

    def test_one_compile_per_mode_and_layout(self):
        plan = plan_for("q1", [1, 2, 3, 4, 5])
        first = compile_plan(plan, mode="count")
        assert compile_plan(plan, mode="count") is first
        assert compile_plan(plan, mode="collect") is not first
        assert compile_plan(plan, mode="count", backend="csr") is not first
        assert compile_plan(plan, mode="count", backend="csr").backend == "csr"
        assert compile_plan(plan, mode="collect").mode == "collect"

    def test_uninstrumented_and_profiled_compiles_bypass_it(self):
        from repro.telemetry import MetricsRegistry
        from repro.telemetry.profiler import SamplingProfiler

        plan = plan_for("triangle", [1, 2, 3])
        memoised = compile_plan(plan)
        bare = compile_plan(plan, instrument=False)
        assert bare is not memoised and not bare.instrumented
        assert compile_plan(plan, instrument=False) is not bare
        profiler = SamplingProfiler(MetricsRegistry().histogram("h", labels=("instr",)))
        probed = compile_plan(plan, profiler=profiler)
        assert probed.profiled and probed is not memoised
        assert compile_plan(plan) is memoised

    def test_a_rewritten_plan_is_recompiled(self):
        from repro.plan.optimizer import eliminate_common_subexpressions

        plan = plan_for("clique4", [1, 2, 3, 4], level=0)
        raw = compile_plan(plan)
        # An optimizer pass rebinds plan.instructions in place.
        eliminate_common_subexpressions(plan)
        assert compile_plan(plan) is not raw
        assert compile_plan(plan).source != raw.source

    def test_the_memo_does_not_travel(self):
        import copy
        import pickle

        plan = plan_for("triangle", [1, 2, 3])
        compiled = compile_plan(plan)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.instructions == plan.instructions
        assert "_compiled" not in vars(clone)
        assert "_compiled" not in vars(copy.copy(plan))
        assert compile_plan(clone) is not compiled


class TestCountMode:
    def test_triangle_k4(self):
        plan = plan_for("triangle", [1, 2, 3])
        g = complete_graph(4, offset=0)
        compiled = compile_plan(plan)
        total = sum(compiled.run(v, g.neighbors).results for v in g.vertices)
        assert total == 4

    def test_counting_peephole_matches_loop(self, data_graph):
        """The len() peephole must count exactly what the loop counts."""
        plan = plan_for("q1", [1, 2, 3, 4, 5])
        vset = frozenset(data_graph.vertices)
        count_mode = compile_plan(plan, mode="count")
        collect_mode = compile_plan(plan, mode="collect")
        out = []
        n_count = sum(
            count_mode.run(v, data_graph.neighbors, vset=vset).results
            for v in data_graph.vertices
        )
        for v in data_graph.vertices:
            collect_mode.run(v, data_graph.neighbors, vset=vset, emit=out.append)
        assert n_count == len(out)

    def test_instrumented_and_fast_agree(self, data_graph):
        plan = plan_for("q5", [1, 2, 3, 4, 5])
        vset = frozenset(data_graph.vertices)
        slow = compile_plan(plan, instrument=True)
        fast = compile_plan(plan, instrument=False)
        for v in list(data_graph.vertices)[:10]:
            a = slow.run(v, data_graph.neighbors, vset=vset)
            b = fast.run(v, data_graph.neighbors, vset=vset)
            assert a.results == b.results
            assert b.int_ops == 0  # uninstrumented


class TestAgainstInterpreter:
    @pytest.mark.parametrize(
        "name,order,level",
        [
            ("triangle", [1, 2, 3], 0),
            ("triangle", [1, 2, 3], 3),
            ("square", [1, 3, 2, 4], 2),
            ("q1", [2, 5, 1, 3, 4], 3),
            ("q6", [1, 4, 5, 6, 2, 3], 3),
            ("demo", [1, 3, 5, 2, 6, 4], 3),
        ],
    )
    def test_matches_identical(self, name, order, level, data_graph):
        plan = plan_for(name, order, level)
        vset = frozenset(data_graph.vertices)
        compiled = compile_plan(plan, mode="collect")
        for v in list(data_graph.vertices)[::3]:
            got, want = [], []
            compiled.run(v, data_graph.neighbors, vset=vset, emit=got.append)
            interpret_plan(
                plan, v, data_graph.neighbors, vset=vset, emit=want.append
            )
            assert sorted(got) == sorted(want)

    def test_counters_agree(self, data_graph):
        plan = plan_for("q6", [1, 4, 5, 6, 2, 3])
        vset = frozenset(data_graph.vertices)
        compiled = compile_plan(plan)
        for v in list(data_graph.vertices)[:8]:
            a = compiled.run(v, data_graph.neighbors, vset=vset, tcache={})
            b = interpret_plan(
                plan, v, data_graph.neighbors, vset=vset, tcache={}
            )
            assert a.results == b.results
            assert a.dbq_ops == b.dbq_ops
            assert a.trc_ops == b.trc_ops
            assert a.trc_misses == b.trc_misses

    def test_compressed_codes_identical(self, data_graph):
        plan = plan_for("q4", [5, 2, 3, 1, 4], compressed=True)
        vset = frozenset(data_graph.vertices)
        compiled = compile_plan(plan, mode="collect")
        got, want = [], []
        for v in data_graph.vertices:
            compiled.run(v, data_graph.neighbors, vset=vset, emit=got.append)
            interpret_plan(plan, v, data_graph.neighbors, vset=vset, emit=want.append)
        assert sorted(map(repr, got)) == sorted(map(repr, want))


class TestCandidateOverride:
    def test_slices_partition_results(self, data_graph):
        plan = plan_for("q1", [1, 2, 3, 4, 5])
        vset = frozenset(data_graph.vertices)
        compiled = compile_plan(plan)
        hub = max(data_graph.vertices, key=data_graph.degree)
        full = compiled.run(hub, data_graph.neighbors, vset=vset).results
        nbrs = sorted(data_graph.neighbors(hub))
        half = len(nbrs) // 2
        a = compiled.run(
            hub,
            data_graph.neighbors,
            vset=vset,
            candidate_override=frozenset(nbrs[:half]),
        ).results
        b = compiled.run(
            hub,
            data_graph.neighbors,
            vset=vset,
            candidate_override=frozenset(nbrs[half:]),
        ).results
        assert a + b == full

    def test_empty_override_yields_nothing(self, data_graph):
        plan = plan_for("triangle", [1, 2, 3])
        compiled = compile_plan(plan)
        hub = max(data_graph.vertices, key=data_graph.degree)
        got = compiled.run(
            hub,
            data_graph.neighbors,
            vset=frozenset(data_graph.vertices),
            candidate_override=frozenset(),
        )
        assert got.results == 0


class TestAllOrdersAllLevels:
    def test_square_every_order_every_level(self, data_graph):
        """Exhaustive consistency: 24 orders × 4 levels, one truth."""
        pg = PatternGraph(get_pattern("square"), "square")
        vset = frozenset(data_graph.vertices)
        expected = None
        for order in permutations(pg.vertices):
            for level in (0, 3):
                plan = optimize(generate_raw_plan(pg, order), level)
                compiled = compile_plan(plan)
                total = sum(
                    compiled.run(v, data_graph.neighbors, vset=vset).results
                    for v in data_graph.vertices
                )
                if expected is None:
                    expected = total
                assert total == expected, f"order={order} level={level}"
