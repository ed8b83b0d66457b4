"""Tests for the plan compiler (codegen) against the reference interpreter."""

import os
from dataclasses import astuple
from itertools import combinations, permutations
from pathlib import Path

import pytest

from repro.engine.benu import bind_run, build_plan, prepare_data
from repro.engine.config import BenuConfig
from repro.engine.interpreter import interpret_plan
from repro.engine.sinks import CollectSink
from repro.graph.generators import erdos_renyi, random_connected_graph
from repro.graph.graph import Graph, complete_graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import PATTERNS, get_pattern
from repro.labeled.graphs import LabeledGraph
from repro.labeled.oracle import count_labeled_matches
from repro.labeled.pattern import LabeledPatternGraph
from repro.lang import lower_query, pattern_to_query
from repro.lang.run import execute_query
from repro.pattern.isomorphism import enumerate_matches
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.codegen import (
    RESULTS,
    TaskCounters,
    compile_plan,
    generate_source,
)
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

    def test_every_source_counts(self):
        """There is no uncounted compile: INT and DBQ sites count."""
        src = generate_source(plan_for("triangle", [1, 2, 3]))
        assert "n_int += 1" in src
        assert "n_dbq += 1" in src

    def test_source_attached_to_compiled_plan(self):
        compiled = compile_plan(plan_for("triangle", [1, 2, 3]))
        assert "def _benu_task" in compiled.source


class TestCompileMemo:
    """An unprofiled compile is memoised on the plan."""

    def test_one_compile_per_mode_and_layout(self):
        """One compute form: the memo is keyed on the mode alone."""
        plan = plan_for("q1", [1, 2, 3, 4, 5])
        first = compile_plan(plan, mode="count")
        assert compile_plan(plan, mode="count") is first
        assert compile_plan(plan, mode="collect") is not first
        assert compile_plan(plan, mode="collect").mode == "collect"
        assert set(vars(plan)["_compiled"]) == {"count", "collect"}

    def test_profiled_compiles_bypass_it(self):
        from repro.telemetry import MetricsRegistry
        from repro.telemetry.profiler import SamplingProfiler

        plan = plan_for("triangle", [1, 2, 3])
        memoised = compile_plan(plan)
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

    def test_every_compile_counts_like_the_interpreter(self, data_graph):
        """Count and collect compiles both report all six counters."""
        assert_all_modes_count_alike(plan_for("q5", [1, 2, 3, 4, 5]), data_graph)


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


# ----------------------------------------------------------------------
# Count-mode lowerings: count tail, NE difference
# ----------------------------------------------------------------------
GOLDEN = Path(__file__).parent / "golden" / "codegen"


def hub_graph():
    """Star ∪ clique ∪ pendant paths around one hub (vertex 0).

    Leaves 1-8 see only the hub (plus two chords), the clique {0, 9..12}
    sees itself, and the paths hang off a leaf and a clique vertex: a
    counted adjacency set is sometimes the hub's (every earlier scalar is
    in it), sometimes a leaf's or a path vertex's (none is).
    """
    edges = [(0, leaf) for leaf in range(1, 9)]
    edges += combinations([0, 9, 10, 11, 12], 2)
    edges += [(1, 13), (13, 14), (9, 15), (15, 16)]
    edges += [(2, 3), (3, 9), (14, 16)]
    return Graph(edges)


def sampled_orders(pg, limit=24):
    """Every matching order of a small pattern, an even sample of a large one."""
    orders = list(permutations(pg.vertices))
    return orders[:: max(1, len(orders) // limit)]


def assert_all_modes_count_alike(plan, graph, starts=None, override=None):
    """count == interpreter == collect, all six counters, task by task."""
    vset = frozenset(graph.vertices)
    starts = graph.vertices if starts is None else starts
    wants = {
        v: astuple(
            interpret_plan(
                plan, v, graph.neighbors, vset=vset, tcache={},
                candidate_override=override,
            )
        )
        for v in starts
    }
    for mode in ("count", "collect"):
        variant = compile_plan(plan, mode=mode)
        for v in starts:
            got = variant.run_raw(
                v, graph.neighbors, vset, emit=[].append, tcache={},
                candidate_override=override,
            )
            assert got == wants[v], (plan.order, v, mode)


class TestCountLoweringsDifferential:
    """The count-only lowerings move no counter."""

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_every_pattern_every_order(self, name):
        pg = PatternGraph(get_pattern(name), name)
        graph = hub_graph()
        for order in sampled_orders(pg):
            for level in (0, 3):
                plan = optimize(generate_raw_plan(pg, order), level)
                assert_all_modes_count_alike(plan, graph)

    def test_excluded_scalars_fall_inside_and_outside_the_operand(self):
        """The graph exercises both outcomes of every ``f in S`` term."""
        graph = hub_graph()
        rows = []
        collect = compile_plan(plan_for("q2", [1, 2, 3, 4, 5]), mode="collect")
        for v in graph.vertices:
            collect.run(v, graph.neighbors, emit=rows.append)
        # q2's tail counts A4 less f1, f2, f3.  The square puts f1 and f3
        # in A4 always; f2 is its diagonal, there only when the data has
        # the chord.
        assert {row[1] in graph.neighbors(row[3]) for row in rows} == {True, False}

    def test_labeled_plan(self):
        """A label pool makes the tail a two-operand INT (``C & VL0``)."""
        graph = hub_graph()
        labels = {v: "AB"[v % 2] for v in graph.vertices}
        data = LabeledGraph(graph.edges(), labels)
        pattern = LabeledPatternGraph(
            get_pattern("q2"), {1: "A", 2: "B", 3: "A", 4: "B", 5: "A"}
        )
        config = BenuConfig(relabel=False)
        plan, _ = bind_run(
            optimize(generate_raw_plan(pattern, [1, 2, 3, 4, 5]), 3),
            prepare_data(data, config), config, counting=False,
        )
        source = generate_source(plan)
        assert "_s = C5 & VL0" in source and "_c = len(_s)" in source
        assert_all_modes_count_alike(plan, graph)

    def test_candidate_override_task(self):
        graph = hub_graph()
        hub_row = sorted(graph.neighbors(0))
        for name, order in (("q2", [1, 2, 3, 4, 5]), ("square", [1, 2, 3, 4])):
            for override in (frozenset(hub_row[::2]), frozenset(hub_row[1::2])):
                assert_all_modes_count_alike(
                    plan_for(name, order), graph, starts=[0], override=override
                )

    def test_the_splitting_level_is_never_a_count_tail(self):
        """A two-vertex plan's last ENU takes the override: len() fallback."""
        edge = PatternGraph(Graph([(1, 2)]), "edge")
        plan = optimize(generate_raw_plan(edge, [1, 2]), 3)
        source = generate_source(plan)
        assert "_c = " not in source and "n_res += len(_c2)" in source
        graph = hub_graph()
        assert_all_modes_count_alike(
            plan, graph, starts=[0], override=frozenset([1, 9, 14])
        )


class TestLoopInvariantLoweringsDifferential:
    """The lifted tail, the hoisted bound and the loop-head ticks move no
    counter, on the orders where they fire."""

    @pytest.mark.parametrize(
        "name,order",
        [
            ("q2", [1, 4, 3, 2, 5]),      # lifted tail
            ("demo", [3, 5, 4, 1, 2, 6]),  # lifted tail under a TRC
            ("q1", [1, 2, 3, 4, 5]),      # hoisted bound
            ("q4", [2, 5, 1, 3, 4]),      # hoisted bound, excluded scalar
            ("square", [1, 2, 4, 3]),     # hoisted bound, no NE term
            ("chordal_square", [1, 3, 2, 4]),  # pair tail, ``> f2``
            ("chordal_square", [1, 3, 4, 2]),  # pair tail, ``< f4``
        ],
    )
    def test_the_orders_they_fire_on(self, name, order):
        source = generate_source(plan_for(name, order))
        assert "_g = None" in source or "_n * (" in source
        for graph in (hub_graph(), relabel_by_degree_order(
            erdos_renyi(40, 0.25, seed=7)
        )[0]):
            assert_all_modes_count_alike(plan_for(name, order), graph)
            assert_all_modes_count_alike(plan_for(name, order, level=0), graph)

    def test_split_tasks(self):
        graph = hub_graph()
        hub_row = sorted(graph.neighbors(0))
        for name, order in (("q1", [1, 2, 3, 4, 5]), ("q4", [2, 5, 1, 3, 4])):
            for override in (frozenset(hub_row[::2]), frozenset()):
                assert_all_modes_count_alike(
                    plan_for(name, order), graph, starts=[0], override=override
                )


class TestCountLoweringsSourceShape:
    Q2 = ("q2", [1, 2, 3, 4, 5])

    def test_ne_only_tail_is_arithmetic(self):
        lines = generate_source(plan_for(*self.Q2)).splitlines()
        (tail,) = [ln.strip() for ln in lines if ln.strip().startswith("_c = ")]
        assert tail == "_c = len(A4) - (f1 in A4) - (f2 in A4) - (f3 in A4)"
        assert not any(ln.strip().startswith("C5") for ln in lines)

    def test_bounded_tail_keeps_one_comprehension_without_ne_terms(self):
        source = generate_source(plan_for("q1", [1, 2, 3, 4, 5]))
        assert "if _g is None: _g = {v for v in T6 if v > f2}" in source
        assert "_c = len(_g & A4) - (f3 in _g and f3 in A4)" in source

    def test_membership_tail_under_its_loop_is_lifted(self):
        """``for f2 in C2`` with an NE-only tail on A4 is arithmetic."""
        source = generate_source(plan_for("q2", [1, 4, 3, 2, 5]))
        assert "for f2 in" not in source
        assert (
            "_c = _n * (len(A4) - (f1 in A4) - (f3 in A4)) - len(C2 & A4)"
            in source
        )
        assert "n_int += _n" in source

    def test_bound_on_an_invariant_operand_is_hoisted(self):
        """q1's tail bounds ``T4 = T6 & A4`` by f2, and T6, f2 are fixed
        outside the f4 loop: the feeder is only an emptiness test."""
        source = generate_source(plan_for("q1", [1, 2, 3, 4, 5]))
        assert "if T6.isdisjoint(A4): continue" in source
        assert "_g = None\n" + " " * 12 + "for f4 in C4:" in source
        assert "T4 = " not in source and "[v for v in" not in source

    def test_a_bound_on_the_loop_variable_is_not_hoisted(self):
        source = generate_source(plan_for("clique4", [1, 2, 3, 4]))
        assert "_g" not in source
        assert "_c = len([v for v in T4 if v > f3])" in source

    def test_implied_bounds_are_not_emitted_in_either_mode(self):
        """f1 < f2 < f3 hold once mapped: only the last bound is checked."""
        for mode in ("count", "collect"):
            source = generate_source(plan_for("clique4", [1, 2, 3, 4]), mode=mode)
            assert "C3 = {v for v in T5 if v > f2}" in source
            assert "v > f1 and" not in source and "v > f2 and" not in source

    @pytest.mark.parametrize("order", [[1, 3, 2, 4], [1, 3, 4, 2]])
    def test_a_tail_bounding_its_own_loop_counts_pairs(self, order):
        """``for f in T5`` over ``{v in T5 : v > f}`` (or ``<``) is
        |T5| choose 2."""
        source = generate_source(plan_for("chordal_square", order))
        assert "_c = _n * (_n - 1) // 2" in source
        assert "for f2 in" not in source and "for f4 in" not in source

    def test_loop_heads_book_straight_line_ticks(self):
        """A DBQ and the INT after it tick once per candidate: the loop
        head books both, and the body keeps only the conditional ticks."""
        source = generate_source(plan_for(*self.Q2))
        head = "_n = len(C3)\n" + "\n".join(
            " " * 8 + tick for tick in ("n_enu += _n", "n_dbq += _n", "n_int += _n")
        )
        assert head in source
        assert source.count("n_dbq += 1") == 1  # the start's own row
        assert generate_source(plan_for(*self.Q2), mode="collect").count(
            "n_dbq += 1"
        ) == 4  # collect mode ticks where it executes

    def test_non_tail_ne_only_int_is_a_set_difference(self):
        source = generate_source(plan_for(*self.Q2))
        assert "C4 = T4 - {f2}" in source
        assert "C4 = {v for v in" not in source
        # Bounds are not a difference: they stay a comprehension.
        assert "C3 = {v for v in A2 if v > f1}" in source

    @pytest.mark.parametrize(
        "golden,kwargs",
        [
            ("q2_collect_frozenset", dict(mode="collect")),
            ("q2_count_frozenset_profiled", dict(mode="count", profile=True)),
        ],
    )
    def test_everything_else_is_byte_identical_to_pr16(self, golden, kwargs):
        """Collect mode and profiled compiles did not move."""
        want = (GOLDEN / f"{golden}.py.txt").read_text(encoding="utf-8")
        assert generate_source(plan_for(*self.Q2), **kwargs) == want


class TestCsrSitesCompileToTheirKind:
    """A csr-priced row is the graph's frozenset, so every site is a set
    site: no source calls a kernel, a view method or a bisect, and none
    checks an operand's type at run time."""

    @staticmethod
    def _sources(name, modes):
        pg = PatternGraph(get_pattern(name), name)
        for order in sampled_orders(pg):
            for level in (0, 3):
                plan = optimize(generate_raw_plan(pg, order), level)
                for mode in modes:
                    yield (order, level, mode), generate_source(plan, mode=mode)

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_no_kernel_call_on_a_known_kind(self, name):
        for where, source in self._sources(name, ("count",)):
            for call in ("_ik", "_srt(", "_ovr(", "_bl(", "_br("):
                assert call not in source, (where, call, source)

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_row_meets_row_through_frozensets_only(self, name):
        """Every row ∩ row is the frozenset path: no size test, no
        run-time type check, no kernel call, no view method."""
        for where, source in self._sources(name, ("count", "collect")):
            assert "_X" not in source and "type(" not in source, where
            assert "_ikv(" not in source and ".fset()" not in source, where


try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs pytest only
    HAVE_HYPOTHESIS = False


#: Examples per run of the fuzzer below: tier-1 keeps a fixed budget, and
#: ``BENU_FUZZ_EXAMPLES=500`` widens the sweep (CI runs that too).
FUZZ_EXAMPLES = int(os.environ.get("BENU_FUZZ_EXAMPLES", "60"))


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
class TestCountEqualsCollectHypothesis:
    """Random pattern × random graph with a planted hub: count, collect and
    the interpreter agree on all six counters, task by task, and count is
    the number of collected rows."""

    if HAVE_HYPOTHESIS:

        @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
        @given(
            n_pattern=st.integers(3, 6),
            density=st.floats(0.0, 0.8),
            pattern_seed=st.integers(0, 10_000),
            n=st.integers(6, 16),
            p=st.floats(0.1, 0.5),
            graph_seed=st.integers(0, 10_000),
            hub_reach=st.floats(0.5, 1.0),
            rnd=st.randoms(use_true_random=False),
        )
        def test_count_is_len_collect(
            self, n_pattern, density, pattern_seed, n, p, graph_seed, hub_reach, rnd
        ):
            pattern = random_connected_graph(n_pattern, density, seed=pattern_seed)
            base = erdos_renyi(n, p, seed=graph_seed)
            hub = n + 1
            spokes = [(hub, v) for v in base.vertices if rnd.random() < hub_reach]
            graph = Graph(list(base.edges()) + spokes, vertices=base.vertices)
            order = list(pattern.vertices)
            rnd.shuffle(order)
            plan = optimize(
                generate_raw_plan(PatternGraph(pattern), order), rnd.choice((0, 3))
            )
            assert_all_modes_count_alike(plan, graph)
            vset = frozenset(graph.vertices)
            collect = compile_plan(plan, mode="collect")
            for v in graph.vertices:
                rows = []
                counted = collect.run_raw(v, graph.neighbors, vset, emit=rows.append)
                assert counted[RESULTS] == len(rows)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis unavailable")
class TestCountPlanHypothesis:
    """Random pattern (labels on or off) × random matching order × random
    graph with a planted hub: the count run, on its own symmetry breaking,
    counts what collect returns and what the oracle finds — and so does
    the twin anchored along the order, whether the estimate picks it or
    not."""

    if HAVE_HYPOTHESIS:

        @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
        @given(
            n_pattern=st.integers(3, 6),
            density=st.floats(0.0, 0.8),
            pattern_seed=st.integers(0, 10_000),
            n=st.integers(6, 16),
            p=st.floats(0.1, 0.5),
            graph_seed=st.integers(0, 10_000),
            hub_reach=st.floats(0.5, 1.0),
            labeled=st.booleans(),
            rnd=st.randoms(use_true_random=False),
        )
        def test_count_is_len_collect_is_oracle(
            self, n_pattern, density, pattern_seed, n, p, graph_seed,
            hub_reach, labeled, rnd,
        ):
            shape = random_connected_graph(n_pattern, density, seed=pattern_seed)
            base = erdos_renyi(n, p, seed=graph_seed)
            hub = n + 1
            spokes = [(hub, v) for v in base.vertices if rnd.random() < hub_reach]
            graph = Graph(list(base.edges()) + spokes, vertices=base.vertices)
            if labeled:
                data = LabeledGraph(
                    graph.edges(), {v: rnd.choice("AB") for v in graph.vertices},
                    vertices=graph.vertices,
                )
                pattern = LabeledPatternGraph(
                    shape, {u: rnd.choice(("A", "B", None)) for u in shape.vertices}
                )
                want = count_labeled_matches(pattern, data)
            else:
                data, pattern = graph, PatternGraph(shape)
                want = sum(1 for _ in enumerate_matches(
                    shape, graph, partial_order=pattern.symmetry_conditions
                ))
            config = BenuConfig()
            count_query = lower_query(pattern_to_query(pattern, "count"))
            rows_query = lower_query(pattern_to_query(pattern))
            prepared = prepare_data(data, config)
            order = list(count_query.pattern.vertices)
            rnd.shuffle(order)
            plan = build_plan(
                count_query.pattern, prepared.graph, order=order,
                optimization_level=rnd.choice((0, 3)),
            )
            twin = optimize(generate_raw_plan(
                plan.pattern, order, plan.pattern.anchored_conditions(order)
            ))
            rows = CollectSink()
            execute_query(rows_query, plan, prepared, config, sink=rows)
            assert len(rows.results) == want
            for counted in (plan, twin):
                result, _ = execute_query(count_query, counted, prepared, config)
                assert result.count == want
