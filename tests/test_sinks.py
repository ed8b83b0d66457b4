"""Tests for match sinks and streaming runs."""

import ast
import re
from array import array
from dataclasses import replace
from pathlib import Path

import pytest

from repro.engine.benu import execute_plan, prepare_data, prepare_plan
from repro.engine.cluster import SimulatedCluster
from repro.engine.config import (
    ADJACENCY_BACKENDS,
    EXECUTION_BACKENDS,
    BenuConfig,
)
from repro.engine.sinks import (
    CallbackSink,
    CollectSink,
    CountSink,
    FileSink,
    ReservoirSink,
    RowBlock,
)
from repro.graph.generators import erdos_renyi
from repro.graph.graph import Graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import get_pattern
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.compression import compress_plan
from repro.plan.generation import generate_raw_plan
from repro.plan.optimizer import optimize


@pytest.fixture(scope="module")
def setting():
    g, _ = relabel_by_degree_order(erdos_renyi(30, 0.3, seed=71))
    plan = optimize(
        generate_raw_plan(PatternGraph(get_pattern("triangle"), "t"), [1, 2, 3])
    )
    cluster = SimulatedCluster(g, BenuConfig(relabel=False))
    return g, plan, cluster


class TestSinkObjects:
    def test_count_sink(self):
        sink = CountSink()
        sink.emit_block(RowBlock.from_rows([(i,) for i in range(3)], 1))
        sink.emit_block(RowBlock([frozenset({1}), "a"], 1))  # list-flat
        assert sink.count == 5

    def test_collect_sink(self):
        sink = CollectSink()
        sink.emit_block(RowBlock.from_rows([(1, 2), (3, 4)], 2))
        sink.emit_block(RowBlock(array("q"), 2))
        sink.emit_block(RowBlock(["a", frozenset({5, 6})], 2))  # list-flat
        assert sink.results == [(1, 2), (3, 4), ("a", frozenset({5, 6}))]
        assert sink.count == 3

    def test_callback_sink(self):
        seen = []
        sink = CallbackSink(seen.append)
        sink.emit((9,))
        assert seen == [(9,)] and sink.count == 1

    def test_file_sink(self, tmp_path):
        path = tmp_path / "out.tsv"
        with FileSink(path) as sink:
            sink.emit((1, 2, 3))
            sink.emit((4, frozenset({7, 5}), 6))
        text = path.read_text()
        assert text.splitlines() == ["1\t2\t3", "4\t{5,7}\t6"]
        assert sink.count == 2

    def test_reservoir_basic(self):
        sink = ReservoirSink(capacity=3, seed=1)
        for i in range(100):
            sink.emit((i,))
        assert sink.count == 100
        assert len(sink.sample) == 3
        assert all(0 <= s[0] < 100 for s in sink.sample)

    def test_reservoir_under_capacity_keeps_all(self):
        sink = ReservoirSink(capacity=10)
        for i in range(4):
            sink.emit((i,))
        assert sorted(s[0] for s in sink.sample) == [0, 1, 2, 3]

    def test_reservoir_uniformity(self):
        """Each item lands in the sample with probability ≈ capacity/N."""
        hits = [0] * 20
        for seed in range(300):
            sink = ReservoirSink(capacity=5, seed=seed)
            for i in range(20):
                sink.emit((i,))
            for (i,) in sink.sample:
                hits[i] += 1
        expected = 300 * 5 / 20
        assert all(0.5 * expected < h < 1.6 * expected for h in hits)

    def test_reservoir_bad_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSink(0)


class TestStreamingRuns:
    def test_file_sink_streams_matches(self, setting, tmp_path):
        g, plan, cluster = setting
        path = tmp_path / "matches.tsv"
        with FileSink(path) as sink:
            result = cluster.run_plan(plan, sink=sink)
        assert result.matches is None  # streamed, not collected
        lines = path.read_text().splitlines()
        assert len(lines) == result.count == sink.count

    def test_collect_sink_equals_internal_collection(self, setting):
        g, plan, cluster = setting
        sink = CollectSink()
        streamed = cluster.run_plan(plan, sink=sink)
        collected_cluster = SimulatedCluster(
            g, BenuConfig(relabel=False, collect=True)
        )
        collected = collected_cluster.run_plan(plan)
        assert sink.results == collected.matches  # in order
        assert streamed.count == collected.count
        assert streamed.matches is None and streamed.codes is None

    def test_reservoir_on_compressed_codes(self, setting):
        g, plan, cluster = setting
        compressed = compress_plan(plan)
        sink = ReservoirSink(capacity=5, seed=2)
        result = cluster.run_plan(compressed, sink=sink)
        assert sink.count == result.count
        assert len(sink.sample) == min(5, result.count)


# ------------------------------------------- collect is a CollectSink stream
def _int_graph():
    # Ids far from 0..n-1, so the translation back is never the identity.
    base = erdos_renyi(26, 0.3, seed=13)
    return Graph((1000 + 7 * u, 1000 + 7 * v) for u, v in base.edges())


def _string_graph():
    """Original ids that are not int64s: rows leave packing on the way out."""
    return Graph((f"v{u}", f"v{v}") for u, v in _int_graph().edges())


GRAPHS = {"int-ids": _int_graph, "string-ids": _string_graph}


def _collect_and_stream(graph, **config):
    config = BenuConfig(split_threshold=4, **config)
    prepared = prepare_data(graph, config)  # relabeled: int execution ids
    plan = prepare_plan(get_pattern("chordal_square"), prepared, config)
    sink = CollectSink()
    streamed = execute_plan(plan, prepared, config, sink=sink)
    collected = execute_plan(plan, prepared, replace(config, collect=True))
    return prepared, sink, streamed, collected


@pytest.mark.parametrize("ids", sorted(GRAPHS))
@pytest.mark.parametrize("compressed", (False, True), ids=("plain", "compressed"))
@pytest.mark.parametrize("layout", ADJACENCY_BACKENDS)
@pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
def test_collect_is_a_collect_sink_stream(backend, layout, compressed, ids):
    """``collect=True`` is the stream an explicit CollectSink gets, row for
    row and in order: one path, every backend, layout and id type."""
    prepared, sink, streamed, collected = _collect_and_stream(
        GRAPHS[ids](),
        execution_backend=backend,
        adjacency_backend=layout,
        compressed=compressed,
        num_workers=1 if backend == "process" else 2,  # deterministic order
    )
    rows = collected.codes if compressed else collected.matches
    other = collected.matches if compressed else collected.codes
    assert rows and rows == sink.results and other is None
    assert collected.count == streamed.count == len(rows)
    assert streamed.matches is None and streamed.codes is None
    if compressed:
        # Codes stay in execution space; expansion translates them.
        in_codes = {
            v
            for code in rows
            for slot in code
            for v in (slot if isinstance(slot, frozenset) else (slot,))
        }
        assert in_codes <= set(prepared.graph.vertices)
        plain = _collect_and_stream(
            GRAPHS[ids](), execution_backend=backend, adjacency_backend=layout
        )[3]
        assert sorted(collected.expanded_matches()) == sorted(plain.matches)
    else:
        # Matches leave in original ids.
        originals = set(GRAPHS[ids]().vertices)
        assert all(v in originals for row in rows for v in row)


@pytest.mark.parametrize("ids", sorted(GRAPHS))
@pytest.mark.parametrize("compressed", (False, True), ids=("plain", "compressed"))
def test_collect_over_a_process_pool(compressed, ids):
    """Both buffer types cross real fork IPC; a pool delivers chunks in
    task order, so the rows compare as a sequence."""
    _, sink, _, collected = _collect_and_stream(
        GRAPHS[ids](),
        execution_backend="process",
        compressed=compressed,
        num_workers=2,
    )
    rows = collected.codes if compressed else collected.matches
    reference = _collect_and_stream(GRAPHS[ids](), compressed=compressed)[3]
    want = reference.codes if compressed else reference.matches
    assert rows == sink.results == want


#: The event log's ``emit`` (``events.emit(EV_..., ...)``) is not a sink's.
_EVENT_LOG = re.compile(r"(^|\.)_?(events|event_log|log)$")


def test_block_emitter_is_the_only_caller_of_a_sinks_emit():
    """Every run hands its sink row blocks; the one place a row becomes a
    call to ``sink.emit`` is the adapter for terminal sinks."""
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "emit"
            and not _EVENT_LOG.search(ast.unparse(node.value))
        ):
            found.append((path.relative_to(root).as_posix(), scope[:1]))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    assert found == [("engine/sinks.py", ("block_emitter",))]
