"""BENU-QL ⇔ programmatic-API equivalence, every bundled pattern.

The acceptance contract of the declarative front-end: for every bundled
pattern (plain and labeled), the query expressed in BENU-QL produces a
**byte-identical** match set / count to the hand-built
``PatternGraph`` path, because both lower onto the exact same plan
pipeline.  ``pattern_to_query`` generates the canonical text for each
pattern, so the sweep is exhaustive by construction, not by a
hand-curated list.

The local runner and the service bind a query through one function;
the last matrix holds them to the same answer for every result shape,
plain and labeled, on every execution backend.
"""

from dataclasses import replace

import pytest

from repro.engine.benu import count_subgraphs, enumerate_subgraphs
from repro.engine.config import BenuConfig
from repro.graph.generators import chung_lu
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import PATTERNS
from repro.labeled.graphs import LabeledGraph
from repro.labeled.pattern import LabeledPatternGraph
from repro.lang import lower_query, pattern_to_query, run_query
from repro.pattern.pattern_graph import PatternGraph
from repro.service import BenuService


def _canonical(matches):
    return b"\n".join(
        b",".join(str(v).encode() for v in match) for match in sorted(matches)
    )


@pytest.fixture(scope="module")
def workload():
    g, _ = relabel_by_degree_order(chung_lu(60, 4.5, exponent=2.3, seed=11))
    return g


@pytest.fixture(scope="module")
def labeled_workload(workload):
    # Deterministic labels with enough of each kind that labeled patterns
    # still match: A/B by parity plus a sprinkle of C.
    labels = {
        v: ("C" if v % 7 == 0 else ("A" if v % 2 == 0 else "B"))
        for v in workload.vertices
    }
    return LabeledGraph(workload.edges(), labels, vertices=workload.vertices)


def _config(backend="simulated"):
    return BenuConfig(relabel=False, execution_backend=backend, num_workers=2)


# ------------------------------------------------------------------- plain
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_query_equals_pattern_path(name, workload):
    pattern = PatternGraph(PATTERNS[name], name)
    text = pattern_to_query(pattern)
    lowered = lower_query(text)
    # The reconstructed pattern is edge-identical to the bundled one.
    assert sorted(lowered.pattern.graph.edges()) == sorted(
        PATTERNS[name].edges()
    )
    config = _config()
    expected = enumerate_subgraphs(pattern, workload, config)
    result = run_query(text, workload, config)
    assert result.kind == "stream"
    assert _canonical(result.matches) == _canonical(expected)

    count_text = pattern_to_query(pattern, select="count")
    count_result = run_query(count_text, workload, config)
    assert count_result.kind == "count"
    assert count_result.count == count_subgraphs(pattern, workload, config)
    assert count_result.count == len(expected)


@pytest.mark.parametrize("backend", ["simulated", "inline"])
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_query_backend_sweep(name, backend, workload):
    pattern = PatternGraph(PATTERNS[name], name)
    config = _config(backend)
    result = run_query(pattern_to_query(pattern), workload, config)
    expected = enumerate_subgraphs(pattern, workload, config)
    assert _canonical(result.matches) == _canonical(expected)


@pytest.mark.parametrize("name", ["triangle", "chordal_square", "q1"])
def test_query_process_backend(name, workload):
    pattern = PatternGraph(PATTERNS[name], name)
    config = _config("process")
    result = run_query(pattern_to_query(pattern, select="count"),
                       workload, config)
    assert result.count == count_subgraphs(pattern, workload, _config())


# ------------------------------------------------------------------ labeled
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_labeled_query_equals_labeled_path(name, labeled_workload):
    graph = PATTERNS[name]
    vertices = sorted(graph.vertices)
    # Constrain the first vertex to 'A' and the last to 'B'; leave the
    # rest unconstrained (None) — exercises partial labeling end-to-end.
    labels = {v: None for v in vertices}
    labels[vertices[0]] = "A"
    labels[vertices[-1]] = "B"
    pattern = LabeledPatternGraph(graph, labels, name=name)
    text = pattern_to_query(pattern)
    assert ".label" in text
    config = _config()
    expected = enumerate_subgraphs(pattern, labeled_workload, config)
    result = run_query(text, labeled_workload, config)
    assert _canonical(result.matches) == _canonical(expected)
    count_result = run_query(
        pattern_to_query(pattern, select="count"), labeled_workload, config
    )
    assert count_result.count == count_subgraphs(
        pattern, labeled_workload, config
    )


def test_labeled_query_against_plain_graph_raises(workload):
    from repro.lang import QuerySemanticError

    with pytest.raises(QuerySemanticError, match="no labels"):
        run_query(
            "MATCH (a)-(b) WHERE a.label = 'A' RETURN COUNT(*)", workload
        )


def test_unlabeled_query_on_labeled_graph_matches_structure(labeled_workload):
    pattern = PatternGraph(PATTERNS["triangle"], "triangle")
    result = run_query(
        pattern_to_query(pattern, select="count"), labeled_workload, _config()
    )
    expected = count_subgraphs(pattern, labeled_workload.graph, _config())
    assert result.count == expected


# ------------------------------------------- run_query == submit_query
SHAPES = {
    "count": "MATCH (a)-(b), (b)-(c), (a)-(c){} RETURN COUNT(*)",
    "stream": "MATCH (a)-(b), (b)-(c), (a)-(c){} RETURN *",
    "projection": "MATCH (a)-(b), (b)-(c), (c)-(d){} RETURN d, a",
    "groups": "MATCH (a)-(b), (b)-(c), (a)-(c){} RETURN COUNT(*) GROUP BY b",
    "unsatisfiable": "MATCH (a)-(b), (b)-(c){} RETURN *",
}
WHERE = {
    "plain": "",
    "labeled": " WHERE a.label = 'A' AND b.label = 'A' AND c.label = 'B'",
}
UNSATISFIABLE = {
    "plain": " WHERE 'x' = 'y'",
    "labeled": " WHERE a.label = 'A' AND a.label = 'B'",
}


@pytest.fixture(scope="module", params=["simulated", "inline", "process"])
def labeled_service(request, labeled_workload):
    with BenuService(config=_config(request.param)) as service:
        service.register_graph(
            "g",
            labeled_workload.graph,
            relabel=False,
            labels=labeled_workload.labels,
        )
        yield service


@pytest.mark.parametrize("labels", ["plain", "labeled"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_run_query_equals_submit_query(
    shape, labels, labeled_service, labeled_workload
):
    where = (UNSATISFIABLE if shape == "unsatisfiable" else WHERE)[labels]
    text = SHAPES[shape].format(where)
    # The plain query runs on the very Graph the service holds: rows come
    # in the order its neighbour frozensets iterate, and ``workload``'s,
    # built from another edge order, iterate differently.
    data = labeled_workload if labels == "labeled" else labeled_workload.graph
    local = run_query(text, data, labeled_service.default_config)
    handle = labeled_service.submit_query(text, "g")
    if local.kind == "stream":
        # Every backend, a process pool included, delivers in task order.
        served = [tuple(m) for m in handle.matches()]
        assert served == local.matches
    else:
        assert handle.wait(timeout=60)
        assert handle.result().count == local.count
        if local.kind == "groups":
            assert handle.lang_groups == local.groups
    assert (local.count == 0) == (shape == "unsatisfiable")
    # The catalog still accounts for every pool it handed out.
    assert labeled_service.stats()["catalog_bytes"] > 0


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_compressed_config_answers_in_full_matches(shape, labeled_workload):
    where = (UNSATISFIABLE if shape == "unsatisfiable" else WHERE)["labeled"]
    text = SHAPES[shape].format(where)
    full = run_query(text, labeled_workload, _config())
    codes = run_query(
        text, labeled_workload, replace(_config(), compressed=True)
    )
    assert sorted(codes.matches or []) == sorted(full.matches or [])
    assert (codes.count, codes.groups) == (full.count, full.groups)
