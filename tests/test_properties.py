"""Property-based tests (hypothesis) on the core invariants.

These are the load-bearing correctness guarantees:

* any matching order × any optimization level × compressed-or-not
  enumerates exactly the oracle's match set;
* symmetry breaking bijects matches and subgraphs;
* the LRU cache never changes results, only costs;
* serialization round-trips arbitrary adjacency sets.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.benu import count_subgraphs
from repro.engine.config import BenuConfig
from repro.graph.generators import erdos_renyi, random_connected_graph
from repro.graph.graph import Graph
from repro.graph.order import relabel_by_degree_order
from repro.pattern.automorphism import automorphism_count
from repro.pattern.isomorphism import enumerate_matches, find_subgraph_instances
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.codegen import compile_plan
from repro.plan.compression import compress_plan, expand_code
from repro.plan.generation import generate_raw_plan
from repro.plan.optimizer import optimize
from repro.plan.validate import validate_plan
from repro.storage.serialization import decode_adjacency, encode_adjacency

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
patterns = st.builds(
    random_connected_graph,
    n=st.integers(min_value=2, max_value=5),
    extra_edge_prob=st.floats(min_value=0.0, max_value=0.8),
    seed=st.integers(min_value=0, max_value=10_000),
)

data_graphs = st.builds(
    lambda n, p, seed: relabel_by_degree_order(erdos_renyi(n, p, seed=seed))[0],
    n=st.integers(min_value=4, max_value=18),
    p=st.floats(min_value=0.1, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10_000),
)

adjacency_sets = st.sets(st.integers(min_value=0, max_value=2**40), max_size=200)

relaxed = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle_matches(pattern: Graph, data: Graph):
    pg = PatternGraph(pattern)
    return sorted(
        enumerate_matches(pattern, data, partial_order=pg.symmetry_conditions)
    )


def benu_matches(pattern: Graph, data: Graph, order, level):
    pg = PatternGraph(pattern)
    plan = optimize(generate_raw_plan(pg, order), level)
    validate_plan(plan)
    compiled = compile_plan(plan, mode="collect")
    out = []
    vset = frozenset(data.vertices)
    for v in data.vertices:
        compiled.run(v, data.neighbors, vset=vset, emit=out.append)
    return sorted(out)


# ----------------------------------------------------------------------
# Plan correctness
# ----------------------------------------------------------------------
@relaxed
@given(pattern=patterns, data=data_graphs, data2=st.randoms())
def test_any_order_any_level_matches_oracle(pattern, data, data2):
    order = list(pattern.vertices)
    data2.shuffle(order)
    level = data2.randrange(4)
    assert benu_matches(pattern, data, order, level) == oracle_matches(pattern, data)


@relaxed
@given(pattern=patterns, data=data_graphs, rnd=st.randoms())
def test_compression_round_trip(pattern, data, rnd):
    order = list(pattern.vertices)
    rnd.shuffle(order)
    pg = PatternGraph(pattern)
    plan = optimize(generate_raw_plan(pg, order))
    compressed = compress_plan(plan)
    validate_plan(compressed)
    compiled = compile_plan(compressed, mode="collect")
    codes = []
    vset = frozenset(data.vertices)
    for v in data.vertices:
        compiled.run(v, data.neighbors, vset=vset, emit=codes.append)
    expanded = sorted(
        m for code in codes for m in expand_code(compressed, code)
    )
    assert expanded == oracle_matches(pattern, data)


@relaxed
@given(pattern=patterns, data=data_graphs)
def test_symmetry_breaking_bijection(pattern, data):
    pg = PatternGraph(pattern)
    constrained = sum(
        1
        for _ in enumerate_matches(
            pattern, data, partial_order=pg.symmetry_conditions
        )
    )
    unconstrained = sum(1 for _ in enumerate_matches(pattern, data))
    subgraphs = sum(1 for _ in find_subgraph_instances(pattern, data))
    assert constrained == subgraphs
    assert unconstrained == subgraphs * automorphism_count(pattern)


@relaxed
@given(pattern=patterns, data=data_graphs, capacity=st.integers(0, 4096))
def test_cache_capacity_never_changes_results(pattern, data, capacity):
    baseline = count_subgraphs(pattern, data, BenuConfig(relabel=False))
    capped = count_subgraphs(
        pattern,
        data,
        BenuConfig(relabel=False, cache_capacity_bytes=capacity),
    )
    assert baseline == capped


@relaxed
@given(
    pattern=patterns,
    data=data_graphs,
    tau=st.integers(min_value=1, max_value=30),
)
def test_task_splitting_never_changes_results(pattern, data, tau):
    baseline = count_subgraphs(
        pattern, data, BenuConfig(relabel=False, split_threshold=None)
    )
    split = count_subgraphs(
        pattern, data, BenuConfig(relabel=False, split_threshold=tau)
    )
    assert baseline == split


# ----------------------------------------------------------------------
# Substrate invariants
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(neighbors=adjacency_sets)
def test_adjacency_serialization_round_trip(neighbors):
    assert decode_adjacency(encode_adjacency(neighbors)) == frozenset(neighbors)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
            lambda e: e[0] != e[1]
        ),
        max_size=80,
    )
)
def test_graph_construction_invariants(edges):
    g = Graph(edges)
    assert g.num_edges == len({frozenset(e) for e in edges})
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.num_edges
    for u, v in g.edges():
        assert u < v
        assert g.has_edge(v, u)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 7),
    seed=st.integers(0, 1000),
)
def test_relabeling_preserves_match_counts(n, seed):
    pattern = random_connected_graph(min(n, 4), seed=seed)
    data = erdos_renyi(12, 0.4, seed=seed, offset=100)
    relabeled, mapping = relabel_by_degree_order(data)
    raw = sum(1 for _ in enumerate_matches(pattern, data))
    new = sum(1 for _ in enumerate_matches(pattern, relabeled))
    assert raw == new


# ----------------------------------------------------------------------
# Extension invariants
# ----------------------------------------------------------------------
@relaxed
@given(pattern=patterns, data=data_graphs)
def test_degree_filter_never_changes_results(pattern, data):
    baseline = count_subgraphs(pattern, data, BenuConfig(relabel=False))
    filtered = count_subgraphs(
        pattern, data, BenuConfig(relabel=False, degree_filter=True)
    )
    assert baseline == filtered


@relaxed
@given(pattern=patterns, data=data_graphs)
def test_clique_cache_never_changes_results(pattern, data):
    baseline = count_subgraphs(pattern, data, BenuConfig(relabel=False))
    cached = count_subgraphs(
        pattern, data, BenuConfig(relabel=False, generalized_clique_cache=True)
    )
    assert baseline == cached


@relaxed
@given(
    pattern=patterns,
    data=data_graphs,
    num_labels=st.integers(min_value=1, max_value=3),
    seed=st.integers(0, 1000),
)
def test_labels_restrict_and_uniform_label_is_identity(
    pattern, data, num_labels, seed
):
    from repro.labeled import LabeledGraph, LabeledPatternGraph

    rng = random.Random(seed)
    alphabet = [f"L{i}" for i in range(num_labels)]
    data_labels = {v: rng.choice(alphabet) for v in data.vertices}
    labeled_data = LabeledGraph(data.edges(), data_labels, data.vertices)
    pattern_labels = {u: rng.choice(alphabet) for u in pattern.vertices}
    labeled_pattern = LabeledPatternGraph(pattern, pattern_labels)

    unlabeled = count_subgraphs(pattern, data, BenuConfig(relabel=False))
    labeled = count_subgraphs(
        labeled_pattern, labeled_data, BenuConfig(relabel=False)
    )
    assert labeled <= unlabeled
    if num_labels == 1:
        assert labeled == unlabeled


@settings(max_examples=60, deadline=None)
@given(
    items=st.lists(st.integers(0, 10_000), unique=True, max_size=200),
    num_slices=st.integers(1, 12),
)
def test_split_slices_partition_property(items, num_slices):
    from repro.engine.task_split import split_slices

    slices = split_slices(items, num_slices)
    assert len(slices) == num_slices
    flat = [v for s in slices for v in s]
    assert sorted(flat) == sorted(items)
    sizes = [len(s) for s in slices]
    assert max(sizes) - min(sizes) <= 1
