"""One compute form: the row price is all ``adjacency_backend`` changes.

Every bundled pattern runs in count and collect mode on the simulated
backend and on a two-worker process pool, once under each row price.
The two runs must compile the same source, issue the same DBQs in the
same order (recorded at the store, with the database cache off so every
DBQ reaches it), count the same instructions and tasks, and produce the
same matches.  Only the bytes a row is charged may differ.
"""

import pytest

from repro.engine.backends import ExecutionRequest, ProcessBackend, SimulatedBackend
from repro.engine.benu import build_plan
from repro.engine.config import ADJACENCY_BACKENDS, BenuConfig
from repro.graph.generators import chung_lu
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import PATTERNS
from repro.storage.kvstore import DistributedKVStore


@pytest.fixture(scope="module")
def graph():
    # Ids well past a row's hash-table size, so a frozenset does not
    # iterate in sorted order.
    g, _ = relabel_by_degree_order(chung_lu(80, 5.0, exponent=2.3, seed=32))
    return g


def _simulated(plan, graph, adjacency, collect):
    """(source, DBQ keys, result) of one simulated run."""
    config = BenuConfig(
        relabel=False, collect=collect, adjacency_backend=adjacency,
        cache_capacity_bytes=0, num_workers=2, split_threshold=8,
    )
    store = DistributedKVStore.from_graph(graph, backend=adjacency)
    keys = []
    store.on_query = lambda key, nbytes, cost: keys.append(key)
    request = ExecutionRequest(plan=plan, graph=graph, config=config, store=store)
    backend = SimulatedBackend()
    tracer = request.telemetry.tracer
    source = backend._make_runner(request, request.mode, None, tracer).source
    return source, keys, backend.execute(request)


def _process(plan, graph, adjacency, collect):
    config = BenuConfig(
        relabel=False, collect=collect, adjacency_backend=adjacency,
        execution_backend="process", num_workers=2, split_threshold=8,
    )
    return ProcessBackend().execute(
        ExecutionRequest(plan=plan, graph=graph, config=config)
    )


def _outcome(result):
    return (
        result.count,
        result.counters,
        result.num_tasks,
        sorted(result.matches or ()),
    )


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_both_row_prices_run_the_same_plan(name, graph):
    plan = build_plan(PATTERNS[name], graph)
    for collect in (False, True):
        sim = {a: _simulated(plan, graph, a, collect) for a in ADJACENCY_BACKENDS}
        proc = {a: _outcome(_process(plan, graph, a, collect)) for a in ADJACENCY_BACKENDS}
        (src_f, keys_f, res_f), (src_c, keys_c, res_c) = (
            sim["frozenset"], sim["csr"]
        )
        where = (name, collect)
        assert src_f == src_c, where
        assert keys_f == keys_c and len(keys_f) == res_f.counters.dbq_ops, where
        assert _outcome(res_f) == _outcome(res_c), where
        assert proc["frozenset"] == proc["csr"] == _outcome(res_f), where
        assert res_f.communication.queries == res_c.communication.queries, where
