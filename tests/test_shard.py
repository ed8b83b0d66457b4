"""Tests for the sharded serving tier — acceptance criteria:

* a router over N ∈ {1, 2, 4} shards returns **byte-identical match
  sets** and **exactly-summing instruction/kernel counters** versus a
  single-node :class:`~repro.service.BenuService`, for every bundled
  pattern;
* a query keeps streaming correct results when one of two replicated
  shards is killed mid-run (one failover, delivered prefix skipped);
* a global deadline budget forwarded as an absolute instant expires
  anywhere along the fan-out/merge path — including mid-merge — and
  fast-rejects at shard admission when already exhausted;
* the v2 handshake is optional: version-1 clients keep working.
"""

import json
import time

import pytest

from repro.engine.benu import PreparedData, prepare_plan
from repro.engine.config import BenuConfig
from repro.engine.control import DeadlineExpired, ExecutionControl
from repro.engine.task_split import generate_tasks
from repro.graph.generators import chung_lu
from repro.graph.graph import Graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import PATTERNS, get_pattern
from repro.service import BenuService, InvalidQueryError
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ServiceProtocol,
    ShardIdentity,
)
from repro.service.scheduler import QueryScheduler
from repro.shard import (
    LocalShardClient,
    RouterError,
    RouterProtocol,
    ShardNode,
    ShardRouter,
    ShardUnavailable,
)
from repro.storage.kvstore import DistributedKVStore
from repro.storage.partition import PartitionInfo, partition_of
from repro.telemetry.events import stitch_event_dicts
from repro.telemetry.registry import merge_registry_dicts


@pytest.fixture(scope="module")
def workload():
    """Table-I-style Chung-Lu workload, rebuilt from its edge list so it
    survives wire registration identically (no isolated vertices)."""
    g, _ = relabel_by_degree_order(chung_lu(160, 4.5, exponent=2.4, seed=23))
    return Graph(g.edges())


@pytest.fixture(scope="module")
def edges(workload):
    return [[u, v] for u, v in workload.edges()]


@pytest.fixture(scope="module")
def single_node(workload):
    """The unsharded reference: match set + exact counters per pattern."""
    service = BenuService()
    service.register_graph("g", workload, relabel=False)
    reference = {}
    for name in PATTERNS:
        handle = service.submit(name, "g", stream=True)
        matches = sorted(tuple(m) for m in handle.matches())
        handle = service.submit(name, "g", stream=False)
        handle.wait()
        result = handle.result()
        reference[name] = {
            "matches": matches,
            "count": result.count,
            "instructions": dict(result.telemetry.instruction_counts),
        }
    yield reference
    service.close()


@pytest.fixture(scope="module")
def deployments(edges):
    """Routers over 1, 2 and 4 in-process shards, workload registered."""
    built = {}
    all_nodes = []
    for n in (1, 2, 4):
        nodes = [ShardNode(i, n, epoch=1) for i in range(n)]
        router = ShardRouter([LocalShardClient(node) for node in nodes])
        router.register("g", edges=edges, relabel=False)
        built[n] = router
        all_nodes.extend(nodes)
    yield built
    for node in all_nodes:
        node.close()


def _match_bytes(matches):
    return b"\n".join(repr(tuple(m)).encode("ascii") for m in sorted(matches))


# --------------------------------------------------------------- partitioner
def test_partition_of_matches_kvstore_rule(workload):
    store = DistributedKVStore.from_graph(workload, num_partitions=4)
    for v in workload.vertices:
        assert store.partition_of(v) == partition_of(v, 4)


def _slices(graph, n):
    return [PartitionInfo(i, n).owned_vertices(graph) for i in range(n)]


def test_owned_slices_are_disjoint_and_cover_v(workload):
    for n in (1, 2, 3, 4):
        slices = _slices(workload, n)
        assert sum(map(len, slices)) == workload.num_vertices
        assert set().union(*slices) == set(workload.vertices)


def test_owned_slices_keep_global_vertex_order(workload):
    position = {v: i for i, v in enumerate(workload.vertices)}
    for n in (1, 2, 3, 4):
        for owned in _slices(workload, n):
            ranks = [position[v] for v in owned]
            assert ranks == sorted(ranks)


@pytest.mark.parametrize("tau", [None, 8])
def test_sliced_task_generation_equals_the_full_run(workload, tau):
    plan = prepare_plan(get_pattern("chordal_square"), PreparedData(workload))
    full = list(generate_tasks(plan, workload, split_threshold=tau))
    assert any(t.split_total > 1 for t in full) == (tau is not None)
    for n in (1, 2, 3, 4):
        for owned in _slices(workload, n):
            sliced = list(generate_tasks(
                plan, workload, split_threshold=tau, start_vertices=owned
            ))
            mine = set(owned)
            assert sliced == [t for t in full if t.start in mine]


def test_partition_info_validation_and_wire_format():
    info = PartitionInfo(index=2, of=4)
    assert PartitionInfo.from_dict(info.to_dict()) == info
    with pytest.raises(ValueError):
        PartitionInfo(index=4, of=4)
    with pytest.raises(ValueError):
        PartitionInfo(index=0, of=0)
    with pytest.raises(ValueError):
        PartitionInfo.from_dict({"index": 0})
    with pytest.raises(ValueError, match="halo"):
        PartitionInfo.from_dict({"index": 0, "of": 2, "halo": 1})
    with pytest.raises(ValueError):
        ShardIdentity(4, 4)  # the slot is checked by its PartitionInfo
    assert ShardIdentity(1, 4, epoch=3).partition == PartitionInfo(1, 4)


def test_partitioned_registration_stores_full_rows(workload, edges):
    node = ShardNode(1, 3)
    try:
        reply = node.protocol().handle_line(json.dumps({
            "op": "register", "name": "g", "edges": edges, "relabel": False,
        }))
        assert reply["ok"]
        assert reply["edges"] == workload.num_edges
        assert reply["partition"] == {
            "index": 1, "of": 3,
            "owned_vertices": len(PartitionInfo(1, 3).owned_vertices(workload)),
        }
    finally:
        node.close()


def test_register_with_halo_is_invalid_query(edges):
    """A storage knob no code applies is refused, not echoed."""
    nodes = [ShardNode(i, 2) for i in range(2)]
    router = ShardRouter([LocalShardClient(node) for node in nodes])
    request = json.dumps({
        "op": "register", "name": "g", "edges": edges, "relabel": False,
        "partition": {"index": 0, "of": 2, "halo": 1},
    })
    try:
        for protocol in (nodes[0].protocol(), RouterProtocol(router)):
            reply = protocol.handle_line(request)
            assert not reply["ok"]
            assert reply["error"] == "invalid_query"
            assert "halo" in reply["message"]
        assert all(node.service.catalog.names() == [] for node in nodes)
    finally:
        router.close()
        for node in nodes:
            node.close()


@pytest.mark.parametrize(
    "field", [{"partition": {"index": 0, "of": 2}}, {"unpartitioned": True}]
)
def test_router_register_refuses_shard_node_fields(edges, field):
    """Broadcast, either field would give every shard the same slice (a
    triangle count on K8 read 68 or 112, not 56)."""
    nodes = [ShardNode(i, 2) for i in range(2)]
    router = ShardRouter([LocalShardClient(node) for node in nodes])
    try:
        reply = RouterProtocol(router).handle_line(json.dumps({
            "op": "register", "name": "g", "edges": edges, "relabel": False,
            **field,
        }))
        assert not reply["ok"]
        assert reply["error"] == "invalid_query"
        assert next(iter(field)) in reply["message"]
        assert all(node.service.catalog.names() == [] for node in nodes)
    finally:
        router.close()
        for node in nodes:
            node.close()


def test_router_register_counts_each_start_once():
    from itertools import combinations

    k8 = [list(e) for e in combinations(range(8), 2)]
    nodes = [ShardNode(i, 2) for i in range(2)]
    router = ShardRouter([LocalShardClient(node) for node in nodes])
    protocol = RouterProtocol(router)
    try:
        reply = protocol.handle_line(json.dumps({
            "op": "register", "name": "k8", "edges": k8, "relabel": False,
        }))
        assert reply["ok"]
        query = router.submit("triangle", "k8", stream=False)
        assert query.result()["count"] == 56
    finally:
        router.close()
        for node in nodes:
            node.close()


# -------------------------------------------------------------- the matrix
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_router_matches_single_node_for_every_pattern(
    pattern, single_node, deployments
):
    ref = single_node[pattern]
    for n, router in deployments.items():
        query = router.submit(pattern, "g", stream=True)
        merged = [tuple(m) for m in query.matches()]
        assert _match_bytes(merged) == _match_bytes(ref["matches"]), (
            f"match set diverged at N={n}"
        )
        result = router.submit(pattern, "g", stream=False).result()
        assert result["count"] == ref["count"], f"count diverged at N={n}"
        assert result["instruction_counts"] == ref["instructions"], (
            f"instruction counters did not sum exactly at N={n}"
        )


def test_merged_stream_is_deterministic(deployments):
    router = deployments[4]
    first = [tuple(m) for m in router.submit("q3", "g").matches()]
    second = [tuple(m) for m in router.submit("q3", "g").matches()]
    assert first == second  # byte-identical concatenation, not just a set


def test_router_cursor_pagination(single_node, deployments):
    router = deployments[2]
    ref = single_node["triangle"]["matches"]
    query = router.submit("triangle", "g", stream=True)
    out, cursor = [], 0
    while True:
        page = query.fetch(limit=7, cursor=cursor)
        out.extend(tuple(m) for m in page.matches)
        cursor = page.cursor
        if page.done:
            break
    assert cursor == len(out)
    assert _match_bytes(out) == _match_bytes(ref)
    with pytest.raises(InvalidQueryError):
        query.fetch(limit=7, cursor=cursor + 1)  # streams cannot rewind


def test_router_limit_truncates_merged_stream(deployments):
    router = deployments[2]
    query = router.submit("triangle", "g", stream=True, limit=5)
    matches = list(query.matches())
    assert len(matches) == 5
    assert query.done


# ----------------------------------------------------------------- failover
def _replicated_deployment(edges, config=None):
    nodes = [
        ShardNode(0, 2, epoch=1, config=config),
        ShardNode(0, 2, epoch=1, config=config),  # replica of partition 0
        ShardNode(1, 2, epoch=1, config=config),
    ]
    clients = [
        LocalShardClient(node, endpoint=f"node-{i}")
        for i, node in enumerate(nodes)
    ]
    router = ShardRouter(clients)
    router.register("g", edges=edges, relabel=False)
    return nodes, clients, router


@pytest.mark.parametrize(
    "config",
    [None, BenuConfig(execution_backend="process", num_workers=2)],
    ids=["simulated", "process"],
)
def test_kill_one_shard_mid_stream_keeps_results_exact(
    edges, single_node, config
):
    # The replica re-enumerates the slice in the same order on every
    # backend, so skipping the delivered prefix is exact.
    nodes, clients, router = _replicated_deployment(edges, config)
    try:
        ref = single_node["triangle"]["matches"]
        query = router.submit("triangle", "g", stream=True)
        page = query.fetch(limit=4)
        delivered = [tuple(m) for m in page.matches]
        assert len(delivered) == 4
        # partition 0's active replica dies mid-stream
        active = query._slices[0].client
        active.kill()
        delivered += [tuple(m) for m in query.matches()]
        assert len(delivered) == len(ref)  # no duplicates from the replay
        assert _match_bytes(delivered) == _match_bytes(ref)
        assert query._slices[0].retried
    finally:
        for node in nodes:
            node.close()


def test_failover_is_used_at_most_once(edges):
    nodes, clients, router = _replicated_deployment(edges)
    try:
        query = router.submit("triangle", "g", stream=True)
        query.fetch(limit=2)
        clients[0].kill()
        clients[1].kill()  # both replicas of partition 0 gone
        with pytest.raises(ShardUnavailable):
            list(query.matches())
    finally:
        for node in nodes:
            node.close()


def test_submit_fails_over_to_live_replica(edges, single_node):
    nodes, clients, router = _replicated_deployment(edges)
    try:
        clients[0].kill()  # dead before submit: use the other replica
        result = router.submit("triangle", "g", stream=False).result()
        assert result["count"] == single_node["triangle"]["count"]
    finally:
        for node in nodes:
            node.close()


# ----------------------------------------------------------------- deadline
def test_global_deadline_expires_mid_merge(edges):
    nodes, clients, router = _replicated_deployment(edges)
    try:
        query = router.submit("q5", "g", stream=True, deadline=0.02)
        with pytest.raises(DeadlineExpired):
            # generous page loop: the budget dies during fan-out/merge
            while True:
                page = query.fetch(limit=64)
                if page.done:
                    raise AssertionError("query finished inside the budget")
    finally:
        for node in nodes:
            node.close()


def test_exhausted_budget_fast_rejects_at_admission():
    scheduler = QueryScheduler(max_concurrent=1)
    try:
        with pytest.raises(DeadlineExpired):
            scheduler.submit(lambda: None, deadline_at=time.time() - 1.0)
        # a live budget still admits
        future = scheduler.submit(lambda: 42, deadline_at=time.time() + 60)
        assert future.result(timeout=5) == 42
    finally:
        scheduler.shutdown()


def test_control_composes_relative_and_absolute_deadlines():
    # absolute-only: remaining budget derives from the wall clock
    control = ExecutionControl(deadline_at=time.time() + 60)
    assert control.remaining_seconds > 50
    # the earlier of the two wins
    control = ExecutionControl(
        deadline_seconds=0.001, deadline_at=time.time() + 60
    )
    assert control.deadline_seconds == 0.001
    # an already-exhausted absolute budget arms an expired control
    expired = ExecutionControl(deadline_at=time.time() - 1)
    with pytest.raises(DeadlineExpired):
        expired.check()


def test_queue_time_on_shard_debits_global_budget(edges):
    """A query parked behind another one expires in the queue."""
    # A one-match stream buffer makes the blocker hit backpressure
    # after its first matches and hold the only slot until cancelled,
    # independent of pattern cardinality or machine load.
    node = ShardNode(0, 1, service=BenuService(
        max_concurrent=1, batch_size=1, max_buffered_batches=1,
    ))
    try:
        node.register_graph("g", Graph((u, v) for u, v in edges),
                            relabel=False)
        blocker = node.service.submit("q5", "g", stream=True)
        # wait until the blocker occupies the only slot
        deadline = time.monotonic() + 10
        while node.service.scheduler.running < 1:
            assert time.monotonic() < deadline
            time.sleep(0.002)
        deadline_at = time.time() + 0.05
        parked = node.service.submit(
            "triangle", "g", stream=False, deadline_at=deadline_at,
        )
        while time.time() < deadline_at + 0.05:
            time.sleep(0.01)  # the budget dies while the query is parked
        # the premise must still hold: the blocker owns the slot
        assert node.service.scheduler.running == 1
        blocker.cancel()  # free the slot; the parked query now runs
        assert parked.wait(timeout=10)
        with pytest.raises(DeadlineExpired):
            parked.result()
    finally:
        node.close()


# ---------------------------------------------------------------- handshake
def test_hello_negotiates_version_and_reports_identity(workload):
    service = BenuService()
    try:
        protocol = ServiceProtocol(
            service, identity=ShardIdentity(1, 4, epoch=9)
        )
        response = protocol.handle_line(
            json.dumps({"op": "hello", "version": 2, "role": "router"})
        )
        assert response["ok"]
        assert response["version"] == PROTOCOL_VERSION == 2
        assert response["role"] == "shard"
        assert (response["shard_index"], response["shard_count"]) == (1, 4)
        assert response["epoch"] == 9
        assert "deadline_at" in response["capabilities"]
    finally:
        service.close()


def test_v1_clients_work_without_hello(workload):
    """The entire v1 surface works against a shard-identified node."""
    node = ShardNode(0, 1)
    try:
        protocol = node.protocol()
        ok = protocol.handle_line(json.dumps({
            "op": "register", "name": "g",
            "edges": [[u, v] for u, v in workload.edges()],
            "relabel": False,
        }))
        assert ok["ok"]
        submitted = protocol.handle_line(json.dumps({
            "op": "submit", "pattern": "triangle", "graph": "g",
        }))
        assert submitted["ok"]
        page = protocol.handle_line(json.dumps({
            "op": "poll", "query": submitted["query"], "limit": 10,
        }))
        assert page["ok"] and "matches" in page
        assert protocol.handle_line(json.dumps({"op": "stats"}))["ok"]
    finally:
        node.close()


def test_hello_downgrades_for_old_clients():
    service = BenuService()
    try:
        protocol = ServiceProtocol(service)
        response = protocol.handle_line(json.dumps({"op": "hello"}))
        assert response["version"] == 1  # client never said v2
        assert response["server_version"] == PROTOCOL_VERSION
        assert response["role"] == "node"
        assert "shard_index" not in response
    finally:
        service.close()


BAD_VERSIONS = ["x", None, [2], 0, -1]


@pytest.mark.parametrize("version", BAD_VERSIONS)
def test_node_hello_rejects_a_bad_version(version):
    service = BenuService()
    try:
        response = ServiceProtocol(service).handle_line(
            json.dumps({"op": "hello", "version": version})
        )
        assert not response["ok"]
        assert response["error"] == "invalid_query"
    finally:
        service.close()


@pytest.mark.parametrize("version", BAD_VERSIONS)
def test_router_hello_rejects_a_bad_version(version):
    node = ShardNode(0, 1)
    try:
        protocol = RouterProtocol(ShardRouter([LocalShardClient(node)]))
        response = protocol.handle_line(
            json.dumps({"op": "hello", "version": version})
        )
        assert not response["ok"]
        assert response["error"] == "invalid_query"
        ok = protocol.handle_line(json.dumps({"op": "hello", "version": 1}))
        assert ok["ok"] and ok["version"] == 1 and ok["role"] == "router"
    finally:
        node.close()


# --------------------------------------------------------- deployment shape
def test_router_rejects_epoch_mismatch():
    nodes = [ShardNode(0, 2, epoch=1), ShardNode(1, 2, epoch=2)]
    try:
        with pytest.raises(RouterError, match="epoch"):
            ShardRouter([LocalShardClient(node) for node in nodes])
    finally:
        for node in nodes:
            node.close()


def test_router_rejects_missing_partition():
    nodes = [ShardNode(0, 3), ShardNode(1, 3)]  # partition 2 absent
    try:
        with pytest.raises(RouterError, match="missing"):
            ShardRouter([LocalShardClient(node) for node in nodes])
    finally:
        for node in nodes:
            node.close()


def test_router_rejects_identityless_nodes():
    service = BenuService()

    class _Plain(LocalShardClient):
        def __init__(self):
            self.endpoint = "plain"
            self._protocol = ServiceProtocol(service)
            self._killed = False

    try:
        with pytest.raises(RouterError, match="identity"):
            ShardRouter([_Plain()])
    finally:
        service.close()


# ------------------------------------------------------ router protocol/obs
def test_router_protocol_aggregates_cluster(edges, single_node):
    nodes = [ShardNode(i, 2, epoch=1) for i in range(2)]
    try:
        protocol = RouterProtocol(
            ShardRouter([LocalShardClient(node) for node in nodes])
        )
        assert protocol.handle_line(json.dumps({
            "op": "register", "name": "g", "edges": edges, "relabel": False,
        }))["ok"]
        submitted = protocol.handle_line(json.dumps({
            "op": "submit", "pattern": "triangle", "graph": "g",
            "stream": False,
        }))
        polled = protocol.handle_line(json.dumps({
            "op": "poll", "query": submitted["query"],
        }))
        ref = single_node["triangle"]
        assert polled["count"] == ref["count"]
        assert polled["instruction_counts"] == ref["instructions"]
        assert len(polled["per_shard"]) == 2
        # merged metrics carry shard provenance; events stitch to one
        # monotone timeline
        metrics = protocol.handle_line(json.dumps({"op": "metrics"}))
        shards = {
            sample["labels"]["shard"]
            for family in metrics["metrics"].values()
            for sample in family["samples"]
        }
        assert len(shards) == 2
        events = protocol.handle_line(json.dumps({"op": "events"}))["events"]
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)
        assert {event["shard"] for event in events} == shards
    finally:
        for node in nodes:
            node.close()


# -------------------------------------------------------- telemetry helpers
def test_merge_registry_dicts_sums_counters():
    export = lambda value: {  # noqa: E731 - table-driven fixture
        "m": {
            "kind": "counter", "help": "h", "labels": [],
            "samples": [{"labels": {}, "value": value}],
        }
    }
    merged = merge_registry_dicts({0: export(2), 1: export(3)})
    assert sum(s["value"] for s in merged["m"]["samples"]) == 5
    assert merged["m"]["labels"] == ["shard"]
    tags = {s["labels"]["shard"] for s in merged["m"]["samples"]}
    assert tags == {"0", "1"}


def test_stitch_event_dicts_orders_globally():
    rows = stitch_event_dicts({
        "b": [{"type": "late", "ts": 3.0}, {"type": "early", "ts": 1.0}],
        "a": [{"type": "mid", "ts": 2.0}],
    })
    assert [r["type"] for r in rows] == ["early", "mid", "late"]
    assert [r["shard"] for r in rows] == ["b", "a", "b"]


# ------------------------------------------------------- hardened shard RPC
def test_unknown_remote_error_code_raises_typed_shard_error():
    """An error code the router has no mapping for must surface as the
    typed ShardError fallback carrying the raw remote code — never as a
    bare untyped exception or a silently swallowed response."""
    from repro.shard import ShardError
    from repro.shard.router import _raise_remote

    with pytest.raises(ShardError) as info:
        _raise_remote(
            {"ok": False, "error": "quota_exceeded", "message": "too big"},
            endpoint="node-3",
        )
    exc = info.value
    assert exc.remote_code == "quota_exceeded"
    assert exc.code == "quota_exceeded"  # re-serializes faithfully
    assert exc.endpoint == "node-3"
    assert "too big" in str(exc)
    # Known codes keep their native types.
    with pytest.raises(DeadlineExpired):
        _raise_remote({"ok": False, "error": "deadline_expired"}, "n")


def test_health_op_and_capability():
    from repro.service.protocol import CAPABILITIES

    assert "health" in CAPABILITIES
    node = ShardNode(1, 4, epoch=7)
    try:
        body = node.health()
        assert body["status"] == "serving"
        assert body["role"] == "shard"
        assert body["shard_index"] == 1 and body["shard_count"] == 4
        # And over the wire, through a client:
        client = LocalShardClient(node)
        response = client.health()
        assert response["ok"] and response["status"] == "serving"
    finally:
        node.close()


def test_router_health_op_reports_shape(edges):
    nodes = [ShardNode(i, 2) for i in range(2)]
    try:
        protocol = RouterProtocol(
            ShardRouter([LocalShardClient(node) for node in nodes])
        )
        body = protocol.handle_line(json.dumps({"op": "health"}))
        assert body["ok"] and body["role"] == "router"
        assert body["shard_count"] == 2
    finally:
        for node in nodes:
            node.close()
