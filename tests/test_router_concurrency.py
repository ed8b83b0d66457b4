"""One router, many clients: the regression test for the router race.

K client threads share one :class:`~repro.shard.ShardRouter` over real
TCP shard servers and run the Table-1 patterns every way the router
answers them — counts, ``GROUP BY`` buckets, full streams, ``LIMIT``
streams.  Every answer must be exact.  Before the per-endpoint
connection pool the threads shared each shard's one socket, read each
other's replies, and a triangle count of 280 came back as 1076.

The matrix runs once more under a ``BENU_FAULTS``-grammar ``shard.read``
schedule: dropped replies are retried in place, on connections nobody
else is using, and the answers stay exact.
"""

import sys
import threading

import pytest

from repro.graph.generators import chung_lu
from repro.graph.graph import Graph
from repro.graph.order import relabel_by_degree_order
from repro.service import BenuService
from repro.shard import RetryPolicy, ShardNode, ShardRouter, TCPShardClient

COUNTED = ("triangle", "square", "chordal_square", "clique4")
STREAMED = ("triangle", "clique4")
LIMIT = 37
Q_GROUPS = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN COUNT(*) GROUP BY a"

#: Fires six times per shard client, so a hop with eight attempts can
#: never exhaust its retries whichever thread's reads the fires land on.
READ_FAULTS = "seed=11,shard.read:error@3/5x6"
PATIENT = RetryPolicy(max_attempts=8, base_delay=0.001, max_delay=0.005)


@pytest.fixture(scope="module")
def workload():
    g, _ = relabel_by_degree_order(chung_lu(120, 4.5, exponent=2.4, seed=31))
    return Graph(g.edges())


@pytest.fixture(scope="module")
def reference(workload):
    """Counts and GROUP BY buckets of the unsharded service."""
    with BenuService() as service:
        service.register_graph("g", workload, relabel=False)
        counts = {}
        for name in COUNTED:
            handle = service.submit(name, "g", stream=False)
            handle.wait(timeout=60)
            counts[name] = handle.result().count
        handle = service.submit_query(Q_GROUPS, "g")
        handle.wait(timeout=60)
        handle.result()
        groups = {str(k): v for k, v in handle.lang_groups.items()}
        rows = {
            name: sorted(tuple(m) for m in service.submit(name, "g").matches())
            for name in STREAMED
        }
    return {"counts": counts, "groups": groups, "rows": rows}


class _Deployment:
    """N shard nodes behind real TCP servers, one router over them."""

    def __init__(self, workload, shard_count, faults=None):
        self.nodes = [ShardNode(i, shard_count) for i in range(shard_count)]
        self.servers = []
        clients = []
        for node in self.nodes:
            node.register_graph("g", workload, relabel=False)
            server = node.serve_socket(port=0)
            threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02},
            daemon=True,
        ).start()
            self.servers.append(server)
            host, port = server.server_address[:2]
            clients.append(TCPShardClient(host, port, faults=faults))
        self.router = ShardRouter(clients, retry=PATIENT)

    def close(self):
        self.router.close()
        for server in self.servers:
            server.shutdown()
            server.server_close()
        for node in self.nodes:
            node.close()


def _answers(router):
    """Every operation of the suite, once, as comparable values."""
    out = {}
    for name in COUNTED:
        out["count", name] = router.submit(name, "g", stream=False).result()[
            "count"
        ]
    out["groups"] = router.submit_query(Q_GROUPS, "g").result()["groups"]
    for name in STREAMED:
        out["stream", name] = [
            tuple(m) for m in router.submit(name, "g").matches()
        ]
        out["limit", name] = [
            tuple(m) for m in router.submit(name, "g", limit=LIMIT).matches()
        ]
    return out


def _run_clients(router, clients, rounds):
    """``clients`` threads x ``rounds`` suites; everything they answered."""
    answers, errors = [], []

    def client():
        try:
            for _ in range(rounds):
                answers.append(_answers(router))
        except Exception as exc:  # noqa: BLE001 - reported by the assert
            errors.append(repr(exc))

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the clients as finely as we can
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return answers


def _check(deployment, reference, clients, rounds):
    router = deployment.router
    # One client alone pins the merged sequences; the merge is
    # deterministic, so every concurrent client must read the same ones.
    alone = _answers(router)
    for name in COUNTED:
        assert alone["count", name] == reference["counts"][name]
    assert alone["groups"] == reference["groups"]
    for name in STREAMED:
        assert sorted(alone["stream", name]) == reference["rows"][name]
        assert alone["limit", name] == alone["stream", name][:LIMIT]
    answers = _run_clients(router, clients, rounds)
    assert len(answers) == clients * rounds
    for answer in answers:
        assert answer == alone
    assert all(router.is_alive(client) for client in router.clients)


@pytest.mark.parametrize("shard_count", [1, 2, 4])
@pytest.mark.parametrize("clients", [2, 8])
def test_concurrent_clients_get_exact_answers(
    workload, reference, shard_count, clients
):
    deployment = _Deployment(workload, shard_count)
    try:
        _check(deployment, reference, clients, rounds=16 // clients)
    finally:
        deployment.close()


@pytest.mark.parametrize("shard_count", [1, 2, 4])
def test_concurrent_clients_under_a_read_fault_schedule(
    workload, reference, shard_count
):
    deployment = _Deployment(workload, shard_count, faults=READ_FAULTS)
    try:
        _check(deployment, reference, clients=8, rounds=2)
        fired = [c._injector.fired_count for c in deployment.router.clients]
        assert all(count > 0 for count in fired), fired
    finally:
        deployment.close()
