"""The op table: one declaration checks every wire op of both dialects.

* every malformed request below answers ``invalid_query`` — on a node
  and on the router alike — and the protocol that refused it still
  answers a valid query afterwards;
* a router ``poll`` honours ``cursor``: a stale one is a typed error,
  never a silently skipped page;
* the router refuses an unknown dataset before any shard sees it;
* README's op table lists exactly the ops, dialects and fields of
  :data:`repro.service.protocol.OPS`.
"""

import json
from pathlib import Path

import pytest

from repro.graph.generators import chung_lu
from repro.graph.order import relabel_by_degree_order
from repro.service import BenuService
from repro.service.protocol import OPS, ServiceProtocol
from repro.shard import LocalShardClient, RouterProtocol, ShardNode, ShardRouter

Q_COUNT = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN COUNT(*)"
Q_STREAM = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN *"

#: (dialect, case id, request).  ``QUERY`` is replaced by the id of a
#: running stream query.
MALFORMED = [
    ("serve", "poll-limit", {"op": "poll", "query": "QUERY", "limit": "x"}),
    ("serve", "poll-wait", {"op": "poll", "query": "QUERY", "wait": "x"}),
    ("serve", "poll-cursor", {"op": "poll", "query": "QUERY", "cursor": "x"}),
    ("serve", "submit-limit",
     {"op": "submit", "pattern": "triangle", "graph": "g", "limit": "5"}),
    ("serve", "submit-deadline",
     {"op": "submit", "pattern": "triangle", "graph": "g",
      "deadline": "soon"}),
    ("serve", "submit-deadline_at",
     {"op": "submit", "pattern": "triangle", "graph": "g",
      "deadline_at": "x"}),
    ("serve", "submit-pattern",
     {"op": "submit", "pattern": "nope", "graph": "g"}),
    ("serve", "events-limit", {"op": "events", "limit": "x"}),
    ("serve", "register-dataset",
     {"op": "register", "name": "h", "dataset": "nope"}),
    ("serve", "query-limit",
     {"op": "query", "text": Q_COUNT, "graph": "g", "limit": "x"}),
    ("route", "poll-limit", {"op": "poll", "query": "QUERY", "limit": "abc"}),
    ("route", "submit-deadline",
     {"op": "submit", "pattern": "triangle", "graph": "g", "deadline": "x"}),
    ("route", "submit-limit",
     {"op": "submit", "pattern": "triangle", "graph": "g", "limit": "x"}),
    ("route", "events-limit", {"op": "events", "limit": "x"}),
    ("route", "query-deadline",
     {"op": "query", "text": Q_COUNT, "graph": "g", "deadline": "x"}),
]


@pytest.fixture(scope="module")
def graph():
    return relabel_by_degree_order(chung_lu(120, 6.0, seed=11))[0]


@pytest.fixture()
def node(graph):
    service = BenuService()
    service.register_graph("g", graph, relabel=False)
    yield ServiceProtocol(service)
    service.close()


@pytest.fixture()
def router(graph):
    nodes = [ShardNode(i, 2) for i in range(2)]
    for shard in nodes:
        shard.register_graph("g", graph, relabel=False)
    yield RouterProtocol(ShardRouter([LocalShardClient(n) for n in nodes]))
    for shard in nodes:
        shard.close()


def _ask(protocol, request: dict) -> dict:
    return json.loads(protocol.handle_line_json(json.dumps(request)))


def _count(protocol) -> int:
    submitted = _ask(protocol, {"op": "query", "text": Q_COUNT, "graph": "g"})
    assert submitted["ok"], submitted
    polled = _ask(
        protocol, {"op": "poll", "query": submitted["query"], "wait": 30}
    )
    assert polled["done"], polled
    return polled["count"]


@pytest.mark.parametrize(
    "dialect, request_",
    [(dialect, request) for dialect, _, request in MALFORMED],
    ids=[f"{dialect}-{case}" for dialect, case, _ in MALFORMED],
)
def test_malformed_request_is_typed(dialect, request_, request):
    protocol = request.getfixturevalue("node" if dialect == "serve" else "router")
    expected = _count(protocol)
    if request_.get("query") == "QUERY":
        stream = _ask(protocol, {"op": "query", "text": Q_STREAM, "graph": "g"})
        request_ = {**request_, "query": stream["query"]}
    response = _ask(protocol, request_)
    assert not response["ok"], response
    assert response["error"] == "invalid_query", response
    assert _count(protocol) == expected


def test_router_poll_honours_cursor(router):
    submitted = _ask(router, {"op": "query", "text": Q_STREAM, "graph": "g"})
    poll = {"op": "poll", "query": submitted["query"], "limit": 5, "cursor": 0}
    first = _ask(router, poll)
    assert first["ok"] and first["cursor"] == len(first["matches"]) == 5
    stale = _ask(router, poll)
    assert not stale["ok"] and stale["error"] == "invalid_query", stale
    second = _ask(router, {**poll, "cursor": 5})
    assert second["ok"] and second["cursor"] == 5 + len(second["matches"])
    assert second["matches"] and second["matches"][0] != first["matches"][0]


def test_router_checks_register_before_broadcasting(router):
    response = _ask(router, {"op": "register", "name": "h", "dataset": "nope"})
    assert response["error"] == "invalid_query"
    assert "shard" not in response["message"], response
    graphs = [
        client.request({"op": "graphs"})["graphs"]
        for client in router.router.clients
    ]
    assert graphs == [["g"], ["g"]]


def test_each_dialect_answers_only_its_ops(node, router):
    for protocol in (node, router):
        for name, op in OPS.items():
            if protocol.dialect in op.dialects:
                assert callable(getattr(protocol, f"_op_{name}")), name
                continue
            response = _ask(protocol, {"op": name})
            assert response["error"] == "invalid_query"
            assert "unknown op" in response["message"]


# ------------------------------------------------------------ README drift
def _readme_row(op) -> str:
    fields = ", ".join(
        f"`{key}`" if spec.required else f"`{key}?`"
        for key, spec in op.fields.items()
    )
    return f"| `{op.name}` | {' / '.join(op.dialects)} | {fields or '—'} |"


def test_readme_op_table_matches_ops():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| op | served by | fields (`?` = optional) |") + 2
    end = lines.index("", start)
    assert lines[start:end] == [_readme_row(op) for op in OPS.values()]
