"""BENU-QL through the service tier: submit_query, the wire protocol's
``query`` op, telemetry, plan-cache label signatures, and the router.

What must hold:

* ``BenuService.submit_query`` answers every result shape (count /
  stream / GROUP BY / projection / unsatisfiable) identically to a
  brute-force oracle (``labeled/oracle.py``'s matcher under the same
  degree order, projection and GROUP BY done here with a ``Counter``)
  that shares no code with the engine, for plain and labeled graphs;
* the ``query`` op speaks JSON end to end and maps front-end failures to
  **structured** error responses (``query_syntax`` / ``query_semantic``
  with line, column and a caret snippet);
* each lowered query emits a ``plan_lowered`` event and bumps the
  ``benu_lang_rule_fired_total`` counter per fired rule;
* the plan cache shares the winning matching *order* between a labeled
  pattern and its structural twin but never the built plan;
* a 2-shard router merges BENU-QL counts, streams and GROUP BY buckets
  exactly.
"""

import json
from collections import Counter

import pytest

from repro.engine.config import BenuConfig
from repro.graph.graph import Graph
from repro.graph.order import degree_order_relabeling, invert_mapping
from repro.labeled.graphs import LabeledGraph
from repro.labeled.oracle import enumerate_labeled_matches
from repro.labeled.pattern import LabeledPatternGraph
from repro.lang import QuerySemanticError, lower_query
from repro.lang.run import QueryResult  # noqa: F401 — re-exported API
from repro.pattern.isomorphism import enumerate_matches
from repro.pattern.pattern_graph import PatternGraph
from repro.service import BenuService
from repro.service.plan_cache import PlanCache
from repro.service.protocol import ServiceProtocol
from repro.shard import LocalShardClient, RouterProtocol, ShardNode, ShardRouter
from repro.telemetry.events import EV_PLAN_LOWERED
from repro.telemetry.snapshot import M_LANG_RULES

EDGES = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5), (1, 4), (5, 6)]
LABELS = {1: "A", 2: "B", 3: "A", 4: "B", 5: "A", 6: "C"}

Q_COUNT = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN COUNT(*)"
Q_STREAM = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN *"
Q_PROJECT = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN c, a"
Q_GROUPS = (
    "MATCH (a)-(b), (b)-(c), (a)-(c) WHERE a.label = 'A' "
    "RETURN COUNT(*) GROUP BY a"
)
Q_UNSAT = "MATCH (a)-(b) WHERE a.label = 'A' AND a.label = 'B' RETURN *"


@pytest.fixture()
def service():
    s = BenuService()
    s.register_graph("g", Graph(EDGES), labels=LABELS)
    yield s
    s.close()


def brute_force_answer(text, data):
    """A query's answer by exhaustive search: a count, rows or groups.

    Matches are found on ``data`` renumbered under the degree order, so
    the oracle's integer symmetry breaking picks the same representative
    of each subgraph as the engine does, then translated back.
    """
    lowered = lower_query(text)
    mapping = degree_order_relabeling(data.graph)
    ranked = data.relabel_vertices(mapping)
    pattern = lowered.pattern
    if lowered.unsatisfiable:
        found = []
    elif lowered.is_labeled:
        found = enumerate_labeled_matches(pattern, ranked)
    else:
        found = enumerate_matches(
            pattern.graph, ranked.graph,
            partial_order=pattern.symmetry_conditions,
        )
    inverse = invert_mapping(mapping)
    rows = [tuple(inverse[v] for v in match) for match in found]
    if lowered.kind == "count":
        return len(rows)
    if lowered.kind == "groups":
        return dict(Counter(row[lowered.group_by] for row in rows))
    if lowered.projection is not None:
        rows = [tuple(row[i] for i in lowered.projection) for row in rows]
    return rows


@pytest.fixture()
def oracle():
    data = LabeledGraph(EDGES, LABELS)
    return lambda text: brute_force_answer(text, data)


# ---------------------------------------------------------------- service
def test_submit_query_count(service, oracle):
    handle = service.submit_query(Q_COUNT, "g")
    assert handle.lang_kind == "count"
    assert handle.lang_columns == ("count",)
    handle.wait(timeout=60)
    assert handle.result().count == oracle(Q_COUNT)


def test_submit_query_stream_and_projection(service, oracle):
    handle = service.submit_query(Q_STREAM, "g")
    assert handle.lang_kind == "stream"
    got = sorted(tuple(m) for m in handle.matches())
    assert got == sorted(oracle(Q_STREAM))

    handle = service.submit_query(Q_PROJECT, "g")
    assert handle.lang_columns == ("c", "a")
    got = sorted(tuple(m) for m in handle.matches())
    assert got == sorted(oracle(Q_PROJECT))
    assert all(len(m) == 2 for m in got)


def test_submit_query_groups(service, oracle):
    handle = service.submit_query(Q_GROUPS, "g")
    assert handle.lang_kind == "groups"
    handle.wait(timeout=60)
    handle.result()
    assert handle.lang_groups == oracle(Q_GROUPS)


def test_submit_query_unsatisfiable_empty_stream(service, oracle):
    handle = service.submit_query(Q_UNSAT, "g")
    got = list(handle.matches())
    assert got == [] == oracle(Q_UNSAT)


def test_submit_query_labeled_needs_labeled_registration(service, oracle):
    service.register_graph("plain", Graph(EDGES))
    with pytest.raises(QuerySemanticError, match="without labels"):
        service.submit_query(Q_GROUPS, "plain")
    # Structure-only queries still work against the plain registration.
    handle = service.submit_query(Q_COUNT, "plain")
    handle.wait(timeout=60)
    assert handle.result().count == oracle(Q_COUNT)


def test_submit_query_limit_truncates(service):
    handle = service.submit_query(Q_STREAM, "g", limit=2)
    assert len(list(handle.matches())) == 2


def test_register_graph_reports_labeled(service):
    info = service.register_graph("g2", Graph(EDGES), labels=LABELS)
    assert info["labeled"] is True
    info = service.register_graph("g3", Graph(EDGES))
    assert info["labeled"] is False


# -------------------------------------------------------------- telemetry
def test_plan_lowered_event_and_rule_counters(service):
    handle = service.submit_query(Q_COUNT, "g")
    handle.wait(timeout=60)
    rows = [
        e for e in service.events.as_dicts() if e["type"] == EV_PLAN_LOWERED
    ]
    assert rows, "submit_query must emit plan_lowered"
    row = rows[-1]
    assert row["query_id"] == handle.query_id
    fields = row["fields"]
    assert fields["kind"] == "count"
    assert "detect-count-only" in fields["rules"]
    assert fields["logical_size"] >= 2

    counter = service.registry.get(M_LANG_RULES)
    assert counter is not None
    assert counter.value(rule="detect-count-only") >= 1
    before = counter.value(rule="push-label-filter")
    service.submit_query(Q_GROUPS, "g").wait(timeout=60)
    assert counter.value(rule="push-label-filter") == before + 1


# -------------------------------------------------------------- plan cache
def test_plan_cache_shares_order_not_plans_across_labelings(service):
    from repro.engine.benu import prepare_data

    cache = PlanCache()
    graph = Graph(EDGES)
    config = BenuConfig(relabel=False)
    prepared = prepare_data(graph, config)
    triangle = Graph([(1, 2), (2, 3), (1, 3)])

    plain = PatternGraph(triangle, "t")
    labeled = LabeledPatternGraph(
        triangle, {1: "A", 2: None, 3: None}, name="t-labeled"
    )
    plan_plain, outcome = cache.get_or_build(plain, prepared, "g", config)
    assert outcome == "miss"
    plan_labeled, outcome = cache.get_or_build(labeled, prepared, "g", config)
    # Structural twin: the winning order is reused (no plan search), but
    # the built plan is NOT shared — labeled plans differ.
    assert outcome == "isomorphic"
    assert plan_labeled is not plan_plain
    _, outcome = cache.get_or_build(labeled, prepared, "g", config)
    assert outcome == "exact"
    _, outcome = cache.get_or_build(plain, prepared, "g", config)
    assert outcome == "exact"


def test_labeled_query_compiles_once(service, oracle, monkeypatch):
    """A cached plan is labelized once per registered graph, so a second
    submit of one labeled query text generates no source at all."""
    from repro.plan import codegen

    text = Q_GROUPS.replace(" GROUP BY a", "")
    first = service.submit_query(text, "g")
    first.wait(timeout=60)
    generated = []
    real = codegen.generate_source
    monkeypatch.setattr(
        codegen,
        "generate_source",
        lambda *args, **kwargs: generated.append(args) or real(*args, **kwargs),
    )
    second = service.submit_query(text, "g")
    second.wait(timeout=60)
    assert first.result().count == second.result().count == oracle(text)
    assert generated == []


# ---------------------------------------------------------------- protocol
@pytest.fixture()
def protocol(service):
    return ServiceProtocol(service)


def _ask(protocol, payload):
    return json.loads(protocol.handle_line_json(json.dumps(payload)))


def test_protocol_query_count(protocol, oracle):
    response = _ask(
        protocol, {"op": "query", "text": Q_COUNT, "graph": "g"}
    )
    assert response["ok"] and response["kind"] == "count"
    poll = _ask(
        protocol, {"op": "poll", "query": response["query"], "wait": 60}
    )
    assert poll["done"] and poll["count"] == oracle(Q_COUNT)


def test_protocol_query_groups(protocol, oracle):
    response = _ask(protocol, {"op": "query", "text": Q_GROUPS, "graph": "g"})
    assert response["columns"] == ["a", "count"]
    poll = _ask(
        protocol, {"op": "poll", "query": response["query"], "wait": 60}
    )
    expected = {str(k): v for k, v in oracle(Q_GROUPS).items()}
    assert poll["groups"] == expected


def test_protocol_query_syntax_error_is_structured(protocol):
    response = _ask(
        protocol,
        {"op": "query", "text": "MATCH (a)-(b), RETURN *", "graph": "g"},
    )
    assert not response["ok"]
    assert response["error"] == "query_syntax"
    assert response["line"] == 1 and response["column"] == 16
    text_line, caret_line = response["snippet"].splitlines()
    assert caret_line.index("^") == response["column"] - 1


def test_protocol_query_semantic_error_is_structured(protocol):
    response = _ask(
        protocol,
        {"op": "query", "text": "MATCH (a)-(a) RETURN *", "graph": "g"},
    )
    assert not response["ok"] and response["error"] == "query_semantic"
    assert "self-loop" in response["message"]


def test_protocol_capabilities_advertise_query(protocol):
    response = _ask(protocol, {"op": "hello", "version": 2})
    assert "query" in response["capabilities"]


def test_protocol_register_with_labels(protocol):
    response = _ask(
        protocol,
        {
            "op": "register", "name": "wired",
            "edges": [list(e) for e in EDGES],
            "labels": {str(v): l for v, l in LABELS.items()},
        },
    )
    assert response["ok"] and response["labeled"] is True
    submitted = _ask(
        protocol, {"op": "query", "text": Q_GROUPS, "graph": "wired"}
    )
    assert submitted["ok"], submitted


def test_protocol_register_rejects_bad_labels(protocol):
    response = _ask(
        protocol,
        {
            "op": "register", "name": "bad",
            "edges": [[1, 2]], "labels": {"not-an-int": "A"},
        },
    )
    assert not response["ok"] and response["error"] == "invalid_query"


#: Wire configs of the wrong JSON type: each must be refused up front,
#: never coerced (``"yes"`` is no bool) nor left to fail mid-run.
BAD_CONFIGS = [
    {"compressed": "yes"},
    {"degree_filter": "no"},
    {"workers": 2.5},
    {"workers": True},
    {"tau": 2.5},
    {"threads": 1.5},
    {"cache_bytes": "10"},
    {"backend": 1},
]


def _config_id(config):
    return ",".join(f"{k}={v!r}" for k, v in config.items())


def _submit_ops(config):
    yield {"op": "submit", "pattern": "triangle", "graph": "g",
           "stream": False, "config": config}
    yield {"op": "query", "text": Q_COUNT, "graph": "g", "config": config}


def _assert_bad_configs_refused(protocol, config):
    for request in _submit_ops(config):
        response = _ask(protocol, request)
        assert not response["ok"], request
        assert response["error"] == "invalid_query"
        assert f'"{next(iter(config))}"' in response["message"]


def _assert_good_config_counts(protocol, oracle):
    config = {"tau": None, "cache_bytes": None, "compressed": False,
              "degree_filter": True, "workers": 2, "backend": "csr"}
    for request in _submit_ops(config):
        submitted = _ask(protocol, request)
        assert submitted["ok"], submitted
        poll = _ask(
            protocol, {"op": "poll", "query": submitted["query"], "wait": 10}
        )
        assert poll["done"] and poll["count"] == oracle(Q_COUNT)


@pytest.mark.parametrize("config", BAD_CONFIGS, ids=_config_id)
def test_protocol_rejects_mistyped_config(protocol, config):
    _assert_bad_configs_refused(protocol, config)


def test_protocol_accepts_well_typed_config(protocol, oracle):
    _assert_good_config_counts(protocol, oracle)


# ------------------------------------------------------------------ router
@pytest.fixture()
def routed():
    nodes = [ShardNode(i, 2, epoch=1) for i in range(2)]
    router = ShardRouter([LocalShardClient(node) for node in nodes])
    router.register(
        "g",
        edges=[list(e) for e in EDGES],
        labels={str(v): l for v, l in LABELS.items()},
    )
    yield router
    for node in nodes:
        node.close()


def test_router_submit_query_count(routed, oracle):
    result = routed.submit_query(Q_COUNT, "g").result()
    assert result["count"] == oracle(Q_COUNT)
    assert len(result["per_shard"]) == 2
    assert sum(e["count"] for e in result["per_shard"]) == result["count"]


def test_router_submit_query_stream(routed, oracle):
    query = routed.submit_query(Q_STREAM, "g")
    assert query.stream and query.kind == "stream"
    got = sorted(tuple(m) for m in query.matches())
    assert got == sorted(oracle(Q_STREAM))


def test_router_submit_query_groups_merge(routed, oracle):
    result = routed.submit_query(Q_GROUPS, "g").result()
    expected = {str(k): v for k, v in oracle(Q_GROUPS).items()}
    assert result["groups"] == expected


def test_router_query_errors_before_network(routed):
    from repro.lang import QuerySyntaxError

    with pytest.raises(QuerySyntaxError):
        routed.submit_query("MATCH (a)-(b), RETURN *", "g")


def test_router_protocol_query_op(routed, oracle):
    protocol = RouterProtocol(routed)
    submitted = _ask(
        protocol, {"op": "query", "text": Q_GROUPS, "graph": "g"}
    )
    assert submitted["ok"] and submitted["kind"] == "groups"
    assert len(submitted["shards"]) == 2
    poll = _ask(protocol, {"op": "poll", "query": submitted["query"]})
    expected = {str(k): v for k, v in oracle(Q_GROUPS).items()}
    assert poll["done"] and poll["groups"] == expected


def test_router_protocol_query_error_is_structured(routed):
    protocol = RouterProtocol(routed)
    response = _ask(
        protocol,
        {"op": "query", "text": "MATCH (a)-(b), RETURN *", "graph": "g"},
    )
    assert not response["ok"] and response["error"] == "query_syntax"
    assert response["line"] == 1 and "^" in response["snippet"]


@pytest.mark.parametrize("config", BAD_CONFIGS, ids=_config_id)
def test_router_protocol_rejects_mistyped_config(routed, config):
    _assert_bad_configs_refused(RouterProtocol(routed), config)


def test_router_protocol_accepts_well_typed_config(routed, oracle):
    _assert_good_config_counts(RouterProtocol(routed), oracle)
