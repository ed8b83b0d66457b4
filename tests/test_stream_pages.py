"""Stream pages end to end: the wire shape, the router's pass-through
drain, and the blocking ``fetch`` underneath.

* ``encode_response`` / ``decode_response`` round trip — a page's rows
  travel last, as text, and come back as the rows they were;
* an int64 page formatted from its flat buffer is byte for byte the
  ``json.dumps`` text of its rows, and the ledger's row streams keep the
  wire text pinned for them;
* the merged row sequence is the partition-order concatenation of the
  shard streams whatever page limits the client asks for, including a
  limit that shrinks below the page already in flight;
* a global ``LIMIT`` inside a page and at a shard boundary returns
  exactly ``LIMIT`` rows and cancels the rest;
* the router never holds more than one page per shard;
* a lost poll reply is retried in place and re-served from the shard's
  replay window; failover only after the retries are spent;
* ``QueryHandle.fetch(wait=...)`` returns at the first batch, at stream
  end, on cancel and on deadline, and blocks nobody else meanwhile;
* an injected fault inside the router keeps its typed code (one
  dispatcher), and abandoned connections are quiet and rare.
"""

import hashlib
import json
import random
import socket
import sys
import threading
import time
from array import array

import pytest

from repro.engine.control import (
    DeadlineExpired,
    ExecutionControl,
    QueryCancelled,
)
from repro.engine.sinks import RowBlock
from repro.faults import InjectedFault
from repro.graph.generators import chung_lu
from repro.graph.graph import Graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import PATTERNS
from repro.service import BenuService
from repro.service.protocol import (
    MATCHES_KEY,
    EncodedRows,
    ServiceProtocol,
    ServiceTCPServer,
    encode_response,
    serve_connection,
)
from repro.service.streaming import QueryHandle, QueryStatus, StreamBuffer
from repro.shard import (
    LocalShardClient,
    RetryPolicy,
    RouterProtocol,
    ShardNode,
    ShardRouter,
    TCPShardClient,
)
from repro.shard.client import decode_response

SHARD_COUNTS = (1, 2, 4)


# ------------------------------------------------------------ (a) the wire
def _round_trip(response):
    line = encode_response(dict(response))
    assert json.loads(line)["matches"] == [list(r) for r in response["matches"]]
    return line, decode_response(line + "\n")


def test_page_round_trip_int_rows():
    rows = [(1, 2, 3), (4, 5, 6)]
    line, decoded = _round_trip(
        {"query": "q-1", "cursor": 2, "done": False, "ok": True, "matches": rows}
    )
    assert line.endswith(', "rows": 2, "matches": [[1, 2, 3], [4, 5, 6]]}')
    page = decoded.pop("matches")
    assert decoded == {
        "query": "q-1", "cursor": 2, "done": False, "ok": True, "rows": 2
    }
    assert isinstance(page, EncodedRows) and len(page) == 2
    assert page.text == "[[1, 2, 3], [4, 5, 6]]"
    assert list(page) == rows
    assert page[1] == (4, 5, 6) and page[:1] == [(1, 2, 3)]
    # A forwarding hop re-encodes the page without parsing it: same line.
    assert encode_response({**decoded, "matches": page}) == line


def test_page_round_trip_string_ids_containing_the_cut_marker():
    nasty = ', "matches": '
    rows = [(nasty, 'a"b'), ("]}", nasty + nasty)]
    line, decoded = _round_trip(
        {"message": nasty, "cursor": 2, "ok": True, "matches": rows}
    )
    assert decoded["message"] == nasty and decoded["rows"] == 2
    assert list(decoded["matches"]) == rows
    assert encode_response(decoded) == line


def test_empty_page_and_error_replies_round_trip():
    _, decoded = _round_trip({"cursor": 0, "done": True, "ok": True, "matches": []})
    assert len(decoded["matches"]) == 0 and not decoded["matches"]
    assert list(decoded["matches"]) == []
    error = {"ok": False, "error": "cancelled", "message": 'stop, "matches": now'}
    assert decode_response(encode_response(error)) == error
    count = {"ok": True, "done": True, "count": 7}
    assert decode_response(encode_response(count)) == count


def test_reply_without_rows_falls_back_to_a_full_parse():
    # The shape nodes sent before ``rows``: matches anywhere, no count.
    old = '{"cursor": 2, "ok": true, "matches": [[1, 2], [3, 4]]}'
    assert decode_response(old)["matches"] == [[1, 2], [3, 4]]
    moved = '{"matches": [[1, 2]], "cursor": 1, "ok": true}'
    assert decode_response(moved) == json.loads(moved)
    # A nested "matches" key is not a page, whatever else the reply says.
    nested = '{"rows": 1, "events": [{"a": 1, "matches": [1]}], "ok": true}'
    assert decode_response(nested) == json.loads(nested)
    inner = '{"rows": 3, "x": {"a": 1, "matches": [1]}}'
    assert decode_response(inner) == json.loads(inner)


#: Ids an int64 page must carry through the formatter unchanged: small,
#: negative, past float precision (2^53) and at both ends of int64.
_EDGE_IDS = (
    0, 1, -1, 7, -42, 2**53, 2**53 + 1, -(2**53) - 1,
    2**63 - 1, -(2**63 - 1), -(2**63),
)


def _page_line(matches):
    return encode_response(
        {"query": "q-1", "cursor": 9, "done": False, "ok": True,
         "matches": matches}
    )


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 4097])
@pytest.mark.parametrize("width", range(1, 9))
def test_packed_page_text_is_json_dumps_of_its_rows(width, rows):
    rng = random.Random(f"page:{width}:{rows}")
    flat = array("q", (
        rng.choice(_EDGE_IDS) if rng.random() < 0.3
        else rng.randrange(-(2**63), 2**63)
        for _ in range(width * rows)
    ))
    block = RowBlock(flat, width)
    listed = list(block)
    line = _page_line(block)
    # Byte for byte what the list path (json.dumps of the rows) writes.
    assert line == _page_line(listed)
    assert line.endswith(MATCHES_KEY + json.dumps(listed) + "}")
    assert json.loads(line)["rows"] == rows
    decoded = decode_response(line)
    assert list(decoded["matches"]) == listed
    # A forwarding hop splices the text back untouched.
    assert _page_line(decoded["matches"]) == line


def test_list_flat_pages_keep_the_json_dumps_path():
    strings = RowBlock(["a", 'b"', "é", ', "matches": '], 2)
    assert _page_line(strings) == _page_line(list(strings))
    assert json.loads(_page_line(strings))["matches"] == [
        ["a", 'b"'], ["é", ', "matches": ']
    ]
    vcbc = RowBlock([1, frozenset({2, 3}), 4, frozenset()], 2)
    with pytest.raises(TypeError, match="frozenset"):
        _page_line(list(vcbc))
    with pytest.raises(TypeError, match="frozenset"):
        _page_line(vcbc)


#: The ledger's row streams (``benchmarks/ledger/inputs.py``
#: ``STREAM_TEMPLATES``) on its ``rows`` graph: full rows naming every
#: column, a projection and ``RETURN *``.
LEDGER_STREAMS = (
    "MATCH (a)-(b), (b)-(c), (c)-(d), (a)-(d), (a)-(c) RETURN a, b, c, d",
    "MATCH (a)-(b), (a)-(c), (a)-(d), (b)-(c), (b)-(d), (c)-(d) RETURN a, b",
    "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN *",
)

#: sha256 of every non-empty page's row count and ``matches`` text, in
#: stream order, per registration: the wire text the row-tuple encoder
#: wrote, which the packed one must keep.
LEDGER_STREAM_SHA256 = {
    True: "4bb00fae0ffbb64e9c36a0f70f7618db3dbe72b7d05e84a30cabcda1fb106f8d",
    False: "eee4fb6aa5d54803c57649ee69982095838859ec15fbeccc6c2771f084eadb00",
}


@pytest.mark.parametrize("relabel", [True, False])
def test_ledger_streams_keep_their_wire_text(relabel):
    graph = chung_lu(1800, 10.0, exponent=2.4, seed=2019)
    # One batch per page: page boundaries are a function of the stream.
    service = BenuService(batch_size=1024)
    protocol = ServiceProtocol(service)

    def ask(request):
        return protocol.handle_line_json(json.dumps(request))

    try:
        edges = [list(edge) for edge in sorted(graph.edges())]
        assert json.loads(ask({
            "op": "register", "name": "rows", "edges": edges,
            "relabel": relabel,
        }))["ok"]
        digest = hashlib.sha256()
        total = 0
        for text in LEDGER_STREAMS:
            query = json.loads(
                ask({"op": "query", "text": text, "graph": "rows"})
            )["query"]
            cursor = 0
            while True:
                line = ask({
                    "op": "poll", "query": query, "limit": 1024,
                    "cursor": cursor, "wait": 30.0,
                })
                head, _, body = line.rpartition(MATCHES_KEY)
                page = json.loads(head + "}")
                assert page["ok"], page
                if page["rows"]:
                    digest.update(f"{page['rows']}{body}\n".encode())
                    total += page["rows"]
                cursor = page["cursor"]
                if page["done"]:
                    break
        assert total == 246_240 + 11_343 + 9_002
        assert digest.hexdigest() == LEDGER_STREAM_SHA256[relabel]
    finally:
        service.close()


# ------------------------------------------------------- routed deployments
@pytest.fixture(scope="module")
def workload():
    g, _ = relabel_by_degree_order(chung_lu(100, 4.0, exponent=2.4, seed=29))
    return Graph(g.edges())


@pytest.fixture(scope="module")
def deployments(workload):
    """Routers over 1, 2 and 4 in-process shards, and their nodes."""
    built = {}
    for n in SHARD_COUNTS:
        nodes = [ShardNode(i, n) for i in range(n)]
        for node in nodes:
            node.register_graph("g", workload, relabel=False)
        built[n] = (ShardRouter([LocalShardClient(node) for node in nodes]), nodes)
    yield built
    for _, nodes in built.values():
        for node in nodes:
            node.close()


def _shard_streams(nodes, pattern):
    """Each shard's own stream, drained at the node: partition order."""
    return [
        [tuple(m) for m in node.service.submit(pattern, "g").matches()]
        for node in nodes
    ]


def _drain(query, limits, position=0):
    """Fetch from ``position`` to the end with the given per-call limits
    (cycled); the rows and the page sizes."""
    rows, pages, i = [], [], 0
    while True:
        page = query.fetch(
            limit=limits[i % len(limits)], cursor=position + len(rows)
        )
        assert len(page.matches) <= limits[i % len(limits)]
        rows.extend(tuple(m) for m in page.matches)
        pages.append(len(page.matches))
        assert page.cursor == position + len(rows)
        i += 1
        if page.done:
            return rows, pages


# ------------------------------------------- (b) the merged row sequence
@pytest.mark.parametrize("pattern", sorted(PATTERNS))
def test_merged_sequence_is_partition_order_for_any_page_limits(
    pattern, deployments
):
    rng = random.Random(f"limits:{pattern}")
    for n, (router, nodes) in deployments.items():
        expected = [row for rows in _shard_streams(nodes, pattern) for row in rows]
        for limits in (
            [256],
            [rng.randint(1, 400) for _ in range(11)],
            [256, 7, 190],  # shrinks below the pages already in flight
        ):
            rows, _ = _drain(router.submit(pattern, "g"), limits)
            assert rows == expected, (pattern, n, limits)


def test_a_page_never_spans_two_shards(deployments):
    router, nodes = deployments[4]
    streams = _shard_streams(nodes, "triangle")
    boundaries, total = set(), 0
    for rows in streams:
        total += len(rows)
        boundaries.add(total)
    rows, pages = _drain(router.submit("triangle", "g"), [50])
    assert rows == [row for stream in streams for row in stream]
    position = 0
    for size in pages:
        # No shard boundary falls strictly inside a page.
        assert not any(position < b < position + size for b in boundaries)
        position += size


def test_shrinking_limit_holds_the_remainder(deployments):
    router, nodes = deployments[2]
    streams = _shard_streams(nodes, "square")
    in_flight = min(64, len(streams[0]) - 64)  # shard 0's second page
    assert in_flight > 5
    query = router.submit("square", "g")
    first = query.fetch(limit=64)
    assert len(first.matches) == 64
    # The next page is already in flight; ask for less than it holds.
    small = query.fetch(limit=5)
    assert len(small.matches) == 5 and len(query._held) == in_flight - 5
    assert not query.done
    rows = [tuple(m) for m in first.matches] + [tuple(m) for m in small.matches]
    rest, _ = _drain(query, [7], position=len(rows))
    assert rows + rest == streams[0] + streams[1]


# ------------------------------------------------------ (c) global LIMIT
def test_global_limit_inside_a_page_and_at_a_shard_boundary(deployments):
    router, nodes = deployments[2]
    streams = _shard_streams(nodes, "triangle")
    expected = streams[0] + streams[1]
    first = len(streams[0])
    assert first > 20 and len(streams[1]) > 20
    for limit in (1, 10, first - 1, first, first + 1, first + 13, len(expected)):
        before = [set(node.service.queries()) for node in nodes]
        query = router.submit("triangle", "g", limit=limit)
        rows, _ = _drain(query, [16])
        assert rows == expected[:limit], limit
        assert query.done and all(s.lease is None for s in query._slices)
        # Nothing keeps running on a shard: its slice finished or was
        # cancelled.
        for node, seen in zip(nodes, before):
            for query_id, handle in node.service.queries().items():
                if query_id not in seen:
                    assert handle.wait(timeout=10), (limit, query_id)


# ------------------------------------------------------------ TCP fixtures
class _RecordingServer(ServiceTCPServer):
    """A shard's TCP server that counts connections and handler errors."""

    def __init__(self, node):
        super().__init__(("127.0.0.1", 0), node.service, identity=node.identity)
        self.accepted = 0
        self.errors = []

    def get_request(self):
        request = super().get_request()
        self.accepted += 1
        return request

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])


@pytest.fixture()
def tcp_shards(workload):
    nodes = [ShardNode(i, 2) for i in range(2)]
    servers = []
    for node in nodes:
        node.register_graph("g", workload, relabel=False)
        server = _RecordingServer(node)
        threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02},
            daemon=True,
        ).start()
        servers.append(server)
    router = ShardRouter(
        [TCPShardClient(*server.server_address[:2]) for server in servers]
    )
    yield router, nodes, servers
    router.close()
    for server in servers:
        server.shutdown()
        server.server_close()
    for node in nodes:
        node.close()


# ------------------------------------------------- (d) the memory bound
def test_router_never_holds_more_than_one_page_per_shard(tcp_shards):
    router, nodes, _ = tcp_shards
    page = 8
    query = router.submit("square", "g")
    handles = []
    handed_on = 0
    while True:
        fetched = query.fetch(limit=page)
        handed_on += len(fetched.matches)
        if not handles:
            handles = [
                node.service.query(s.query_id)
                for node, s in zip(nodes, query._slices)
            ]
        # What the shards have served and the client has not been handed
        # is in the router's leases and its held remainder: at most one
        # page each.
        served = sum(handle.delivered for handle in handles)
        assert served - handed_on <= page * len(nodes)
        assert len(query._held) < page
        if fetched.done:
            break
    assert handed_on == sum(handle.delivered for handle in handles)
    assert handed_on > 4 * page * len(nodes)  # the bound was exercised


# --------------------------------------------------- (e) lost responses
def _faulted_cluster(workload, faults, retry, replicas=1):
    nodes = [ShardNode(i, 2) for i in (0, 1) for _ in range(replicas)]
    for node in nodes:
        node.register_graph("g", workload, relabel=False)
    clients = [
        # Only each partition's primary misbehaves.
        LocalShardClient(
            node, endpoint=f"node-{i}",
            faults=faults if i % replicas == 0 else None,
        )
        for i, node in enumerate(nodes)
    ]
    return nodes, ShardRouter(clients, retry=retry)


def test_lost_poll_reply_is_retried_in_place_from_the_replay_window(workload):
    # Per client: hello and submit are reads 1-2, the stream's polls
    # follow; reads 4 and 5 are dropped after the shard served the page.
    nodes, router = _faulted_cluster(
        workload,
        "shard.read:error@4x2",
        RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002),
    )
    try:
        expected = [r for rows in _shard_streams(nodes, "triangle") for r in rows]
        query = router.submit("triangle", "g")
        rows, _ = _drain(query, [16])
        assert rows == expected  # nothing lost, duplicated or reordered
        assert all(not s.retried for s in query._slices)  # no failover
        assert all(router.is_alive(c) for c in router.clients)
        for client in router.clients:
            assert [f[:2] for f in client._injector.fired_log] == [
                ("shard.read", "error")
            ] * 2
    finally:
        for node in nodes:
            node.close()


def test_failover_only_after_the_retries_are_spent(workload):
    # Three dropped reads in a row against three attempts: the primary
    # is given up, the replica replays and the stream stays exact.
    nodes, router = _faulted_cluster(
        workload,
        "shard.read:error@4x3",
        RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.002),
        replicas=2,
    )
    try:
        expected = [
            r for rows in _shard_streams(nodes[::2], "triangle") for r in rows
        ]
        query = router.submit("triangle", "g")
        rows, _ = _drain(query, [16])
        assert rows == expected
        assert [s.retried for s in query._slices] == [True, True]
    finally:
        for node in nodes:
            node.close()


def test_retry_backoff_of_a_stream_poll_debits_the_deadline(workload):
    nodes, router = _faulted_cluster(
        workload,
        "shard.read:error@3",
        RetryPolicy(max_attempts=3, base_delay=30.0, max_delay=30.0),
    )
    try:
        query = router.submit("triangle", "g", deadline=0.3)
        t0 = time.monotonic()
        with pytest.raises(DeadlineExpired):
            _drain(query, [16])
        assert time.monotonic() - t0 < 10.0  # slept the budget, not the backoff
    finally:
        for node in nodes:
            node.close()


# ------------------------------------------------------ (f) fetch(wait=)
def _handle(batch_size=4, **control):
    control = ExecutionControl(**control)
    buffer = StreamBuffer(batch_size=batch_size, control=control)
    handle = QueryHandle("q-1", "p", "g", control, buffer=buffer)
    handle._mark(QueryStatus.RUNNING)
    return handle


def _fetch_in_thread(handle, **kwargs):
    """Start ``handle.fetch`` on a thread; returns (thread, outcome list)
    once the fetch is inside its wait."""
    outcome = []

    def run():
        try:
            outcome.append(handle.fetch(**kwargs))
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    deadline = time.monotonic() + 10
    while not handle._lock.locked() and thread.is_alive():
        assert time.monotonic() < deadline
        time.sleep(0.001)
    return thread, outcome


def _joined(thread, outcome):
    thread.join(timeout=10)
    assert not thread.is_alive()
    return outcome[0]


def test_fetch_wait_returns_when_the_first_batch_lands():
    handle = _handle()
    thread, outcome = _fetch_in_thread(handle, limit=100, wait=60.0)
    assert not outcome  # blocked: nothing buffered yet
    # The waiting consumer blocks neither describe nor cancel.
    assert handle.describe()["delivered"] == 0
    assert handle.delivered == 0
    handle.buffer.emit_block(RowBlock.from_rows([(r, r) for r in range(4)], 2))
    page = _joined(thread, outcome)
    assert list(page.matches) == [(r, r) for r in range(4)]
    assert not page.done and page.cursor == 4


def test_fetch_wait_returns_at_stream_end():
    handle = _handle()
    thread, outcome = _fetch_in_thread(handle, limit=100, wait=60.0)
    # A partial batch: flushed by close.
    handle.buffer.emit_block(RowBlock.from_rows([(1, 2)], 2))
    handle._mark(QueryStatus.SUCCEEDED)
    handle.buffer.close()
    page = _joined(thread, outcome)
    assert list(page.matches) == [(1, 2)] and page.done


def test_fetch_wait_returns_on_cancel():
    handle = _handle()
    thread, outcome = _fetch_in_thread(handle, limit=100, wait=60.0)
    handle.cancel("enough")  # does not queue behind the waiting fetch
    # What the run does when it notices, as BenuService._run_query does.
    handle.error = QueryCancelled("enough")
    handle._mark(QueryStatus.CANCELLED)
    handle.buffer.close()
    assert isinstance(_joined(thread, outcome), QueryCancelled)


def test_fetch_wait_is_clipped_to_the_deadline():
    handle = _handle(deadline_seconds=0.2)
    t0 = time.monotonic()
    page = handle.fetch(limit=100, wait=60.0)
    assert time.monotonic() - t0 < 10.0
    assert len(page.matches) == 0 and not page.done
    # Past the deadline a wait does not block at all.
    assert len(handle.fetch(limit=100, wait=60.0).matches) == 0


def test_fetch_without_wait_stays_non_blocking():
    handle = _handle()
    page = handle.fetch(limit=100)
    assert len(page.matches) == 0 and not page.done


def test_stream_poll_honours_wait_over_the_protocol(workload):
    node = ShardNode(0, 1)
    try:
        node.register_graph("g", workload, relabel=False)
        protocol = node.protocol()
        submitted = protocol.handle_line(
            json.dumps({"op": "submit", "pattern": "triangle", "graph": "g"})
        )
        rows, cursor = 0, 0
        while True:
            line = protocol.handle_line_json(json.dumps({
                "op": "poll", "query": submitted["query"], "limit": 1024,
                "cursor": cursor, "wait": 30.0,
            }))
            page = decode_response(line)
            assert page["ok"] and page["rows"] == len(page["matches"])
            # With a wait a page is only ever empty at the very end.
            assert page["rows"] > 0 or page["done"]
            rows += page["rows"]
            cursor = page["cursor"]
            if page["done"]:
                break
        assert rows == cursor > 0
    finally:
        node.close()


# ------------------------------------------------------- one dispatcher
def test_injected_fault_through_the_router_keeps_its_typed_code(deployments):
    router, _ = deployments[1]
    protocol = RouterProtocol(router)

    def broken(request):
        raise InjectedFault("shard.read", 3)

    protocol._op_stats = broken
    response = json.loads(protocol.handle_line_json('{"op": "stats"}'))
    assert response == {
        "ok": False,
        "error": "fault_injected",
        "message": "injected error at shard.read (hit 3)",
    }
    assert protocol.handle_line("nonsense")["error"] == "invalid_query"


def test_router_poll_passes_the_shard_page_through_as_text(deployments):
    router, nodes = deployments[1]
    protocol = RouterProtocol(router)
    submitted = protocol.handle_line(
        json.dumps({"op": "submit", "pattern": "triangle", "graph": "g"})
    )
    shard_line = nodes[0].protocol().handle_line_json(json.dumps({
        "op": "poll", "wait": 30.0, "limit": 32,
        "query": nodes[0].service.submit("triangle", "g").query_id,
    }))
    line = protocol.handle_line_json(
        json.dumps({"op": "poll", "query": submitted["query"], "limit": 32})
    )
    page = decode_response(line)
    assert page["rows"] == 32 and page["cursor"] == 32 and not page["done"]
    assert page["matches"].text == decode_response(shard_line)["matches"].text


# ------------------------------------------ abandoned connections: quiet
class _FakeHandler:
    def __init__(self, rfile, wfile):
        self.rfile, self.wfile = rfile, wfile
        self.server = None


class _Resets:
    """A socket file whose peer reset the connection."""

    def __init__(self, error, lines=()):
        self._error, self._lines = error, list(lines)

    def __iter__(self):
        yield from self._lines
        raise self._error

    def write(self, data):
        raise self._error


@pytest.mark.parametrize("error", [ConnectionResetError, BrokenPipeError])
def test_a_peer_reset_is_end_of_connection_not_an_error(error, workload):
    node = ShardNode(0, 1)
    try:
        protocol = node.protocol()
        # Reset while waiting for the next request ...
        serve_connection(_FakeHandler(_Resets(error()), None), protocol)
        # ... and while writing a reply.
        lines = [b'{"op": "health"}\n']
        serve_connection(
            _FakeHandler(iter(lines), _Resets(error())), protocol
        )
    finally:
        node.close()


def test_reset_connection_leaves_the_shard_server_quiet(tcp_shards):
    _, _, servers = tcp_shards
    server = servers[0]
    sock = socket.create_connection(server.server_address[:2], timeout=10)
    sock.sendall(b'{"op": "health"}\n' * 50)
    # Close without reading, lingering zero seconds: the peer sees RST.
    sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, b"\x01\x00\x00\x00\x00\x00\x00\x00"
    )
    sock.close()
    # The server is still there, and told nobody about the reset.
    with socket.create_connection(server.server_address[:2], timeout=10) as sock:
        sock.sendall(b'{"op": "health"}\n')
        assert json.loads(sock.makefile("rb").readline())["ok"]
    assert server.errors == []


def test_limit_with_a_poll_in_flight_resets_no_connection(tcp_shards):
    router, nodes, servers = tcp_shards

    def limited():
        query = router.submit("triangle", "g", limit=5)
        page = query.fetch(limit=64)
        # Shard 0 alone met the LIMIT while shard 1's first poll was in
        # flight: it was cancelled, its reply read and dropped.
        assert len(page.matches) == 5 and page.done
        assert all(s.lease is None for s in query._slices)

    limited()
    accepted = [server.accepted for server in servers]
    for _ in range(5):
        limited()
    # Every connection went back to its pool clean: none was closed under
    # the shard, so none had to be dialled again.
    assert [server.accepted for server in servers] == accepted
    assert all(client.connected for client in router.clients)
    assert [server.errors for server in servers] == [[], []]
