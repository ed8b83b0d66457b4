"""Line-delimited JSON protocol for ``benu serve``.

One request per line, one JSON response per line — trivially scriptable
(``echo '{"op": ...}' | python -m repro serve``) and transport-agnostic:
the same :class:`ServiceProtocol` handler backs stdio and a local TCP
socket.

Operations
----------
``hello``    {"op":"hello","version":2?,"role":"client"|"router"?}
``submit``   {"op":"submit","pattern":"triangle"|[[u,v],...],"graph":"g",
              "limit":N?, "deadline":sec?, "deadline_at":epoch?,
              "stream":bool?, "config":{}?}
``query``    {"op":"query","text":"MATCH (a)-(b) ... RETURN ...","graph":"g",
              "limit":N?, "deadline":sec?, "deadline_at":epoch?, "config":{}?}
``poll``     {"op":"poll","query":"q-1","limit":100?,"cursor":N?,"wait":sec?}
``cancel``   {"op":"cancel","query":"q-1"}
``stats``    {"op":"stats"}
``metrics``  {"op":"metrics"}              → Prometheus text exposition
``events``   {"op":"events","type":t?,"query":"q-1"?,"limit":N?}
``graphs``   {"op":"graphs"}
``register`` {"op":"register","name":"g","dataset":"as_sim"|"edges":[[u,v],...],
              "partition":{"index":i,"of":n,"halo":k?}?,
              "labels":{"<vertex>":<label>,...}?}
``queries``  {"op":"queries"}
``shutdown`` {"op":"shutdown"}

Every response is ``{"ok": true, ...}`` or
``{"ok": false, "error": <code>, "message": <text>}`` with the typed
error's code (``rejected``, ``unknown_graph``, ...).

A stream ``poll`` answers ``{..., "cursor": c, "done": d, "ok": true,
"rows": n, "matches": [[...], ...]}``: ``rows`` counts the page and
``matches`` is always the **last** key, so a hop that only forwards the
page (the router) cuts the line there and never parses a row
(:func:`encode_response`).  ``wait`` on a stream poll blocks up to that
many seconds for the *first* batch of the page instead of answering
empty (clipped to the query's deadline); on a count query it waits for
the query to finish.

``config`` accepts the common :class:`~repro.engine.config.BenuConfig`
knobs: workers, threads, cache_bytes, tau, level, compressed.

Versioning: ``hello`` is the optional protocol handshake introduced in
version 2 alongside the sharding fields (``deadline_at``, ``partition``,
shard identity).  Version-1 clients that never send ``hello`` keep
working — every v1 request and response shape is unchanged; v2 fields
only appear when the client asks for them.  A node started as one shard
of a deployment answers ``hello`` with its shard id, count and epoch so
a router can verify it is fanning out to the cluster it thinks it is.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
from dataclasses import dataclass, replace
from typing import Optional, TextIO

from ..engine.config import BenuConfig
from ..engine.control import ExecutionInterrupted
from ..faults import InjectedFault
from ..graph.datasets import load_dataset
from ..graph.graph import Graph
from ..lang.errors import QueryError
from ..storage.partition import PartitionInfo
from ..telemetry.prometheus import render_prometheus
from .errors import InvalidQueryError, ServiceError
from .service import BenuService

#: Wire protocol version this node speaks.  v2 added the ``hello``
#: handshake and the sharding fields; v1 requests still work verbatim.
PROTOCOL_VERSION = 2

#: Optional v2 features this node advertises in the handshake.
CAPABILITIES = (
    "deadline_at", "partition", "telemetry_counts", "health", "query"
)


@dataclass(frozen=True)
class ShardIdentity:
    """Who a serving node is within a sharded deployment.

    ``epoch`` is the deployment generation: a router refuses to merge
    streams from shards that disagree on it (a stale node from a
    previous rollout would silently double- or under-count).
    """

    shard_index: int
    shard_count: int
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError(
                f"shard_index {self.shard_index} out of range for "
                f"{self.shard_count} shards"
            )

    def partition_info(self, halo_hops: Optional[int] = None) -> PartitionInfo:
        return PartitionInfo(
            index=self.shard_index, of=self.shard_count, halo_hops=halo_hops
        )

    def to_dict(self) -> dict:
        return {
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "epoch": self.epoch,
        }


#: JSON config field → BenuConfig field.
_INT, _INT_OR_NULL, _BOOL, _STR = (int,), (int, type(None)), (bool,), (str,)
#: Wire ``config`` key -> (BenuConfig field, the JSON types it takes).
#: Types match exactly, so ``true`` is no int and ``"yes"`` no bool.
_CONFIG_FIELDS = {
    "workers": ("num_workers", _INT),
    "threads": ("threads_per_worker", _INT),
    "cache_bytes": ("cache_capacity_bytes", _INT_OR_NULL),
    "tau": ("split_threshold", _INT_OR_NULL),
    "level": ("optimization_level", _INT),
    "compressed": ("compressed", _BOOL),
    "degree_filter": ("degree_filter", _BOOL),
    "backend": ("adjacency_backend", _STR),
}


#: Where a page's rows start on the wire.  As raw text this cannot occur
#: inside a JSON string (its quotes would be escaped), and ``matches`` is
#: the last key with scalars-only rows behind it, so the last occurrence
#: in a line is the top-level key.
MATCHES_KEY = ', "matches": '


class EncodedRows:
    """A page's rows as the JSON text a node already encoded.

    A forwarding hop splices ``text`` into its own reply untouched; only
    somebody who iterates or slices the page pays for the parse.
    """

    __slots__ = ("text", "count")

    def __init__(self, text: str, count: int) -> None:
        self.text = text
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return map(tuple, json.loads(self.text))

    def __getitem__(self, key):
        rows = json.loads(self.text)[key]
        return list(map(tuple, rows)) if isinstance(key, slice) else tuple(rows)


def encode_response(response: dict) -> str:
    """The one wire encoding of a response, serve and route alike.

    A page (``matches``) goes last behind its ``rows`` count; rows that
    arrived as :class:`EncodedRows` pass through as the text they are.
    """
    matches = response.get("matches")
    if matches is None:
        return json.dumps(response)
    head = {k: v for k, v in response.items() if k != "matches"}
    head["rows"] = len(matches)
    body = (
        matches.text if isinstance(matches, EncodedRows)
        else json.dumps(matches)
    )
    return json.dumps(head)[:-1] + MATCHES_KEY + body + "}"


#: Exception type → the attribute holding its wire error code.  First
#: match wins; anything else is ``internal``.
_ERROR_CODES = (
    (QueryError, "code"),
    (ServiceError, "code"),
    # Polling a cancelled/expired stream surfaces its typed status.
    (ExecutionInterrupted, "status"),
    # A deterministic chaos schedule fired inside this node; name it
    # honestly instead of reporting a generic internal error.
    (InjectedFault, "code"),
)


def _error_response(exc: Exception) -> dict:
    for kind, attr in _ERROR_CODES:
        if isinstance(exc, kind):
            code = getattr(exc, attr)
            break
    else:
        code = "internal"
    response = {"ok": False, "error": code, "message": str(exc)}
    if isinstance(exc, QueryError):
        # BENU-QL front-end failures are structured: the position and a
        # caret snippet ride along, so clients point at the offending
        # spot instead of parsing a message.
        if exc.line is not None:
            response["line"] = exc.line
            response["column"] = exc.column
        snippet = exc.snippet()
        if snippet:
            response["snippet"] = snippet
    return response


def dispatch(handler, line: str) -> dict:
    """One request line against ``handler``'s ``_op_<name>`` methods.

    The single dispatcher behind every protocol front-end (a node's
    :class:`ServiceProtocol`, the router's ``RouterProtocol``): parse,
    look the op up, run it, and map whatever it raises onto the typed
    error response.
    """
    try:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InvalidQueryError(f"bad JSON: {exc}") from exc
        if not isinstance(request, dict) or "op" not in request:
            raise InvalidQueryError('requests are objects with an "op" field')
        op = request["op"]
        method = getattr(handler, f"_op_{op}", None)
        if method is None:
            raise InvalidQueryError(f"unknown op {op!r}")
        response = method(request)
        response.setdefault("ok", True)
        return response
    except Exception as exc:  # noqa: BLE001 — protocol boundary
        return _error_response(exc)


def negotiated_version(request: dict) -> int:
    """The protocol version a ``hello`` settles on: the client's, capped
    at ours (a client that names none speaks v1).  Both dialects — node
    and router — answer ``hello`` through this, so a version that is no
    integer or below 1 is ``invalid_query`` on either."""
    asked = request.get("version", 1)
    try:
        asked = int(asked)
    except (TypeError, ValueError) as exc:
        raise InvalidQueryError('"version" must be an integer') from exc
    if asked < 1:
        raise InvalidQueryError(f"bad protocol version {asked}")
    return min(asked, PROTOCOL_VERSION)


class ServiceProtocol:
    """Stateless request handler: one JSON request in, one response out.

    ``identity`` binds the handler to a shard of a deployment: ``hello``
    reports it, and ``register`` defaults to partitioning the graph by
    it (so a router can broadcast one register request to every shard
    and each keeps only its slice of the task space).
    """

    def __init__(
        self,
        service: BenuService,
        identity: Optional[ShardIdentity] = None,
    ) -> None:
        self.service = service
        self.identity = identity
        self.shutdown_requested = False

    # ------------------------------------------------------------------
    def handle_line(self, line: str) -> dict:
        return dispatch(self, line)

    def handle_line_json(self, line: str) -> str:
        return encode_response(self.handle_line(line))

    def health(self) -> dict:
        """The ``health`` op's body: cheap liveness, no catalog access.

        Deliberately minimal — the router's circuit breaker probes this
        on possibly-sick nodes, so it must not touch any lock or state a
        wedged query could be holding.
        """
        body = {
            "status": "serving",
            "role": "shard" if self.identity is not None else "node",
            "running": self.service.scheduler.running,
        }
        if self.identity is not None:
            body.update(self.identity.to_dict())
        return body

    # ------------------------------------------------------------------ ops
    def _parse_pattern(self, request: dict):
        pattern = request.get("pattern")
        if isinstance(pattern, str):
            return pattern
        if isinstance(pattern, list):
            try:
                return Graph((int(u), int(v)) for u, v in pattern)
            except (TypeError, ValueError) as exc:
                raise InvalidQueryError(
                    "pattern edge lists are [[u, v], ...] of ints"
                ) from exc
        raise InvalidQueryError('"pattern" must be a name or an edge list')

    def _parse_config(self, request: dict) -> Optional[BenuConfig]:
        raw = request.get("config")
        if raw is None:
            return None
        if not isinstance(raw, dict):
            raise InvalidQueryError('"config" must be an object')
        unknown = set(raw) - set(_CONFIG_FIELDS)
        if unknown:
            raise InvalidQueryError(
                f"unknown config fields: {sorted(unknown)}; "
                f"known: {sorted(_CONFIG_FIELDS)}"
            )
        kwargs = {}
        for key, value in raw.items():
            field_name, types = _CONFIG_FIELDS[key]
            if type(value) not in types:
                expected = " or ".join(
                    "null" if t is type(None) else t.__name__ for t in types
                )
                raise InvalidQueryError(
                    f'config field "{key}" must be {expected}, '
                    f"got {json.dumps(value)}"
                )
            kwargs[field_name] = value
        try:
            return replace(self.service.default_config, **kwargs)
        except (TypeError, ValueError) as exc:
            raise InvalidQueryError(f"bad config: {exc}") from exc

    def _op_hello(self, request: dict) -> dict:
        """Version/role handshake (v2).  Optional: v1 clients skip it."""
        response = {
            "version": negotiated_version(request),
            "server_version": PROTOCOL_VERSION,
            "role": "shard" if self.identity is not None else "node",
            "capabilities": list(CAPABILITIES),
        }
        if self.identity is not None:
            response.update(self.identity.to_dict())
        return response

    def _op_submit(self, request: dict) -> dict:
        deadline_at = request.get("deadline_at")
        handle = self.service.submit(
            self._parse_pattern(request),
            request.get("graph", ""),
            config=self._parse_config(request),
            stream=bool(request.get("stream", True)),
            limit=request.get("limit"),
            deadline_seconds=request.get("deadline"),
            deadline_at=float(deadline_at) if deadline_at is not None else None,
        )
        return {"query": handle.query_id, "status": handle.status.value}

    def _op_query(self, request: dict) -> dict:
        """Submit a BENU-QL text query (v2).

        ``{"op":"query","text":"MATCH ...","graph":"g","limit":N?,
        "deadline":sec?,"deadline_at":epoch?,"config":{}?}`` — the reply
        carries the query id plus the lowered result shape (``kind`` /
        ``columns``); results flow through ``poll`` exactly like
        ``submit``, with GROUP BY counts in the final ``groups`` field.
        """
        text = request.get("text")
        if not isinstance(text, str) or not text.strip():
            raise InvalidQueryError('"text" (a BENU-QL query) is required')
        deadline_at = request.get("deadline_at")
        handle = self.service.submit_query(
            text,
            request.get("graph", ""),
            config=self._parse_config(request),
            limit=request.get("limit"),
            deadline_seconds=request.get("deadline"),
            deadline_at=float(deadline_at) if deadline_at is not None else None,
        )
        return {
            "query": handle.query_id,
            "status": handle.status.value,
            "kind": handle.lang_kind,
            "columns": list(handle.lang_columns or ()),
        }

    def _op_poll(self, request: dict) -> dict:
        handle = self.service.query(str(request.get("query")))
        wait = float(request.get("wait") or 0)
        if wait and not handle.streaming:
            handle.wait(timeout=wait)
        response = handle.describe()
        if handle.streaming:
            cursor = request.get("cursor")
            page = handle.fetch(
                limit=int(request.get("limit", 256)),
                cursor=int(cursor) if cursor is not None else None,
                wait=wait,
            )
            response.update(
                # The one page becomes row tuples here (a packed page in
                # one C-level pass) and encode_response does the rest.
                matches=list(page.matches),
                cursor=page.cursor,
                done=page.done,
                status=handle.status.value,  # may have finished during fetch
            )
        else:
            response["done"] = handle.done
            if handle.done and handle.error is None:
                result = handle.result()
                if handle.lang_groups is not None:
                    # GROUP BY keys serialize as strings (JSON objects
                    # can't have int keys); clients parse them back.
                    response["groups"] = {
                        str(k): v for k, v in handle.lang_groups.items()
                    }
                if result is not None:
                    response["count"] = result.count
                    if result.telemetry is not None:
                        # Per-shard execution counters a router sums;
                        # instruction counts are per-task deterministic,
                        # so shard slices add up to the single-node run.
                        response["telemetry"] = {
                            "instruction_counts": dict(
                                result.telemetry.instruction_counts
                            ),
                            "kernel_counts": dict(
                                result.telemetry.kernel_counts
                            ),
                        }
        return response

    def _op_cancel(self, request: dict) -> dict:
        handle = self.service.cancel(str(request.get("query")))
        return {"query": handle.query_id, "status": handle.status.value}

    def _op_health(self, request: dict) -> dict:
        return self.health()

    def _op_stats(self, request: dict) -> dict:
        return {"stats": self.service.stats()}

    def _op_metrics(self, request: dict) -> dict:
        """Metrics export: Prometheus text, or the registry dict (v2).

        ``{"format": "json"}`` returns :meth:`MetricsRegistry.as_dict` —
        the structured form a router merges across shards.
        """
        if request.get("format") == "json":
            return {"metrics": self.service.registry.as_dict()}
        return {"metrics": render_prometheus(self.service.registry)}

    def _op_events(self, request: dict) -> dict:
        """Recent lifecycle events, optionally filtered."""
        limit = request.get("limit")
        rows = self.service.events.as_dicts(
            type=request.get("type"),
            query_id=request.get("query"),
            limit=int(limit) if limit is not None else None,
        )
        return {
            "events": rows,
            "emitted": self.service.events.emitted,
            "dropped": self.service.events.dropped,
        }

    def _op_graphs(self, request: dict) -> dict:
        return {
            "graphs": self.service.catalog.names(),
            "catalog_bytes": self.service.catalog.memory_bytes(),
        }

    def _op_register(self, request: dict) -> dict:
        name = request.get("name")
        if not isinstance(name, str) or not name:
            raise InvalidQueryError('"name" is required')
        if "dataset" in request:
            graph = load_dataset(request["dataset"])
            relabel = False  # bundled datasets are pre-relabeled
        elif "edges" in request:
            try:
                graph = Graph((int(u), int(v)) for u, v in request["edges"])
            except (TypeError, ValueError) as exc:
                raise InvalidQueryError(
                    '"edges" must be [[u, v], ...] of ints'
                ) from exc
            relabel = bool(request.get("relabel", True))
        else:
            raise InvalidQueryError('register needs "dataset" or "edges"')
        partition = self._parse_partition(request)
        labels = request.get("labels")
        if labels is not None:
            if not isinstance(labels, dict):
                raise InvalidQueryError(
                    '"labels" must be {"<vertex id>": <label>, ...}'
                )
            try:
                labels = {int(v): lbl for v, lbl in labels.items()}
            except (TypeError, ValueError) as exc:
                raise InvalidQueryError(
                    '"labels" keys must be integer vertex ids'
                ) from exc
        return self.service.register_graph(
            name,
            graph,
            relabel=relabel,
            replace=bool(request.get("replace")),
            partition=partition,
            labels=labels,
        )

    def _parse_partition(self, request: dict) -> Optional[PartitionInfo]:
        raw = request.get("partition")
        if raw is None:
            # A shard node partitions every registration by its identity
            # unless the client explicitly asked for a full copy.
            if self.identity is None or request.get("unpartitioned"):
                return None
            return self.identity.partition_info()
        if not isinstance(raw, dict):
            raise InvalidQueryError(
                '"partition" must be {"index": i, "of": n, "halo": k?}'
            )
        try:
            return PartitionInfo.from_dict(raw)
        except (TypeError, ValueError) as exc:
            raise InvalidQueryError(f"bad partition: {exc}") from exc

    def _op_queries(self, request: dict) -> dict:
        return {
            "queries": [
                h.describe() for h in self.service.queries().values()
            ]
        }

    def _op_shutdown(self, request: dict) -> dict:
        self.shutdown_requested = True
        return {"bye": True}


# ---------------------------------------------------------------------- I/O
def serve_stdio(
    service: BenuService,
    in_stream: Optional[TextIO] = None,
    out_stream: Optional[TextIO] = None,
    identity: Optional[ShardIdentity] = None,
) -> int:
    """Serve the protocol over stdio until EOF or a shutdown op."""
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    protocol = ServiceProtocol(service, identity=identity)
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        out_stream.write(protocol.handle_line_json(line) + "\n")
        out_stream.flush()
        if protocol.shutdown_requested:
            break
    return 0


def serve_connection(handler, protocol) -> None:
    """Answer one TCP connection's request lines until EOF or shutdown.

    A peer that resets the connection (or stops reading) has ended it:
    that is an end of connection like EOF, not an error to trace.  A
    ``shutdown`` op stops ``handler``'s server.
    """
    try:
        for raw in handler.rfile:
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                continue
            handler.wfile.write(
                (protocol.handle_line_json(line) + "\n").encode("utf-8")
            )
            if protocol.shutdown_requested:
                handler.server.shutdown_requested = True
                # shutdown() blocks until serve_forever exits, so stop
                # the server from a helper thread, not this handler.
                threading.Thread(
                    target=handler.server.shutdown, daemon=True
                ).start()
                return
    except (ConnectionResetError, BrokenPipeError):
        pass


class _ProtocolTCPHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        serve_connection(
            self,
            ServiceProtocol(
                self.server.service,  # type: ignore[attr-defined]
                identity=self.server.identity,  # type: ignore[attr-defined]
            ),
        )


class ServiceTCPServer(socketserver.ThreadingTCPServer):
    """A local TCP server speaking the line protocol (one service shared)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address,
        service: BenuService,
        identity: Optional[ShardIdentity] = None,
    ) -> None:
        super().__init__(address, _ProtocolTCPHandler)
        self.service = service
        self.identity = identity
        self.shutdown_requested = False


def serve_socket(
    service: BenuService,
    host: str = "127.0.0.1",
    port: int = 0,
    identity: Optional[ShardIdentity] = None,
):
    """A bound (not yet serving) TCP server; caller runs serve_forever."""
    return ServiceTCPServer((host, port), service, identity=identity)
