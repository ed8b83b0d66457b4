"""Line-delimited JSON protocol of ``benu serve`` and ``benu route``.

One request per line, one JSON response per line — trivially scriptable
(``echo '{"op": ...}' | python -m repro serve``) and transport-agnostic:
one stdio loop (:func:`serve_stdio`) and one threaded TCP server
(:class:`ServiceTCPServer`) carry either dialect — a node's
:class:`ServiceProtocol` or the router's
:class:`~repro.shard.protocol.RouterProtocol`.

Operations
----------
:data:`OPS` is the op list.  Each row names an op, the dialects that
serve it (``serve``, ``route`` or both) and its fields: the JSON types a
field takes (matched exactly, so ``true`` is no int and ``"5"`` no
limit), whether it is required, its default and its converter.
:func:`dispatch` checks a request against its row once; a malformed
field answers ``invalid_query`` and the ``_op_<name>`` handler only ever
sees checked values.  Unknown top-level fields are ignored.  The router
checks what it forwards — an unknown pattern or dataset, a mistyped
config — before any shard sees it, and forwards the JSON it checked.

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
knobs (:data:`_CONFIG_FIELDS`).

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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Optional, TextIO, Tuple

from ..engine.control import ExecutionInterrupted
from ..faults import InjectedFault
from ..graph.datasets import DATASET_ORDER, DATASET_SPECS, load_dataset
from ..graph.graph import Graph
from ..graph.patterns import get_pattern
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


# ---------------------------------------------------------------- fields
_NULL = type(None)
_INT, _INT_OR_NULL, _BOOL, _STR = (int,), (int, _NULL), (bool,), (str,)
_STR_OR_NULL, _NUMBER = (str, _NULL), (int, float)
_NUMBER_OR_NULL = (int, float, _NULL)

#: Wire ``config`` key -> (BenuConfig field, the JSON types it takes).
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


def _check_type(label: str, value, types: Tuple[type, ...]) -> None:
    """Exact JSON type match, or an ``invalid_query`` naming ``label``."""
    if type(value) not in types:
        expected = " or ".join(
            "null" if t is _NULL else t.__name__ for t in types
        )
        raise InvalidQueryError(
            f"{label} must be {expected}, got {json.dumps(value)}"
        )


# Converters: ``(protocol, value) -> value``, run on a value of the
# declared types (never on null).  A KeyError, TypeError or ValueError
# becomes ``invalid_query`` naming the field.  A forwarding dialect (the
# router) keeps the JSON it checked, so it can pass it on; a node builds
# what its handler takes.
def _nonblank(protocol, text: str) -> str:
    if not text.strip():
        raise ValueError("must not be blank")
    return text


def _parse_edges(protocol, edges: list):
    pairs = [(int(u), int(v)) for u, v in edges]
    return edges if protocol.forwards else Graph(pairs)


def _parse_pattern(protocol, pattern):
    """A built-in pattern's name, or an edge list ``[[u, v], ...]``."""
    if type(pattern) is list:
        return _parse_edges(protocol, pattern)
    get_pattern(pattern)  # its KeyError lists the known names
    return pattern


def _parse_dataset(protocol, name: str):
    if name not in DATASET_SPECS:
        raise KeyError(
            f"unknown dataset {name!r}; known: {', '.join(DATASET_ORDER)}"
        )
    return name if protocol.forwards else load_dataset(name)


def _parse_labels(protocol, labels: dict):
    parsed = {int(v): label for v, label in labels.items()}
    return labels if protocol.forwards else parsed


def _parse_partition(protocol, raw: dict):
    info = PartitionInfo.from_dict(raw)
    return raw if protocol.forwards else info


def _parse_config(protocol, raw: dict):
    unknown = set(raw) - set(_CONFIG_FIELDS)
    if unknown:
        raise InvalidQueryError(
            f"unknown config fields: {sorted(unknown)}; "
            f"known: {sorted(_CONFIG_FIELDS)}"
        )
    kwargs = {}
    for key, value in raw.items():
        field_name, types = _CONFIG_FIELDS[key]
        _check_type(f'config field "{key}"', value, types)
        kwargs[field_name] = value
    if protocol.forwards:
        return raw
    return replace(protocol.service.default_config, **kwargs)


def _parse_version(protocol, asked: int) -> int:
    """The version a ``hello`` settles on: the client's, capped at ours."""
    if asked < 1:
        raise ValueError(f"bad protocol version {asked}")
    return min(asked, PROTOCOL_VERSION)


@dataclass(frozen=True)
class Field:
    """One request field.  ``default`` stands in for an absent field
    as is (it is not converted); an explicit null passes as None."""

    types: Tuple[type, ...]
    required: bool = False
    default: object = None
    convert: Optional[Callable] = None


_MISSING = object()
SERVE, ROUTE = "serve", "route"
BOTH = (SERVE, ROUTE)


@dataclass(frozen=True)
class Op:
    """One row of the op table: the op, who serves it, its fields."""

    name: str
    dialects: Tuple[str, ...]
    fields: Dict[str, Field] = field(default_factory=dict)
    #: At least one of these fields must be given (and not null).
    one_of: Tuple[str, ...] = ()

    def check(self, protocol, request: dict) -> dict:
        """Every declared field of ``request``, checked and converted."""
        args = {}
        for key, spec in self.fields.items():
            value = request.get(key, _MISSING)
            if value is _MISSING:
                if spec.required:
                    raise InvalidQueryError(f'{self.name} needs "{key}"')
                args[key] = spec.default
                continue
            _check_type(f'"{key}"', value, spec.types)
            if spec.convert is not None and value is not None:
                try:
                    value = spec.convert(protocol, value)
                except (KeyError, TypeError, ValueError) as exc:
                    reason = exc.args[0] if exc.args else exc
                    raise InvalidQueryError(f'bad "{key}": {reason}') from exc
            args[key] = value
        if self.one_of and all(args[key] is None for key in self.one_of):
            raise InvalidQueryError(f"{self.name} needs one of {list(self.one_of)}")
        return args


#: Fields of both ways to start a query (``submit`` and ``query``).
_RUN_FIELDS = {
    "graph": Field(_STR, default=""),
    "config": Field((dict, _NULL), convert=_parse_config),
    "limit": Field(_INT_OR_NULL),
    "deadline": Field(_NUMBER_OR_NULL),
    "deadline_at": Field(_NUMBER_OR_NULL),
}
_QUERY_ID = {"query": Field(_STR, required=True)}

#: The op table: what every op takes, and which dialects answer it.
OPS: Dict[str, Op] = {op.name: op for op in (
    Op("hello", BOTH, {"version": Field(_INT, default=1, convert=_parse_version)}),
    Op("submit", BOTH, {
        "pattern": Field((str, list), required=True, convert=_parse_pattern),
        "stream": Field(_BOOL, default=True),
        **_RUN_FIELDS,
    }),
    Op("query", BOTH, {
        "text": Field(_STR, required=True, convert=_nonblank),
        **_RUN_FIELDS,
    }),
    Op("poll", BOTH, {
        **_QUERY_ID,
        "limit": Field(_INT, default=256),
        "cursor": Field(_INT_OR_NULL),
        "wait": Field(_NUMBER, default=0),
    }),
    Op("cancel", BOTH, _QUERY_ID),
    Op("health", BOTH),
    Op("stats", BOTH),
    Op("metrics", BOTH, {"format": Field(_STR_OR_NULL)}),
    Op("events", BOTH, {
        "type": Field(_STR_OR_NULL),
        "query": Field(_STR_OR_NULL),
        "limit": Field(_INT_OR_NULL),
    }),
    Op("graphs", (SERVE,)),
    Op("register", BOTH, {
        "name": Field(_STR, required=True, convert=_nonblank),
        "dataset": Field(_STR_OR_NULL, convert=_parse_dataset),
        "edges": Field((list, _NULL), convert=_parse_edges),
        "relabel": Field(_BOOL, default=True),
        "replace": Field(_BOOL, default=False),
        "partition": Field((dict, _NULL), convert=_parse_partition),
        "unpartitioned": Field(_BOOL, default=False),
        "labels": Field((dict, _NULL), convert=_parse_labels),
    }, one_of=("dataset", "edges")),
    Op("queries", (SERVE,)),
    Op("shutdown", BOTH, {"shards": Field(_BOOL, default=False)}),
)}


# ---------------------------------------------------------------- dispatch
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


def dispatch(protocol, line: str) -> dict:
    """One request line against ``protocol``'s dialect of :data:`OPS`.

    The single dispatcher behind every protocol front-end: parse, look
    the op up, check its fields, run ``_op_<name>`` on the checked
    values, and map whatever it raises onto the typed error response.
    """
    try:
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InvalidQueryError(f"bad JSON: {exc}") from exc
        if not isinstance(request, dict) or "op" not in request:
            raise InvalidQueryError('requests are objects with an "op" field')
        name = request["op"]
        op = OPS.get(name) if type(name) is str else None
        if op is None or protocol.dialect not in op.dialects:
            raise InvalidQueryError(f"unknown op {name!r}")
        response = getattr(protocol, "_op_" + name)(op.check(protocol, request))
        response.setdefault("ok", True)
        return response
    except Exception as exc:  # noqa: BLE001 — protocol boundary
        return _error_response(exc)


class WireProtocol:
    """One connection's request handler, either dialect.

    A dialect names itself (``dialect``, ``role``), says who it is
    (``identity_fields``) and how busy (``running``) — what ``hello`` and
    ``health`` report — and adds its own ``_op_<name>`` handlers.  Each
    defines ``handle_line_json`` itself, so the two are timed apart.
    """

    dialect: str
    role: str
    #: Converters keep the JSON they checked (a hop that passes it on).
    forwards = False
    shutdown_requested = False

    def handle_line(self, line: str) -> dict:
        return dispatch(self, line)

    def identity_fields(self) -> dict:
        return {}

    def close(self) -> None:
        """The connection is gone."""

    def health(self) -> dict:
        """The ``health`` op's body: cheap liveness, no catalog access.

        Deliberately minimal — the router's circuit breaker probes this
        on possibly-sick nodes, so it must not touch any lock or state a
        wedged query could be holding.
        """
        return {
            "status": "serving",
            "role": self.role,
            "running": self.running,
            **self.identity_fields(),
        }

    def _op_hello(self, args: dict) -> dict:
        """Version/role handshake (v2).  Optional: v1 clients skip it."""
        return {
            "version": args["version"],
            "server_version": PROTOCOL_VERSION,
            "role": self.role,
            **self.identity_fields(),
            "capabilities": list(CAPABILITIES),
        }

    def _op_health(self, args: dict) -> dict:
        return self.health()

    def _op_shutdown(self, args: dict) -> dict:
        self.shutdown_requested = True
        return {"bye": True}


class ServiceProtocol(WireProtocol):
    """A node's dialect: one JSON request in, one response out.

    ``identity`` binds the handler to a shard of a deployment: ``hello``
    reports it, and ``register`` defaults to partitioning the graph by
    it (so a router can broadcast one register request to every shard
    and each keeps only its slice of the task space).
    """

    dialect = SERVE

    def __init__(
        self,
        service: BenuService,
        identity: Optional[ShardIdentity] = None,
    ) -> None:
        self.service = service
        self.identity = identity
        self.role = "shard" if identity is not None else "node"

    def handle_line_json(self, line: str) -> str:
        return encode_response(dispatch(self, line))

    @property
    def running(self) -> int:
        return self.service.scheduler.running

    def identity_fields(self) -> dict:
        return self.identity.to_dict() if self.identity is not None else {}

    # ------------------------------------------------------------------ ops
    def _op_submit(self, args: dict) -> dict:
        handle = self.service.submit(
            args["pattern"],
            args["graph"],
            config=args["config"],
            stream=args["stream"],
            limit=args["limit"],
            deadline_seconds=args["deadline"],
            deadline_at=args["deadline_at"],
        )
        return {"query": handle.query_id, "status": handle.status.value}

    def _op_query(self, args: dict) -> dict:
        """Submit a BENU-QL text query (v2): the reply adds the result
        shape (``kind`` / ``columns``); results flow through ``poll`` as
        for ``submit``, GROUP BY counts in the final ``groups`` field."""
        handle = self.service.submit_query(
            args["text"],
            args["graph"],
            config=args["config"],
            limit=args["limit"],
            deadline_seconds=args["deadline"],
            deadline_at=args["deadline_at"],
        )
        return {
            "query": handle.query_id,
            "status": handle.status.value,
            "kind": handle.lang_kind,
            "columns": list(handle.lang_columns or ()),
        }

    def _op_poll(self, args: dict) -> dict:
        handle = self.service.query(args["query"])
        wait = args["wait"]
        if wait and not handle.streaming:
            handle.wait(timeout=wait)
        response = handle.describe()
        if handle.streaming:
            page = handle.fetch(
                limit=args["limit"], cursor=args["cursor"], wait=wait
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
                    telemetry = result.telemetry
                    if telemetry is not None:
                        # Per-shard execution counters a router sums;
                        # instruction counts are per-task deterministic,
                        # so shard slices add up to the single-node run.
                        response["telemetry"] = {
                            "instruction_counts": dict(telemetry.instruction_counts),
                        }
        return response

    def _op_cancel(self, args: dict) -> dict:
        handle = self.service.cancel(args["query"])
        return {"query": handle.query_id, "status": handle.status.value}

    def _op_stats(self, args: dict) -> dict:
        return {"stats": self.service.stats()}

    def _op_metrics(self, args: dict) -> dict:
        """Metrics export: Prometheus text, or the registry dict (v2).

        ``{"format": "json"}`` returns :meth:`MetricsRegistry.as_dict` —
        the structured form a router merges across shards.
        """
        if args["format"] == "json":
            return {"metrics": self.service.registry.as_dict()}
        return {"metrics": render_prometheus(self.service.registry)}

    def _op_events(self, args: dict) -> dict:
        """Recent lifecycle events, optionally filtered."""
        rows = self.service.events.as_dicts(
            type=args["type"], query_id=args["query"], limit=args["limit"]
        )
        return {
            "events": rows,
            "emitted": self.service.events.emitted,
            "dropped": self.service.events.dropped,
        }

    def _op_graphs(self, args: dict) -> dict:
        return {
            "graphs": self.service.catalog.names(),
            "catalog_bytes": self.service.catalog.memory_bytes(),
        }

    def _op_register(self, args: dict) -> dict:
        if args["dataset"] is not None:
            graph, relabel = args["dataset"], False  # pre-relabeled
        else:
            graph, relabel = args["edges"], args["relabel"]
        partition = args["partition"]
        if (
            partition is None
            and self.identity is not None
            and not args["unpartitioned"]
        ):
            # A shard node partitions every registration by its identity
            # unless the client explicitly asked for a full copy.
            partition = self.identity.partition_info()
        return self.service.register_graph(
            args["name"],
            graph,
            relabel=relabel,
            replace=args["replace"],
            partition=partition,
            labels=args["labels"],
        )

    def _op_queries(self, args: dict) -> dict:
        return {
            "queries": [
                h.describe() for h in self.service.queries().values()
            ]
        }


# ---------------------------------------------------------------------- I/O
def serve_stdio(
    protocol: WireProtocol,
    in_stream: Optional[TextIO] = None,
    out_stream: Optional[TextIO] = None,
) -> int:
    """Serve ``protocol`` over stdio until EOF or a shutdown op."""
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
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
        protocol = self.server.new_protocol()  # type: ignore[attr-defined]
        try:
            serve_connection(self, protocol)
        finally:
            protocol.close()


class ServiceTCPServer(socketserver.ThreadingTCPServer):
    """A local TCP server speaking the line protocol, one protocol per
    connection (closed when the peer goes).

    ``service`` is a :class:`BenuService` — each connection gets a
    :class:`ServiceProtocol` bound to ``identity`` — or a zero-argument
    protocol factory, e.g. ``lambda: RouterProtocol(router)``.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address,
        service,
        identity: Optional[ShardIdentity] = None,
    ) -> None:
        super().__init__(address, _ProtocolTCPHandler)
        self.new_protocol = (
            partial(ServiceProtocol, service, identity=identity)
            if isinstance(service, BenuService) else service
        )


def serve_socket(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    identity: Optional[ShardIdentity] = None,
):
    """A bound (not yet serving) TCP server; caller runs serve_forever."""
    return ServiceTCPServer((host, port), service, identity=identity)
