"""Client-facing wire protocol of the router (``benu route``).

Speaks the same line-delimited JSON dialect as a single node
(:mod:`repro.service.protocol`), so existing clients point at the
router unchanged — ``submit``/``poll``/``cancel`` behave identically,
with the fan-out and merge hidden behind one endpoint.  Router-specific
surface: ``hello`` answers with ``role: "router"`` and the deployment
shape, ``stats``/``metrics``/``events`` return cluster-wide
aggregations, and ``shutdown`` is broadcast to every shard.

Requests are dispatched, errors mapped and responses encoded by the one
implementation in :mod:`repro.service.protocol`; a stream page's rows
reach :func:`~repro.service.protocol.encode_response` as the text the
shard sent and leave as that text.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Optional, TextIO

from ..service.errors import InvalidQueryError
from ..service.protocol import (
    CAPABILITIES,
    PROTOCOL_VERSION,
    dispatch,
    encode_response,
    negotiated_version,
)
from .router import RouterQuery, ShardRouter


class RouterProtocol:
    """One JSON request in, one response out, against a ShardRouter."""

    def __init__(self, router: ShardRouter) -> None:
        self.router = router
        self.shutdown_requested = False
        self._queries: Dict[str, RouterQuery] = {}
        self._next_id = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def handle_line(self, line: str) -> dict:
        return dispatch(self, line)

    def handle_line_json(self, line: str) -> str:
        return encode_response(self.handle_line(line))

    def close(self) -> None:
        """The client is gone: cancel what it left unfinished, so no
        shard keeps a stream (and no lease a connection) open for it."""
        with self._lock:
            queries = list(self._queries.values())
        for query in queries:
            if not query.done:
                query.cancel()

    def _query(self, request: dict) -> RouterQuery:
        query_id = str(request.get("query"))
        with self._lock:
            query = self._queries.get(query_id)
        if query is None:
            raise InvalidQueryError(f"unknown router query {query_id!r}")
        return query

    def _admitted(self, query: RouterQuery, **shape) -> dict:
        """Register ``query`` under a fresh router id; the submit reply."""
        with self._lock:
            self._next_id += 1
            query_id = f"r-{self._next_id}"
            self._queries[query_id] = query
        return {
            "query": query_id,
            "status": "running",
            **shape,
            "shards": {str(k): v for k, v in query.query_ids.items()},
        }

    # ------------------------------------------------------------------ ops
    def _op_hello(self, request: dict) -> dict:
        return {
            "version": negotiated_version(request),
            "server_version": PROTOCOL_VERSION,
            "role": "router",
            "shard_count": self.router.shard_count,
            "epoch": self.router.epoch,
            "capabilities": list(CAPABILITIES),
        }

    def _op_register(self, request: dict) -> dict:
        name = request.get("name")
        if not isinstance(name, str) or not name:
            raise InvalidQueryError('"name" is required')
        fields = {
            k: v for k, v in request.items() if k not in ("op", "name")
        }
        responses = self.router.register(name, **fields)
        return {"graph": name, "shards": responses}

    def _op_submit(self, request: dict) -> dict:
        query = self.router.submit(
            request.get("pattern"),
            request.get("graph", ""),
            stream=bool(request.get("stream", True)),
            limit=request.get("limit"),
            deadline=request.get("deadline"),
            config=request.get("config"),
        )
        return self._admitted(query)

    def _op_query(self, request: dict) -> dict:
        text = request.get("text")
        if not isinstance(text, str) or not text.strip():
            raise InvalidQueryError('"text" must be a non-empty BENU-QL string')
        query = self.router.submit_query(
            text,
            request.get("graph", ""),
            limit=request.get("limit"),
            deadline=request.get("deadline"),
            config=request.get("config"),
        )
        return self._admitted(
            query, kind=query.kind, columns=list(query.columns or ())
        )

    def _op_poll(self, request: dict) -> dict:
        query = self._query(request)
        if query.stream:
            # A client's ``wait`` needs no forwarding: fetch blocks until
            # a shard has rows (its own polls carry a wait) or the end.
            page = query.fetch(limit=int(request.get("limit", 256)))
            return {
                "matches": page.matches,
                "cursor": page.cursor,
                "done": page.done,
            }
        result = query.result()  # blocks until every shard finishes
        return {"done": True, **result}

    def _op_cancel(self, request: dict) -> dict:
        query = self._query(request)
        query.cancel()
        return {"query": str(request.get("query")), "status": "cancelled"}

    def _op_health(self, request: dict) -> dict:
        return {
            "status": "serving",
            "role": "router",
            "shard_count": self.router.shard_count,
        }

    def _op_stats(self, request: dict) -> dict:
        return {"stats": self.router.stats()}

    def _op_metrics(self, request: dict) -> dict:
        return {"metrics": self.router.metrics()}

    def _op_events(self, request: dict) -> dict:
        filters = {
            k: v for k, v in request.items() if k in ("type", "query", "limit")
        }
        return {"events": self.router.events(**filters)}

    def _op_shutdown(self, request: dict) -> dict:
        if request.get("shards"):
            self.router.shutdown()
        self.shutdown_requested = True
        return {"bye": True}


def route_stdio(
    router: ShardRouter,
    in_stream: Optional[TextIO] = None,
    out_stream: Optional[TextIO] = None,
) -> int:
    """Serve the router protocol over stdio until EOF or shutdown."""
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    protocol = RouterProtocol(router)
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        out_stream.write(protocol.handle_line_json(line) + "\n")
        out_stream.flush()
        if protocol.shutdown_requested:
            break
    return 0
