"""Client-facing wire protocol of the router (``benu route``).

The ``route`` dialect of :data:`~repro.service.protocol.OPS`: the same
line-delimited JSON a single node speaks, so existing clients point at
the router unchanged, with the fan-out and merge hidden behind one
endpoint.  The table says which ops the router answers and checks each
request before it fans out; :mod:`repro.service.protocol` dispatches,
maps errors and encodes responses, so this module holds only the
handlers.  Router-specific surface: ``hello`` reports the deployment
shape, ``stats``/``metrics``/``events`` aggregate the cluster, and
``shutdown`` with ``"shards": true`` is broadcast to every shard.  A
stream page's rows pass through as the text the shard sent.
"""

from __future__ import annotations

import threading
from typing import Dict

from ..service.errors import InvalidQueryError
from ..service.protocol import ROUTE, WireProtocol, dispatch, encode_response
from .router import RouterQuery, ShardRouter


class RouterProtocol(WireProtocol):
    """One JSON request in, one response out, against a ShardRouter."""

    dialect = ROUTE
    role = "router"
    forwards = True

    def __init__(self, router: ShardRouter) -> None:
        self.router = router
        self._queries: Dict[str, RouterQuery] = {}
        self._next_id = 0
        self._lock = threading.Lock()

    def handle_line_json(self, line: str) -> str:
        return encode_response(dispatch(self, line))

    def _unfinished(self) -> list:
        with self._lock:
            return [q for q in self._queries.values() if not q.done]

    @property
    def running(self) -> int:
        """This connection's queries not yet drained."""
        return len(self._unfinished())

    def identity_fields(self) -> dict:
        return {"shard_count": self.router.shard_count, "epoch": self.router.epoch}

    def close(self) -> None:
        """The client is gone: cancel what it left unfinished, so no
        shard keeps a stream (and no lease a connection) open for it."""
        for query in self._unfinished():
            query.cancel()

    def _query(self, query_id: str) -> RouterQuery:
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
    def _op_register(self, args: dict) -> dict:
        # Each shard slices a registration by its own identity.  A slot or
        # a full copy named here would be broadcast to every shard alike,
        # so all of them would own the same start vertices.
        partition, unpartitioned = args.pop("partition"), args.pop("unpartitioned")
        if partition is not None or unpartitioned:
            raise InvalidQueryError(
                "a router registers every shard's own slice: "
                '"partition" and "unpartitioned" are shard-node fields'
            )
        name = args.pop("name")
        return {"graph": name, "shards": self.router.register(name, **args)}

    def _op_submit(self, args: dict) -> dict:
        query = self.router.submit(
            args["pattern"],
            args["graph"],
            stream=args["stream"],
            limit=args["limit"],
            deadline=args["deadline"],
            config=args["config"],
        )
        return self._admitted(query)

    def _op_query(self, args: dict) -> dict:
        query = self.router.submit_query(
            args["text"],
            args["graph"],
            limit=args["limit"],
            deadline=args["deadline"],
            config=args["config"],
        )
        return self._admitted(
            query, kind=query.kind, columns=list(query.columns or ())
        )

    def _op_poll(self, args: dict) -> dict:
        query = self._query(args["query"])
        if query.stream:
            # A client's ``wait`` needs no forwarding: fetch blocks until
            # a shard has rows (its own polls carry a wait) or the end.
            page = query.fetch(limit=args["limit"], cursor=args["cursor"])
            return {
                "matches": page.matches,
                "cursor": page.cursor,
                "done": page.done,
            }
        result = query.result()  # blocks until every shard finishes
        return {"done": True, **result}

    def _op_cancel(self, args: dict) -> dict:
        self._query(args["query"]).cancel()
        return {"query": args["query"], "status": "cancelled"}

    def _op_stats(self, args: dict) -> dict:
        return {"stats": self.router.stats()}

    def _op_metrics(self, args: dict) -> dict:
        return {"metrics": self.router.metrics()}

    def _op_events(self, args: dict) -> dict:
        return {"events": self.router.events(**args)}

    def _op_shutdown(self, args: dict) -> dict:
        if args["shards"]:
            self.router.shutdown()
        return super()._op_shutdown(args)
