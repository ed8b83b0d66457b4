"""The fan-out/merge router in front of a sharded BENU deployment.

One :class:`ShardRouter` owns a set of shard clients.  At construction
it runs the v2 handshake against every node and checks the deployment's
shape: every node reports the same shard count and epoch, every
partition index ``0..N-1`` is covered, and nodes sharing an index are
*replicas* holding identical task slices.

A query fans out once — the router stamps a single absolute deadline
(``deadline_at``, epoch seconds) and submits each partition's slice to
one replica — and merges back into one client-facing stream:

* **Order** — shard streams are merged in partition-index order.
  Each shard's slice is enumerated deterministically, so the merged
  stream is a deterministic concatenation: byte-identical across runs
  and (as a set, and per-shard as a sequence) identical to a
  single-node run over the same graph.  Shards *execute* concurrently
  the whole time; a shard that fills its bounded stream buffer simply
  blocks on backpressure until the router drains it.
* **Drain** — one page in flight per shard.  Every streamed slice
  holds a :class:`~repro.shard.client.Lease`; the first ``fetch`` polls
  every shard, and each page received is answered with the next poll
  *before* it is handed on, so a shard encodes page k+1 while the
  client decodes page k and a later shard's first page is waiting when
  the merge reaches it.  Polls carry ``wait`` (the shard blocks for
  rows; nobody sleeps).  A merged page is one shard page — it never
  spans two shards — and its rows stay the text the shard encoded
  (:class:`~repro.service.protocol.EncodedRows`): the router counts
  them and passes them on.  At most one page per shard is ever held.
* **Deadline budget** — every hop forwards the same ``deadline_at``;
  shard queue time, router wait and network time all debit the one
  global budget.  Expiry anywhere surfaces as ``deadline_expired``.
* **Retries and circuit breaking** — a transient transport failure is
  retried in place with deterministic exponential backoff
  (:class:`~repro.shard.client.RetryPolicy`), every backoff debited
  against the query's global ``deadline_at``; a poll whose reply was
  lost is re-sent with its cursor unchanged and re-served from the
  shard's one-page replay window.  A replica that exhausts
  its retries is *marked dead* (``replica_marked_dead`` in the router's
  event log) and skipped by later submits and failovers until a cheap
  ``health`` probe brings it back (``replica_marked_alive``) — a simple
  circuit breaker with half-open probing.
* **Failover** — a shard that dies mid-stream is retried *once* on a
  live replica of the same partition: the slice is resubmitted with the
  unchanged deadline, the already-delivered prefix is skipped (exact
  because slice enumeration is deterministic), and the merge resumes
  where it stopped.
* **Telemetry** — per-shard counters merge with shard provenance
  labels; instruction/kernel counts are per-task deterministic, so the
  shard sums equal the single-node totals exactly.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..engine.control import DeadlineExpired, QueryCancelled
from ..lang.lowering import lower_query
from ..service.errors import InvalidQueryError, ServiceError
from ..telemetry.events import (
    EV_REPLICA_MARKED_ALIVE,
    EV_REPLICA_MARKED_DEAD,
    EventLog,
    stitch_event_dicts,
)
from ..telemetry.registry import merge_registry_dicts
from .client import (
    Lease,
    RetryPolicy,
    ShardClient,
    ShardError,
    ShardUnavailable,
)

#: How long one poll hop may block on the shard: for a count-mode query
#: to finish, for a stream's next rows.  Well under any read timeout.
_POLL_WAIT = 0.25


class RouterError(ServiceError):
    """The deployment is malformed (bad shape, epoch mismatch, ...)."""

    code = "router"


def _raise_remote(response: dict, endpoint: str) -> None:
    """Map a shard's error response onto the matching typed exception.

    Known codes get their native types; everything else raises the typed
    :class:`ShardError` fallback carrying the raw remote code and
    message — an unknown code must never fall through silently or
    collapse into an untyped bucket.
    """
    code = response.get("error", "error")
    message = str(response.get("message", code))
    if code == "deadline_expired":
        raise DeadlineExpired(0.0)
    if code == "cancelled":
        raise QueryCancelled(f"shard {endpoint}: {message}")
    raise ShardError(code, message, endpoint=endpoint)


class _Slice:
    """One partition's routed slice: which replica runs it, and progress."""

    def __init__(self, index: int, replicas: List[ShardClient]) -> None:
        self.index = index
        self.replicas = replicas
        self.client: Optional[ShardClient] = None
        self.query_id: Optional[str] = None
        self.delivered = 0  # matches already handed to the router's client
        self.done = False
        self.retried = False
        self.count: Optional[int] = None
        self.telemetry: Optional[dict] = None
        self.groups: Optional[dict] = None  # BENU-QL GROUP BY counts
        # Streams: the channel this slice's polls travel on, and the poll
        # in flight on it (re-sent verbatim when its reply is lost).
        self.lease: Optional[Lease] = None
        self.poll: Optional[dict] = None

    def send(self) -> None:
        if self.lease is None:
            self.lease = self.client.lease()
        self.lease.send(self.poll)

    def exchange(self) -> dict:
        """The reply to the poll in flight, (re)sent first if it is not."""
        if self.lease is None or not self.lease.pending:
            self.send()
        return self.lease.recv()

    def release(self) -> None:
        if self.lease is not None:
            self.lease.release()
            self.lease = None


class RouterFetchResult:
    """One merged page (mirrors the single-node ``FetchResult``)."""

    def __init__(
        self, matches: Sequence[tuple], cursor: int, done: bool
    ) -> None:
        self.matches = matches
        self.cursor = cursor
        self.done = done

    def __iter__(self):
        return iter(self.matches)


class RouterQuery:
    """Client-side handle to one fanned-out query."""

    def __init__(
        self,
        router: "ShardRouter",
        request: dict,
        slices: List[_Slice],
        deadline_at: Optional[float],
        stream: bool,
        limit: Optional[int],
        kind: Optional[str] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        self._router = router
        self._request = request  # resubmitted verbatim on failover
        self._slices = slices
        self.deadline_at = deadline_at
        self.stream = stream
        self.limit = limit
        #: BENU-QL result shape ("count" / "groups" / "stream"), or None
        #: for pattern-submitted queries.
        self.kind = kind
        self.columns = tuple(columns) if columns is not None else None
        self._current = 0  # partition index being merged
        self._cursor = 0  # total matches delivered across shards
        self._truncated = False
        self._polling = False  # the first fetch polled every shard
        # Rows of the current slice's page the client's limit left over.
        self._held: Sequence[tuple] = []

    # ------------------------------------------------------------------
    @property
    def query_ids(self) -> Dict[int, str]:
        return {s.index: s.query_id for s in self._slices}

    @property
    def done(self) -> bool:
        return self._truncated or (
            not self._held and all(s.done for s in self._slices)
        )

    def _check_budget(self) -> None:
        if self.deadline_at is not None and time.time() >= self.deadline_at:
            raise DeadlineExpired(0.0)

    def _hop(self, s: _Slice, attempt: Callable[[], dict]) -> dict:
        """One hop against a slice's replica, with one-shot failover.

        ``attempt`` goes through the router's backoff retry (budgeted
        against ``deadline_at``); only after the replica exhausts its
        retries — and is marked dead — does the slice fail over.
        """
        self._check_budget()
        try:
            response = self._router.retrying(
                s.client, attempt, self.deadline_at
            )
        except ShardUnavailable:
            self._failover(s)
            response = self._router.retrying(
                s.client, attempt, self.deadline_at
            )
        if not response.get("ok"):
            _raise_remote(response, s.client.endpoint)
        return response

    def _failover(self, s: _Slice) -> None:
        """Move a dead slice to a live replica and skip the delivered prefix.

        Exact-once delivery relies on the slice being re-enumerated in
        the same deterministic order by the replica — true on every
        execution backend, which all hand rows over in task order.
        """
        if s.retried:
            raise ShardUnavailable(
                f"partition {s.index}: replica {s.client.endpoint} died "
                "after a failover was already used"
            )
        s.retried = True
        s.release()
        dead = s.client
        self._router.mark_dead(dead, reason="failed mid-query")
        for replica in self._router.live_first(s.replicas):
            if replica is dead:
                continue
            if not self._router.is_alive(replica) and not self._router.probe(
                replica
            ):
                continue
            try:
                response = replica.request(self._request)
            except ShardUnavailable as exc:
                self._router.mark_dead(replica, reason=str(exc))
                continue
            if not response.get("ok"):
                _raise_remote(response, replica.endpoint)
            s.client = replica
            s.query_id = response["query"]
            self._skip_delivered(s)
            if s.poll is not None:
                s.poll = {**s.poll, "query": s.query_id}
            return
        raise ShardUnavailable(
            f"partition {s.index} has no live replica left"
        )

    def _skip_delivered(self, s: _Slice) -> None:
        """Drain and discard the prefix the dead replica already delivered."""
        if not self.stream or s.delivered == 0:
            return
        to_skip = s.delivered
        while to_skip > 0:
            self._check_budget()
            response = s.client.request(
                {
                    "op": "poll",
                    "query": s.query_id,
                    "limit": min(to_skip, 1024),
                    "wait": _POLL_WAIT,
                }
            )
            if not response.get("ok"):
                _raise_remote(response, s.client.endpoint)
            to_skip -= len(response.get("matches", ()))
            if response.get("done") and to_skip > 0:
                raise ShardUnavailable(
                    f"partition {s.index}: replica replayed fewer matches "
                    "than were already delivered"
                )

    # ------------------------------------------------------------- streaming
    def _room(self, limit: int) -> int:
        """``limit``, capped by what the global ``LIMIT`` still admits."""
        if self.limit is None:
            return limit
        return min(limit, self.limit - self._cursor)

    def _send_poll(self, s: _Slice, limit: int) -> None:
        """Put the slice's next poll in flight, from its acknowledged
        position."""
        # The cursor is the router's acknowledged position.  If a poll's
        # *response* is lost in transit, the re-sent request carries the
        # same cursor and the shard re-serves the lost page from its
        # replay window — no match is ever dropped by a transport
        # failure between poll and response.
        s.poll = {
            "op": "poll",
            "query": s.query_id,
            "limit": self._room(limit),
            "cursor": s.delivered,
            "wait": _POLL_WAIT,
        }
        try:
            s.send()
        except ShardUnavailable:
            pass  # the receiving hop re-sends, inside its retry budget

    def fetch(
        self, limit: int = 256, cursor: Optional[int] = None
    ) -> RouterFetchResult:
        """The next merged page, of at most ``limit`` matches.

        Blocks until a shard has rows or the stream ends.  A page is one
        shard page, or what a smaller ``limit`` cuts off one: it never
        spans two shards and may be short.  The merged stream cannot
        rewind: ``cursor``, when given, must be the position the
        previous fetch returned.
        """
        if not self.stream:
            raise InvalidQueryError("count queries have no match stream")
        if limit < 1:
            raise InvalidQueryError("fetch limit must be positive")
        if cursor is not None and cursor != self._cursor:
            raise InvalidQueryError(
                f"cursor {cursor} is not the stream position ({self._cursor});"
                " merged streams cannot rewind"
            )
        if self.limit == 0 and not self._truncated:
            self._truncate()  # LIMIT 0: nothing to poll for
        elif not self._polling:
            self._polling = True
            for s in self._slices:
                self._send_poll(s, limit)
        out: Sequence[tuple] = []
        while not out and not self.done:
            s = self._slices[self._current]
            if self._held:
                out, self._held = self._held, []
            else:
                response = self._hop(s, s.exchange)
                out = response.get("matches", [])
                s.delivered += len(out)
                s.done = bool(response.get("done"))
            room = self._room(limit)
            if len(out) > room:
                out, self._held = out[:room], out[room:]
            self._cursor += len(out)
            if self.limit is not None and self._cursor >= self.limit:
                self._truncate()
            elif self._held:
                pass  # the next poll waits until this page is handed on
            elif s.done:
                s.release()
                self._current += 1
            else:
                # The next page is on its way before this one is handed
                # on: the shard encodes it while the client decodes.
                self._send_poll(s, limit)
        return RouterFetchResult(out, self._cursor, self.done)

    def matches(self):
        """Yield merged matches until the stream ends (blocking)."""
        while True:
            page = self.fetch(limit=256)
            yield from page.matches
            if page.done:
                return

    def _truncate(self) -> None:
        """The global ``LIMIT`` is met: the stream ends here."""
        self._truncated = True
        self._cancel_rest()

    def _cancel_rest(self) -> None:
        """Best-effort cancel of slices whose results are no longer needed."""
        self._held = []
        live = [s for s in self._slices if not s.done and s.query_id is not None]
        for s in live:
            try:
                s.client.request({"op": "cancel", "query": s.query_id})
            except (ShardUnavailable, OSError):
                s.release()  # unreachable: nothing to wait for either
            s.done = True
        # Every shard has been told before any is waited for.  A poll in
        # flight is read and dropped, so its connection goes back to the
        # pool clean instead of being reset under the shard.
        for s in self._slices:
            if s.lease is not None and s.lease.pending:
                try:
                    s.lease.recv()
                except ShardUnavailable:
                    pass
            s.release()

    def cancel(self) -> None:
        self._cancel_rest()

    # ----------------------------------------------------------------- count
    def result(self) -> dict:
        """Block until every shard finishes; the exact global totals.

        Returns ``{"count", "instruction_counts", "per_shard"}`` where the
        counts are sums over shards — equal to the single-node run's,
        because instruction execution per task is deterministic and the
        task space partitions exactly.
        """
        if self.stream:
            raise InvalidQueryError(
                "streamed queries deliver through fetch(); result() is "
                "for count mode"
            )
        per_shard: List[dict] = []
        total = 0
        instruction_counts: Dict[str, int] = {}
        for s in self._slices:
            while not s.done:
                response = self._hop(
                    s,
                    lambda: s.client.request(
                        {"op": "poll", "query": s.query_id, "wait": _POLL_WAIT}
                    ),
                )
                if response.get("done"):
                    s.done = True
                    s.count = int(response.get("count", 0))
                    s.telemetry = response.get("telemetry") or {}
                    s.groups = response.get("groups")
            total += s.count or 0
            shard_counts = (s.telemetry or {}).get("instruction_counts", {})
            for instr, value in shard_counts.items():
                instruction_counts[instr] = (
                    instruction_counts.get(instr, 0) + int(value)
                )
            per_shard.append(
                {
                    "shard": s.index,
                    "endpoint": s.client.endpoint,
                    "query": s.query_id,
                    "count": s.count,
                    "retried": s.retried,
                }
            )
        out = {
            "count": total,
            "instruction_counts": instruction_counts,
            "per_shard": per_shard,
        }
        if any(s.groups is not None for s in self._slices):
            # Shard slices partition the task space, so each group key's
            # matches land on disjoint shards — summing is exact.
            groups: Dict[str, int] = {}
            for s in self._slices:
                for key, value in (s.groups or {}).items():
                    groups[key] = groups.get(key, 0) + int(value)
            out["groups"] = groups
        return out


class ShardRouter:
    """Fan-out/merge front-end over a fixed set of shard clients."""

    def __init__(
        self,
        clients: Sequence[ShardClient],
        expected_epoch: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        if not clients:
            raise RouterError("a router needs at least one shard client")
        self.clients = list(clients)
        self.shard_count: Optional[int] = None
        self.epoch: Optional[int] = None
        self.replicas: Dict[int, List[ShardClient]] = {}
        #: Per-hop retry policy for transient transport errors.
        self.retry = retry if retry is not None else RetryPolicy()
        #: The router's own lifecycle log (replica health transitions).
        self.event_log = events if events is not None else EventLog(capacity=1024)
        # Circuit-breaker state, keyed by client identity.  Absent =
        # alive; a replica only enters the map once marked dead.  Client
        # connections share one router, so transitions take the lock.
        self._alive: Dict[int, bool] = {}
        self._health_lock = threading.Lock()
        self._handshake(expected_epoch)

    # --------------------------------------------------- replica health
    def is_alive(self, client: ShardClient) -> bool:
        return self._alive.get(id(client), True)

    def mark_dead(self, client: ShardClient, reason: str = "") -> None:
        """Open the circuit: skip this replica until a probe heals it."""
        with self._health_lock:
            if not self.is_alive(client):
                return
            self._alive[id(client)] = False
        self.event_log.emit(
            EV_REPLICA_MARKED_DEAD, endpoint=client.endpoint, reason=reason
        )

    def mark_alive(self, client: ShardClient) -> None:
        if self.is_alive(client):
            return  # every successful hop lands here: no lock to take
        with self._health_lock:
            if self.is_alive(client):
                return
            self._alive[id(client)] = True
        self.event_log.emit(EV_REPLICA_MARKED_ALIVE, endpoint=client.endpoint)

    def probe(self, client: ShardClient) -> bool:
        """The half-open check: one cheap ``health`` op heals or confirms."""
        try:
            response = client.health()
        except (ShardUnavailable, OSError):
            self.mark_dead(client, reason="health probe failed")
            return False
        if response.get("ok"):
            self.mark_alive(client)
            return True
        return False

    def live_first(
        self, replicas: Sequence[ShardClient]
    ) -> List[ShardClient]:
        """Replicas reordered alive-first (dead ones last, as probes)."""
        ordered = sorted(
            replicas, key=lambda c: 0 if self.is_alive(c) else 1
        )
        return ordered

    def retrying(
        self,
        client: ShardClient,
        attempt: Callable[[], dict],
        deadline_at: Optional[float] = None,
    ) -> dict:
        """``attempt()`` against ``client``, with deterministic backoff
        on transport failures.

        Every backoff debits the query's global ``deadline_at`` budget
        (an exhausted budget raises ``DeadlineExpired``, never sleeps
        past it).  A replica that exhausts its retries is marked dead
        before the failure propagates; a success on a previously-dead
        replica heals it.
        """
        delays = list(self.retry.delays(client.endpoint))
        failures = 0
        while True:
            try:
                response = attempt()
            except ShardUnavailable as exc:
                if failures >= len(delays):
                    self.mark_dead(client, reason=str(exc))
                    raise
                self._sleep_with_budget(delays[failures], deadline_at)
                failures += 1
                continue
            self.mark_alive(client)
            return response

    def request_with_retry(
        self,
        client: ShardClient,
        body: dict,
        deadline_at: Optional[float] = None,
    ) -> dict:
        """One request through :meth:`retrying`."""
        return self.retrying(
            client, lambda: client.request(body), deadline_at
        )

    @staticmethod
    def _sleep_with_budget(
        delay: float, deadline_at: Optional[float]
    ) -> None:
        """Back off without ever outliving the global deadline."""
        if deadline_at is not None:
            remaining = deadline_at - time.time()
            if remaining <= 0:
                raise DeadlineExpired(0.0)
            delay = min(delay, remaining)
        time.sleep(delay)
        if deadline_at is not None and time.time() >= deadline_at:
            raise DeadlineExpired(0.0)

    def _handshake(self, expected_epoch: Optional[int]) -> None:
        for client in self.clients:
            hello = client.hello()
            if not hello.get("ok"):
                raise RouterError(
                    f"shard {client.endpoint} rejected the handshake: "
                    f"{hello.get('message')}"
                )
            if hello.get("role") != "shard":
                raise RouterError(
                    f"node {client.endpoint} has no shard identity; start "
                    "it with --shard-index/--shard-count"
                )
            index = hello["shard_index"]
            count = hello["shard_count"]
            epoch = hello.get("epoch", 0)
            if self.shard_count is None:
                self.shard_count = count
                self.epoch = epoch if expected_epoch is None else expected_epoch
            if count != self.shard_count:
                raise RouterError(
                    f"shard {client.endpoint} thinks the deployment has "
                    f"{count} shards, not {self.shard_count}"
                )
            if epoch != self.epoch:
                raise RouterError(
                    f"shard {client.endpoint} is at epoch {epoch}, "
                    f"expected {self.epoch} — stale node from a previous "
                    "rollout?"
                )
            self.replicas.setdefault(index, []).append(client)
        missing = [
            i for i in range(self.shard_count) if i not in self.replicas
        ]
        if missing:
            raise RouterError(
                f"deployment of {self.shard_count} shards is missing "
                f"partitions {missing}"
            )

    # ------------------------------------------------------------------
    def register(self, name: str, **fields) -> List[dict]:
        """Register a graph on *every* node (each keeps its own slice).

        ``fields`` are the register op's wire fields (``dataset`` or
        ``edges``, plus ``relabel``/``replace``).  Every replica must
        hold the graph for failover to work, so registration is a
        broadcast, and any node failing fails the whole registration.
        """
        request = {"op": "register", "name": name, **fields}
        out = []
        for client in self.clients:
            response = client.request(request)
            if not response.get("ok"):
                _raise_remote(response, client.endpoint)
            out.append(response)
        return out

    def submit(
        self,
        pattern,
        graph: str,
        stream: bool = True,
        limit: Optional[int] = None,
        deadline: Optional[float] = None,
        config: Optional[dict] = None,
    ) -> RouterQuery:
        """Fan one query out to every partition; returns the merged handle.

        ``deadline`` (seconds) is the query's *global* budget: converted
        once to an absolute instant and forwarded verbatim on every hop
        — including failover resubmissions — so no hop restarts it.
        """
        request = {
            "op": "submit", "pattern": pattern, "graph": graph, "stream": stream
        }
        return self._fan_out(request, stream, limit, deadline, config)

    def submit_query(
        self,
        text: str,
        graph: str,
        limit: Optional[int] = None,
        deadline: Optional[float] = None,
        config: Optional[dict] = None,
    ) -> RouterQuery:
        """Fan one BENU-QL query out to every partition.

        The query text is lowered locally first, so syntax and semantic
        errors surface immediately as typed :class:`QueryError`\\ s
        (with line/column) without touching the network, and the merged
        handle knows its result shape: ``kind == "stream"`` drains
        through :meth:`RouterQuery.fetch`, while ``count``/``groups``
        block in :meth:`RouterQuery.result` — the router sums per-shard
        counts (and GROUP BY buckets) exactly, because shard slices
        partition the task space.  Each shard re-lowers the same text
        against its own slice, so the wire carries only the query string.
        """
        lowered = lower_query(text)
        return self._fan_out(
            {"op": "query", "text": text, "graph": graph},
            lowered.kind == "stream",
            limit,
            deadline,
            config,
            kind=lowered.kind,
            columns=lowered.columns,
        )

    def _fan_out(
        self,
        request: dict,
        stream: bool,
        limit: Optional[int],
        deadline: Optional[float],
        config: Optional[dict],
        **shape,
    ) -> RouterQuery:
        """Add the request tail, submit to every partition, merge handle.

        ``shape`` is a BENU-QL query's ``kind`` / ``columns``.
        """
        deadline_at = time.time() + deadline if deadline is not None else None
        if limit is not None:
            # Per-shard upper bound; the router enforces the global cap.
            request["limit"] = limit
        if deadline_at is not None:
            request["deadline_at"] = deadline_at
        if config is not None:
            request["config"] = config
        slices = self._submit_slices(request, deadline_at)
        return RouterQuery(
            self, request, slices, deadline_at, stream=stream, limit=limit,
            **shape,
        )

    def _submit_slices(
        self, request: dict, deadline_at: Optional[float]
    ) -> List[_Slice]:
        """Submit ``request`` to one live replica of every partition.

        The request goes out to every partition's first live replica
        before any reply is read, so the shards parse, plan and start
        concurrently.  A partition whose hop fails — or that has no
        replica known alive — takes the sequential retry / probe path.
        """
        slices = [
            _Slice(index, self.replicas[index])
            for index in range(self.shard_count)
        ]
        flights = []
        for s in slices:
            replica = next((r for r in s.replicas if self.is_alive(r)), None)
            lease = None
            if replica is not None:
                lease = replica.lease()
                try:
                    lease.send(request)
                except ShardUnavailable:
                    lease.release()
                    lease = None
            flights.append((replica, lease))
        replies = []
        for replica, lease in flights:
            reply = None
            if lease is not None:
                try:
                    reply = lease.recv()
                except ShardUnavailable:
                    pass
                lease.release()
            replies.append(reply)
        for s, (replica, _), reply in zip(slices, flights, replies):
            if reply is None:
                self._submit_slice(s, request, deadline_at)
                continue
            if not reply.get("ok"):
                _raise_remote(reply, replica.endpoint)
            s.client = replica
            s.query_id = reply["query"]
        return slices

    def _submit_slice(
        self, s: _Slice, request: dict, deadline_at: Optional[float]
    ) -> None:
        """One partition's submit, replica by replica: retries with
        backoff, and a health probe before a replica marked dead."""
        for replica in self.live_first(s.replicas):
            if not self.is_alive(replica) and not self.probe(replica):
                continue
            try:
                response = self.request_with_retry(
                    replica, request, deadline_at=deadline_at
                )
            except ShardUnavailable:
                continue
            if not response.get("ok"):
                _raise_remote(response, replica.endpoint)
            s.client = replica
            s.query_id = response["query"]
            return
        raise ShardUnavailable(
            f"partition {s.index} has no live replica to submit to"
        )

    # ------------------------------------------------------- observability
    def _fanout(self, request: dict) -> Dict[str, dict]:
        """Send one request to every live node, keyed by endpoint."""
        out: Dict[str, dict] = {}
        for client in self.clients:
            try:
                out[client.endpoint] = client.request(request)
            except ShardUnavailable:
                out[client.endpoint] = {"ok": False, "error": "shard_unavailable"}
        return out

    def stats(self) -> dict:
        """Per-node service stats plus the deployment's shape and health."""
        return {
            "shard_count": self.shard_count,
            "epoch": self.epoch,
            "replicas": {
                client.endpoint: ("alive" if self.is_alive(client) else "dead")
                for client in self.clients
            },
            "nodes": {
                endpoint: response.get("stats", response)
                for endpoint, response in self._fanout({"op": "stats"}).items()
            },
        }

    def metrics(self) -> dict:
        """All shards' registries merged with shard provenance labels."""
        by_shard = {}
        for client in self.clients:
            try:
                response = client.request({"op": "metrics", "format": "json"})
            except ShardUnavailable:
                continue
            if response.get("ok"):
                by_shard[client.endpoint] = response["metrics"]
        return merge_registry_dicts(by_shard, label="shard")

    def events(self, **filters) -> List[dict]:
        """Every shard's event log stitched into one global timeline.

        The router's own events (replica health transitions) join the
        stitched timeline under the source key ``"router"``.
        """
        by_shard: Dict[object, list] = {}
        for client in self.clients:
            try:
                response = client.request({"op": "events", **filters})
            except ShardUnavailable:
                continue
            if response.get("ok"):
                by_shard[client.endpoint] = response["events"]
        router_rows = self.events_local(**filters)
        if router_rows:
            by_shard["router"] = router_rows
        return stitch_event_dicts(by_shard, label="shard")

    def events_local(self, **filters) -> List[dict]:
        """The router's own event rows (same filters as the events op)."""
        return self.event_log.as_dicts(
            type=filters.get("type"),
            query_id=filters.get("query"),
            limit=filters.get("limit"),
        )

    # ------------------------------------------------------------------
    def shutdown(self) -> Dict[str, dict]:
        """Ask every node to shut down (best effort)."""
        return self._fanout({"op": "shutdown"})

    def close(self) -> None:
        for client in self.clients:
            client.close()
