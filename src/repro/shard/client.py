"""Clients a router uses to talk to shard nodes.

Every client speaks the line protocol of :mod:`repro.service.protocol`
as *dicts*: ``request(obj) -> obj``.  Two transports:

* :class:`LocalShardClient` — an in-process :class:`~repro.shard.node.ShardNode`
  behind a real JSON round-trip (requests and responses are serialized
  and parsed, so tests exercise exact wire fidelity without sockets).
  Its :meth:`LocalShardClient.kill` hook makes the node unreachable,
  which is how the failure-injection tests take a shard down mid-query.
* :class:`TCPShardClient` — line-per-message TCP connections to a
  ``benu serve`` process, hardened for production: a pool from which
  every round trip checks out a connection of its own (threads never
  share a socket with a request in flight), a *connect* timeout (a
  SYN-dropped or accept-stalled shard fails fast instead of blocking
  the router until the global deadline), a separate *read* timeout for
  in-flight requests, and lazy reconnection — after any transport
  failure the socket is torn down and the next request dials fresh, so
  a router retry actually lands on a new connection.

A caller that pipelines (the router's stream drain keeps one poll in
flight per shard) holds a :class:`Lease` — ``send`` / ``recv`` on a
channel nobody else uses — instead of calling ``request``.  Responses
are decoded by :func:`decode_response`, which leaves a page of rows as
the text the shard encoded.

Transport failures raise :class:`ShardUnavailable` — the typed signal
the router's retry path keys on.  A *protocol-level* error response
(``{"ok": false, ...}``) is not a transport failure and is returned to
the caller untouched; the router maps unknown remote codes onto the
typed :class:`ShardError` fallback.

Both transports thread the deterministic fault injector through the
``shard.connect`` / ``shard.write`` / ``shard.read`` sites, so chaos
tests can drop exact connections ("the 5th read on shard 2") without
real network misbehavior.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..faults import (
    FaultConfig,
    InjectedFault,
    NULL_INJECTOR,
    SITE_SHARD_CONNECT,
    SITE_SHARD_READ,
    SITE_SHARD_WRITE,
    get_injector,
)
from ..service.errors import ServiceError
from ..service.protocol import MATCHES_KEY, EncodedRows

#: Fail a TCP dial that makes no progress this long (seconds).  Distinct
#: from the read timeout because a healthy dial is milliseconds while a
#: legitimate request (a big poll against a busy shard) can take much
#: longer — one knob cannot serve both.
DEFAULT_CONNECT_TIMEOUT = 5.0
#: Fail an in-flight request with no response this long (seconds).
DEFAULT_READ_TIMEOUT = 30.0


class ShardUnavailable(ServiceError):
    """The shard node cannot be reached (dead, killed, or disconnected)."""

    code = "shard_unavailable"


class ShardError(ServiceError):
    """A shard returned an error code the router has no typed mapping for.

    The raw remote code and message ride along (and ``code`` *is* the
    remote code, so re-serializing the error onto another protocol hop
    preserves what the shard actually said instead of collapsing every
    unknown failure into one bucket).
    """

    def __init__(self, remote_code: str, message: str, endpoint: str = "?") -> None:
        super().__init__(f"shard {endpoint}: [{remote_code}] {message}")
        self.code = remote_code
        self.remote_code = remote_code
        self.endpoint = endpoint


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff for transient shard errors.

    ``delays()`` yields the ``max_attempts - 1`` waits between attempts:
    ``base_delay * multiplier^i``, capped at ``max_delay``, each scaled
    by a jitter factor in [0.5, 1.0) drawn from a :class:`random.Random`
    seeded with ``seed`` — the same policy instance always produces the
    same delays, so retry timing is replayable in tests.
    """

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1:
            raise ValueError("multiplier must be >= 1")

    def delays(self, stream: str = "") -> Iterator[float]:
        """The waits between attempts, deterministically jittered."""
        rng = FaultConfig(seed=self.seed).rng(f"retry:{stream}")
        for i in range(self.max_attempts - 1):
            delay = min(self.base_delay * self.multiplier**i, self.max_delay)
            yield delay * (0.5 + 0.5 * rng.random())


def decode_response(line: str) -> dict:
    """One response line as a dict, its page of rows left unparsed.

    A poll response carries its rows last, behind a ``rows`` count
    (:func:`~repro.service.protocol.encode_response`): cut the line
    there, parse only the head and carry the rest as
    :class:`~repro.service.protocol.EncodedRows`.  Anything else — no
    page, or the older shape without ``rows`` — gets a full parse.
    """
    head, cut, tail = line.rstrip().rpartition(MATCHES_KEY)
    if cut and tail.endswith("]}"):
        try:
            response = json.loads(head + "}")
        except ValueError:
            return json.loads(line)
        count = response.get("rows")
        if isinstance(count, int):
            response["matches"] = EncodedRows(tail[:-1], count)
            return response
    return json.loads(line)


class Lease:
    """One request in flight to a shard, on a channel nobody else uses.

    ``send`` puts a request on the wire, ``recv`` reads its reply; in
    between, :attr:`pending` is true.  Any failure raises
    :class:`ShardUnavailable` and clears the channel, so the holder's
    retry is simply ``send`` again.  This base lease defers the round
    trip to ``recv`` (``client.request``), which is all an in-process
    client needs; :class:`TCPShardClient` leases a real connection.
    """

    def __init__(self, client: "ShardClient") -> None:
        self._client = client
        self._request: Optional[dict] = None

    @property
    def pending(self) -> bool:
        return self._request is not None

    def send(self, obj: dict) -> None:
        self._request = obj

    def recv(self) -> dict:
        obj, self._request = self._request, None
        return self._client.request(obj)

    def release(self) -> None:
        """Give the channel back; a reply still pending is abandoned."""
        self._request = None


class ShardClient:
    """Abstract request/response channel to one shard node."""

    #: Human-readable endpoint for error messages and telemetry keys.
    endpoint: str = "?"

    def request(self, obj: dict) -> dict:
        raise NotImplementedError

    def lease(self) -> Lease:
        """A channel of its own for a caller that pipelines requests."""
        return Lease(self)

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def hello(self, version: int = 2, role: str = "router") -> dict:
        """Run the v2 handshake; raises ShardUnavailable on dead nodes."""
        return self.request({"op": "hello", "version": version, "role": role})

    def health(self) -> dict:
        """The cheap liveness probe (the circuit breaker's half-open check)."""
        return self.request({"op": "health"})


class LocalShardClient(ShardClient):
    """An in-process shard node behind a faithful JSON round-trip."""

    # Class-level default so lightweight test doubles that skip
    # __init__ still get a (disabled) injector.
    _injector = NULL_INJECTOR

    def __init__(self, node, endpoint: Optional[str] = None, faults=None) -> None:
        self.node = node
        self.endpoint = endpoint or f"local:{node.identity.shard_index}"
        self._protocol = node.protocol()
        self._killed = False
        self._injector = get_injector(faults) if faults is not None else NULL_INJECTOR

    def kill(self) -> None:
        """Make the node unreachable (failure injection for tests)."""
        self._killed = True

    def revive(self) -> None:
        self._killed = False

    def request(self, obj: dict) -> dict:
        if self._killed:
            raise ShardUnavailable(f"shard {self.endpoint} is down")
        try:
            if self._injector.enabled:
                self._injector.hit(SITE_SHARD_WRITE)
            # Serialize both ways: a dict that would not survive the wire
            # must fail here too, not only over TCP.
            line = json.dumps(obj)
            response = decode_response(self._protocol.handle_line_json(line))
            if self._injector.enabled:
                self._injector.hit(SITE_SHARD_READ)
        except InjectedFault as exc:
            raise ShardUnavailable(
                f"shard {self.endpoint} connection failed: {exc}"
            ) from exc
        return response


class _Connection(Lease):
    """One TCP connection of a :class:`TCPShardClient`, as a lease.

    Dials lazily — at the first ``send``, and again after a failure tore
    the socket down — so a retry lands on a fresh connection.
    """

    def __init__(self, client: "TCPShardClient") -> None:
        self._client = client
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._pending = False

    @property
    def pending(self) -> bool:
        return self._pending

    def _dial(self) -> None:
        client = self._client
        if client._injector.enabled:
            client._injector.hit(SITE_SHARD_CONNECT)
        sock = socket.create_connection(
            (client._host, client._port), timeout=client.connect_timeout
        )
        # Past the dial, the socket clock governs reads of responses.
        sock.settimeout(client.read_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def close(self) -> None:
        for closer in (self._rfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:  # pragma: no cover - best effort teardown
                    pass
        self._rfile = self._sock = None
        self._pending = False

    def _failed(self, exc: Exception) -> ShardUnavailable:
        self.close()
        return ShardUnavailable(
            f"shard {self._client.endpoint} connection failed: {exc}"
        )

    def send(self, obj: dict) -> None:
        injector = self._client._injector
        try:
            if self._sock is None:
                self._dial()
            if injector.enabled:
                injector.hit(SITE_SHARD_WRITE)
            self._sock.sendall(json.dumps(obj).encode("utf-8") + b"\n")
        except OSError as exc:
            # InjectedFault is a ConnectionError, so deterministic drops
            # take exactly the real failure path through here.
            raise self._failed(exc) from exc
        self._pending = True

    def recv(self) -> dict:
        injector = self._client._injector
        try:
            if injector.enabled:
                injector.hit(SITE_SHARD_READ)
            line = self._rfile.readline()
        except OSError as exc:
            raise self._failed(exc) from exc
        if not line:
            raise self._failed(ConnectionError("closed by the shard"))
        self._pending = False
        return decode_response(line.decode("utf-8"))

    def release(self) -> None:
        self._client._checkin(self)


class TCPShardClient(ShardClient):
    """Line-delimited JSON connections to a ``benu serve`` TCP node.

    The client owns a pool of connections to its one endpoint.  Every
    round trip checks a connection out for itself (:meth:`request` =
    lease, send, recv, release), so no socket is ever shared by two
    requests in flight, whatever the number of threads calling in; a
    caller that pipelines — the router's stream drain — keeps its
    :meth:`lease` across round trips.

    The constructor dials eagerly (an unreachable endpoint fails at
    construction, as it always has) but connections are *re-established
    lazily*: any transport failure tears the socket down and the next
    request dials again — which is what makes a router-level retry
    against the same endpoint meaningful.
    """

    def __init__(
        self,
        host: str,
        port: int,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        faults=None,
    ) -> None:
        self.endpoint = f"{host}:{port}"
        self._host = host
        self._port = port
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None
            else DEFAULT_CONNECT_TIMEOUT
        )
        self.read_timeout = (
            read_timeout if read_timeout is not None else DEFAULT_READ_TIMEOUT
        )
        self._injector = get_injector(faults) if faults is not None else NULL_INJECTOR
        self._idle: List[_Connection] = []
        self._pool_lock = threading.Lock()
        first = _Connection(self)
        try:
            first._dial()
        except OSError as exc:
            raise ShardUnavailable(
                f"cannot connect to shard {self.endpoint}: {exc}"
            ) from exc
        self._idle.append(first)

    # ------------------------------------------------------------------
    def lease(self) -> _Connection:
        """Check a connection out of the pool (a fresh one if none idle)."""
        with self._pool_lock:
            if self._idle:
                return self._idle.pop()
        return _Connection(self)

    def _checkin(self, connection: _Connection) -> None:
        """Return a connection; one with a reply still unread is closed."""
        if connection.pending:
            connection.close()
        if connection._sock is not None:
            with self._pool_lock:
                self._idle.append(connection)

    @property
    def connected(self) -> bool:
        """Whether an established connection sits idle in the pool."""
        return bool(self._idle)

    # ------------------------------------------------------------------
    def request(self, obj: dict) -> dict:
        connection = self.lease()
        try:
            connection.send(obj)
            return connection.recv()
        finally:
            connection.release()

    def close(self) -> None:
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()
