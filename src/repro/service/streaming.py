"""Streaming query results: bounded buffers, handles, pagination.

A service query never materializes its full embedding list (HUGE's
bounded-memory output requirement): the executor emits matches into a
:class:`StreamBuffer` — a bounded queue of fixed-size batches — and the
client drains them through its :class:`QueryHandle`, either as an
iterator (:meth:`QueryHandle.batches` / :meth:`QueryHandle.matches`) or
with cursor pagination (:meth:`QueryHandle.fetch`), which is what the
wire protocol's ``poll`` op uses.

A batch is a :class:`~repro.engine.sinks.RowBlock` — the run hands the
buffer row blocks, and batches, pending rows and pages are only ever
sliced and joined, so a packed stream stays packed all the way to the
page a ``fetch`` returns.

Backpressure: when the buffer is full the *producer* blocks, pacing the
enumeration to the consumer.  A blocked producer still honors
cancellation — the put loop re-checks the query's control, so ``cancel``
(or a deadline) unstick it at the next tick.
"""

from __future__ import annotations

import enum
import queue
import threading
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ..engine.control import ExecutionControl, ExecutionInterrupted
from ..engine.sinks import RowBlock
from .errors import InvalidQueryError

#: End-of-stream marker (identity-compared).
_DONE = object()


class QueryStatus(str, enum.Enum):
    """Lifecycle of a service query."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    DEADLINE_EXPIRED = "deadline_expired"

    @property
    def finished(self) -> bool:
        return self not in (QueryStatus.QUEUED, QueryStatus.RUNNING)


class StreamBuffer:
    """Bounded match stream between one producer and one consumer.

    ``emit_block`` is the sink interface the execution engine calls;
    batches of ``batch_size`` matches travel through a queue holding at most
    ``max_batches`` of them, so buffered memory is bounded by
    ``batch_size × max_batches`` matches regardless of result size — or
    of the size of the blocks that arrive.
    """

    def __init__(
        self,
        batch_size: int = 256,
        max_batches: int = 64,
        control: Optional[ExecutionControl] = None,
    ) -> None:
        if batch_size < 1 or max_batches < 1:
            raise ValueError("batch_size and max_batches must be positive")
        self.batch_size = batch_size
        self.control = control
        self._queue: "queue.Queue" = queue.Queue(maxsize=max_batches)
        self._batch: Sequence[Tuple] = ()  # the partial batch
        self._closed = False
        self.count = 0  # matches emitted (producer side)

    # ----------------------------------------------------------- producer
    def _put(self, item) -> None:
        while True:
            try:
                self._queue.put(item, timeout=0.05)
                return
            except queue.Full:
                # Re-check cancellation so a stalled consumer can't wedge
                # the producer (the control raises out of the run).
                if self.control is not None:
                    self.control.check()

    def emit_block(self, block: RowBlock) -> None:
        """Cut the row stream into batches of exactly ``batch_size`` rows."""
        self.count += len(block)
        size = self.batch_size
        start = 0
        if self._batch:
            # Top the partial batch up first.
            start = size - len(self._batch)
            batch = self._batch + block[:start]
            if len(batch) < size:
                self._batch = batch
                return
            self._put(batch)
        stop = start + size
        while stop <= len(block):
            self._put(block[start:stop])
            start, stop = stop, stop + size
        self._batch = block[start:]

    def close(self) -> None:
        """Flush the partial batch and mark end-of-stream (idempotent).

        The terminal marker is guaranteed to land: if the query was
        cancelled or expired while the queue is full, buffered batches
        are dropped to make room (the results are void anyway), so no
        consumer can block forever on a dead stream.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._batch:
                self._put(self._batch)
                self._batch = ()
            self._put(_DONE)
        except ExecutionInterrupted:
            self._batch = ()
            while True:
                try:
                    self._queue.put_nowait(_DONE)
                    return
                except queue.Full:
                    try:
                        self._queue.get_nowait()
                    except queue.Empty:
                        pass

    # ----------------------------------------------------------- consumer
    def next_batch(
        self, timeout: Optional[float] = None
    ) -> Optional[Sequence[Tuple]]:
        """The next batch, ``None`` at end-of-stream.

        Raises ``queue.Empty`` when ``timeout`` elapses first.
        """
        item = self._queue.get(timeout=timeout) if timeout is not None else self._queue.get()
        if item is _DONE:
            self._queue.put(_DONE)  # keep the stream terminal for re-reads
            return None
        return item

    def poll_batch(self) -> Optional[Sequence[Tuple]]:
        """A batch if one is ready now, else ``[]``; ``None`` at end."""
        try:
            item = self._queue.get_nowait()
        except queue.Empty:
            return []
        if item is _DONE:
            self._queue.put(_DONE)
            return None
        return item


@dataclass
class FetchResult:
    """One page of matches (the ``poll`` op's payload).

    ``matches`` is a :class:`~repro.engine.sinks.RowBlock` (packed int64
    rows, or list-flat ones for string ids) — an empty page is an empty
    sequence; both read as a sequence of row tuples.
    """

    matches: Sequence[Tuple]
    cursor: int  # position *after* these matches
    done: bool

    def __iter__(self):
        return iter(self.matches)


class QueryHandle:
    """Client-side handle to a submitted query.

    The handle exposes the query's lifecycle (``status``, ``wait``,
    ``result``), its streamed matches (``batches`` / ``matches`` /
    ``fetch``) and cooperative ``cancel``.  Matches arrive already
    translated to original vertex ids.
    """

    def __init__(
        self,
        query_id: str,
        pattern_name: str,
        graph_name: str,
        control: ExecutionControl,
        buffer: Optional[StreamBuffer] = None,
        limit: Optional[int] = None,
    ) -> None:
        self.query_id = query_id
        self.pattern_name = pattern_name
        self.graph_name = graph_name
        self.control = control
        self.buffer = buffer
        self.limit = limit
        self.status = QueryStatus.QUEUED
        self.error: Optional[BaseException] = None
        #: Live progress tracker (set by the service before execution);
        #: ``None`` for handles created outside a service run.
        self.progress = None
        #: True when the stream was cut short by ``limit``.
        self.truncated = False
        #: BENU-QL annotations (set by submit_query): result shape,
        #: output column names, and GROUP BY counts when kind="groups".
        self.lang_kind: Optional[str] = None
        self.lang_columns: Optional[Tuple[str, ...]] = None
        self.lang_groups: Optional[dict] = None
        self._result = None
        self._done = threading.Event()
        self._lock = threading.Lock()
        # Pagination state (fetch): matches pulled off the stream but not
        # yet delivered, and the count delivered so far.
        self._pending: Sequence[Tuple] = []
        self._delivered = 0
        self._exhausted = False
        # One-page replay window: (cursor before the page, the page,
        # its done flag).  A client whose previous poll response was
        # lost in transit retries with the old cursor and gets the same
        # page back — at-least-once delivery over an unreliable hop
        # without ever re-running work.
        self._replay: Optional[Tuple[int, Sequence[Tuple], bool]] = None

    # ------------------------------------------------------------ lifecycle
    def _mark(self, status: QueryStatus) -> None:
        self.status = status
        if status.finished:
            self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the query finishes; True when it did."""
        return self._done.wait(timeout)

    def cancel(self, reason: str = "cancelled by client") -> None:
        """Request cooperative cancellation (noticed at a task boundary)."""
        self.control.cancel(reason)

    def result(self, timeout: Optional[float] = None):
        """The :class:`~repro.engine.results.BenuResult`, or raise.

        Re-raises the typed error for failed / cancelled /
        deadline-expired queries.  A limit-truncated stream's result
        carries the counters of every task through the chunk that filled
        the limit (its matches travelled through the stream).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"query {self.query_id} still running")
        if self.error is not None:
            raise self.error
        return self._result

    @property
    def streaming(self) -> bool:
        return self.buffer is not None

    # ------------------------------------------------------------- streaming
    def batches(self) -> Iterator[Sequence[Tuple]]:
        """Yield match batches until the stream ends (blocking)."""
        if self.buffer is None:
            raise InvalidQueryError(
                f"query {self.query_id} is a count query; no match stream"
            )
        while True:
            batch = self.buffer.next_batch()
            if batch is None:
                break
            with self._lock:
                self._delivered += len(batch)
            yield batch
        self._raise_if_abnormal()

    def matches(self) -> Iterator[Tuple]:
        """Yield matches one by one until the stream ends (blocking)."""
        for batch in self.batches():
            yield from batch

    def fetch(
        self,
        limit: int = 256,
        cursor: Optional[int] = None,
        wait: float = 0.0,
    ) -> FetchResult:
        """Up to ``limit`` matches from the current cursor.

        Non-blocking by default; with ``wait`` an otherwise empty page
        blocks up to that many seconds (never past the query's deadline)
        for the *first* batch — or the end of the stream, which a cancel
        or an expired deadline brings about — and then takes whatever
        else is already buffered.

        Streams cannot rewind — with one exception: ``cursor`` equal to
        the position *before* the most recent page re-serves that page
        verbatim (the replay window), so a client that lost the previous
        response in transit can retry the poll without losing matches.
        ``done`` goes True once the stream is exhausted *and* every
        match was delivered.
        """
        if self.buffer is None:
            raise InvalidQueryError(
                f"query {self.query_id} is a count query; no match stream"
            )
        if limit < 1:
            raise InvalidQueryError("fetch limit must be positive")
        with self._lock:
            if cursor is not None and cursor != self._delivered:
                replay = self._replay
                if replay is not None and cursor == replay[0]:
                    page, done = replay[1][:], replay[2]
                    if done:
                        self._raise_if_abnormal()
                    return FetchResult(
                        matches=page, cursor=self._delivered, done=done
                    )
                raise InvalidQueryError(
                    f"cursor {cursor} is not the stream position "
                    f"({self._delivered}); streamed results cannot rewind"
                )
            # The page is the next ``limit`` rows of the stream: slices of
            # the buffered batches, joined — never a row at a time.
            out: Sequence[Tuple] = []
            while len(out) < limit:
                if self._pending:
                    take = limit - len(out)
                    head = self._pending[:take]
                    self._pending = self._pending[take:]
                    out = out + head if out else head
                    continue
                if self._exhausted:
                    break
                batch = self.buffer.poll_batch()
                if wait and not out and batch is not None and not batch:
                    batch = self._await_batch(wait)
                if batch is None:
                    self._exhausted = True
                    break
                if not batch:
                    # Nothing buffered right now; if the query already
                    # finished, the terminal marker (or a final batch) is
                    # instants away — spin once more via blocking read.
                    if self.done:
                        try:
                            final = self.buffer.next_batch(timeout=0.25)
                        except queue.Empty:
                            break
                        if final is None:
                            self._exhausted = True
                        else:
                            self._pending = final
                        continue
                    break
                self._pending = batch
            self._delivered += len(out)
            done = self._exhausted and not self._pending
            self._replay = (self._delivered - len(out), out[:], done)
        if done:
            self._raise_if_abnormal()
        return FetchResult(matches=out, cursor=self._delivered, done=done)

    def _await_batch(self, wait: float) -> Optional[Sequence[Tuple]]:
        """``poll_batch``, but blocking up to ``wait`` seconds."""
        remaining = self.control.remaining_seconds
        if remaining is not None:
            wait = min(wait, max(remaining, 0.0))
        try:
            return self.buffer.next_batch(timeout=wait)
        except queue.Empty:
            return []

    @property
    def delivered(self) -> int:
        """Matches handed to the consumer so far.

        Read without ``_lock``: a ``fetch`` may hold it while it waits
        for rows, and neither ``describe`` nor the run's finish event
        may queue behind a blocked consumer.
        """
        return self._delivered

    def _raise_if_abnormal(self) -> None:
        """After the stream ends, surface abnormal termination.

        Failed, cancelled and deadline-expired streams re-raise their
        typed error so a consumer cannot mistake a cut-short stream for
        a complete one.  Clean truncation by ``limit`` is a success and
        raises nothing.
        """
        if self.done and self.status.finished and self.error is not None:
            raise self.error

    def describe(self) -> dict:
        """A JSON-friendly snapshot (the protocol's view of the query)."""
        out = {
            "query": self.query_id,
            "pattern": self.pattern_name,
            "graph": self.graph_name,
            "status": self.status.value,
            "streaming": self.streaming,
            "delivered": self.delivered,
            "truncated": self.truncated,
            "limit": self.limit,
            "error": str(self.error) if self.error else None,
        }
        if self.progress is not None:
            out["progress"] = self.progress.describe()
        return out
