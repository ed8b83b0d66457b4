"""Cooperative execution control: cancellation, deadlines and LIMITs.

A BENU job is a loop over local search tasks; an :class:`ExecutionControl`
is the handle that lets anyone outside that loop stop it *between* tasks
(the paper's tasks are the natural preemption grain — splitting already
bounds how long one runs).  The engine calls :meth:`check` and reads
``limit_reached`` at every chunk boundary; whoever owns the query (the
service scheduler, a test) calls :meth:`cancel` or arms a deadline, and a
:class:`~repro.engine.sinks.LimitSink` sets ``limit_reached``.  A cancel
or a deadline raises and the run returns nothing; a LIMIT ends the run,
which returns its result.

Cancellation is cooperative and thread-safe: ``cancel`` may be called
from any thread while the query runs on another.
"""

from __future__ import annotations

import threading
import time
from typing import Optional


class ExecutionInterrupted(RuntimeError):
    """Base class for control-initiated stops."""

    #: Machine-readable status the service maps this interruption onto.
    status = "interrupted"


class QueryCancelled(ExecutionInterrupted):
    """The query was cancelled by its owner (client, shutdown)."""

    status = "cancelled"

    def __init__(self, reason: str = "cancelled") -> None:
        super().__init__(reason)
        self.reason = reason


class DeadlineExpired(ExecutionInterrupted):
    """The query ran past its deadline."""

    status = "deadline_expired"

    def __init__(self, deadline_seconds: float) -> None:
        super().__init__(f"deadline of {deadline_seconds:.3f}s expired")
        self.deadline_seconds = deadline_seconds


class ExecutionControl:
    """Cancel token + optional deadline + LIMIT flag, read between tasks.

    Deadlines come in two forms that compose (the earlier one wins):

    * ``deadline_seconds`` — a relative budget, armed against the local
      monotonic clock when the control is created;
    * ``deadline_at`` — an *absolute wall-clock* instant (epoch seconds,
      ``time.time()``).  This is the form a deadline takes when it
      crosses a process boundary: a router stamps one global deadline on
      a query and forwards the same instant to every shard on every hop,
      so queue time and network time anywhere debit the one shared
      budget instead of restarting it.  An already-past ``deadline_at``
      arms an *expired* control (the first check raises) rather than
      erroring — a hop that receives an exhausted budget must report
      ``deadline_expired``, not crash.

    >>> control = ExecutionControl()
    >>> control.check()  # no-op while live
    >>> control.limit_reached = True
    >>> control.check()  # a LIMIT is not an interruption
    >>> control.cancel("client went away")
    >>> control.check()
    Traceback (most recent call last):
        ...
    repro.engine.control.QueryCancelled: client went away
    """

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        deadline_at: Optional[float] = None,
    ) -> None:
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError("deadline must be positive")
        #: The absolute wall deadline (epoch seconds) to forward on the
        #: next hop; derived from ``deadline_seconds`` when only the
        #: relative form was given.
        self.deadline_at = deadline_at
        budget: Optional[float] = deadline_seconds
        if deadline_at is not None:
            remaining = deadline_at - time.time()
            budget = remaining if budget is None else min(budget, remaining)
        elif deadline_seconds is not None:
            self.deadline_at = time.time() + deadline_seconds
        self.deadline_seconds = budget
        self._deadline_at = (
            time.monotonic() + budget if budget is not None else None
        )
        self._cancelled = threading.Event()
        self._reason: str = "cancelled"
        #: Set once a LIMIT is filled: the run ends, successfully, at its
        #: next chunk boundary, counters through the chunk that filled it.
        self.limit_reached = False

    # ------------------------------------------------------------------
    def cancel(self, reason: str = "cancelled") -> None:
        """Request a stop; the running query notices at its next check."""
        self._reason = reason
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    @property
    def reason(self) -> str:
        """The reason the latest :meth:`cancel` gave."""
        return self._reason

    @property
    def expired(self) -> bool:
        return self._deadline_at is not None and time.monotonic() > self._deadline_at

    @property
    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline (None when no deadline is armed)."""
        if self._deadline_at is None:
            return None
        return self._deadline_at - time.monotonic()

    def check(self) -> None:
        """Raise the typed interruption if a cancel or the deadline landed
        (a filled LIMIT never raises)."""
        if self._cancelled.is_set():
            raise QueryCancelled(self._reason)
        if self.expired:
            raise DeadlineExpired(self.deadline_seconds)
