"""Live per-query progress: tasks done, embeddings found, monotone ETA.

A BENU query fans out into embarrassingly parallel tasks (one per start
vertex group), so *tasks completed / tasks total* is an honest progress
measure — each task carries comparable work after the LPT split, and the
count only moves forward.  The tracker extrapolates an ETA from the
measured per-task wall cost so far; both are surfaced through the
service ``poll``/``stats`` verbs and ``benu stats --watch``.

Guarantees:

* ``fraction()`` is **monotone non-decreasing** even if ``total_tasks``
  is revised upward mid-run (re-splitting) — callers never see a
  progress bar move backwards.
* Thread-safe: backends report completions from the dispatch thread
  while service clients poll concurrently.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

__all__ = ["QueryProgress", "NullProgress", "NULL_PROGRESS"]


class QueryProgress:
    """Mutable progress state for one running query.

    >>> clock = iter([0.0, 4.0]).__next__
    >>> p = QueryProgress(clock=clock)
    >>> p.set_total_tasks(4)
    >>> p.fraction()
    0.0
    >>> p.task_done(embeddings=10); p.task_done(embeddings=5)
    >>> p.fraction(), p.embeddings
    (0.5, 15)
    >>> p.eta_seconds()  # 2 tasks took 4s -> 2 remaining ~ 4s more
    4.0
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._t0 = clock()
        self.total_tasks: Optional[int] = None
        self.tasks_done = 0
        self.embeddings = 0
        self._max_fraction = 0.0

    # ------------------------------------------------------------------
    def set_total_tasks(self, total: int) -> None:
        """Announce the task count (after task generation / re-splitting)."""
        with self._lock:
            self.total_tasks = max(int(total), self.total_tasks or 0)

    def task_done(self, embeddings: int = 0, tasks: int = 1) -> None:
        """Account finished tasks (one, or a whole chunk) and their embeddings."""
        with self._lock:
            self.tasks_done += tasks
            self.embeddings += int(embeddings)

    def add_embeddings(self, embeddings: int) -> None:
        with self._lock:
            self.embeddings += int(embeddings)

    # ------------------------------------------------------------------
    def elapsed_seconds(self) -> float:
        return self._clock() - self._t0

    def fraction(self) -> float:
        """Completed fraction in [0, 1]; monotone across calls."""
        with self._lock:
            if not self.total_tasks:
                f = 0.0
            else:
                f = min(self.tasks_done / self.total_tasks, 1.0)
            # A mid-run total_tasks revision could shrink the raw ratio;
            # clamp to the highest fraction ever reported instead.
            self._max_fraction = max(self._max_fraction, f)
            return self._max_fraction

    def eta_seconds(self) -> Optional[float]:
        """Remaining wall estimate from the measured per-task cost.

        None until at least one task has finished (no rate to
        extrapolate from) or when the task count is unknown.
        """
        with self._lock:
            done, total = self.tasks_done, self.total_tasks
        if not total or done <= 0:
            return None
        remaining = max(total - done, 0)
        per_task = self.elapsed_seconds() / done
        return remaining * per_task

    def describe(self) -> Dict[str, object]:
        """JSON-able snapshot for ``poll`` responses and ``stats``."""
        with self._lock:
            done, total = self.tasks_done, self.total_tasks
            embeddings = self.embeddings
        return {
            "tasks_done": done,
            "total_tasks": total,
            "embeddings": embeddings,
            "fraction": self.fraction(),
            "eta_seconds": self.eta_seconds(),
            "elapsed_seconds": self.elapsed_seconds(),
        }


class NullProgress:
    """Disabled progress tracker (one-shot runs that nobody polls)."""

    enabled = False
    total_tasks = None
    tasks_done = 0
    embeddings = 0

    def set_total_tasks(self, total: int) -> None:
        pass

    def task_done(self, embeddings: int = 0, tasks: int = 1) -> None:
        pass

    def add_embeddings(self, embeddings: int) -> None:
        pass

    def elapsed_seconds(self) -> float:
        return 0.0

    def fraction(self) -> float:
        return 0.0

    def eta_seconds(self) -> Optional[float]:
        return None

    def describe(self) -> Dict[str, object]:
        return {}


#: Shared disabled tracker for default arguments.
NULL_PROGRESS = NullProgress()
