"""Seeded, deterministic fault injection for the whole serving stack.

Robust systems are only as robust as their failure testing.  This module
is the failure-testing substrate: a registry of *named injection sites*
threaded through the hot paths — process-pool worker task entry, worker
IPC result send, shard TCP connect/read/write, scheduler admission,
catalog eviction — and a declarative, seeded schedule of
:class:`FaultRule`\\ s that decides, purely from per-site hit counters,
exactly when each site misbehaves.  The same
:class:`FaultConfig` therefore reproduces the identical fault sequence
on every run: "crash the worker on its 3rd task" or "drop the shard
connection on the 5th read" are replayable CI assertions, not flaky
hope.

Determinism rules:

* A rule fires on *hit indices* (1-based, counted per site per
  injector), never on wall clock or ambient randomness.
* The only randomness anywhere in the layer — retry backoff jitter —
  is drawn from a :class:`random.Random` seeded with the config's
  ``seed`` (string seeding hashes via SHA-512, stable across processes
  and runs).
* Recovery attempts are first-class: a rule scoped to ``attempt=0``
  (the default) injects only during the initial execution, so retried
  work completes cleanly and tests can pin "crash once, recover,
  finish with identical results".  ``attempt=None`` (spelled ``#*`` in
  the string form) fires on every attempt — the retry-exhaustion case.

Free when off: the resolved injector for "no faults configured" is the
shared :data:`NULL_INJECTOR` singleton whose :meth:`~NullFaultInjector.hit`
is a constant no-op, and every call site guards with ``injector.enabled``
— the default path costs one attribute read per *site*, never per
instruction, and ships zero extra bytes over IPC.

String schedule grammar (the ``BENU_FAULTS`` environment variable and
``FaultConfig.parse``)::

    BENU_FAULTS="worker.task:crash@3,shard.read:error@5x2"

Entries are comma- (or semicolon-) separated.  ``seed=N`` sets the
jitter seed; every other entry is ``site:action`` plus optional
suffixes, in any order:

* ``@N``  — first fire on the Nth hit of the site (default 1);
* ``xK``  — fire at most K times (default 1; consecutive hits unless
  ``/P`` gives a re-fire period);
* ``/P``  — re-fire every P hits after the first;
* ``~S``  — for ``delay``, sleep S seconds per fire (default 0.01);
* ``#A``  — recovery attempt the rule applies to (default 0, the
  initial execution; ``#*`` = every attempt).
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ACTIONS",
    "FaultConfig",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "NULL_INJECTOR",
    "NullFaultInjector",
    "SITES",
    "SITE_CATALOG_EVICT",
    "SITE_SCHEDULER_ADMIT",
    "SITE_SHARD_CONNECT",
    "SITE_SHARD_READ",
    "SITE_SHARD_WRITE",
    "SITE_WORKER_IPC",
    "SITE_WORKER_TASK",
    "get_injector",
    "resolve_faults",
]

# -- the named injection sites ----------------------------------------------
SITE_WORKER_TASK = "worker.task"        #: process-pool worker, task entry
SITE_WORKER_IPC = "worker.ipc_send"     #: worker → parent result send
SITE_SHARD_CONNECT = "shard.connect"    #: shard client TCP connect
SITE_SHARD_READ = "shard.read"          #: shard client response read
SITE_SHARD_WRITE = "shard.write"        #: shard client request write
SITE_SCHEDULER_ADMIT = "scheduler.admit"  #: service admission control
SITE_CATALOG_EVICT = "catalog.evict"    #: graph catalog eviction

#: Every site the stack threads an injector through.
SITES = (
    SITE_WORKER_TASK,
    SITE_WORKER_IPC,
    SITE_SHARD_CONNECT,
    SITE_SHARD_READ,
    SITE_SHARD_WRITE,
    SITE_SCHEDULER_ADMIT,
    SITE_CATALOG_EVICT,
)

#: What a fired rule does: kill the process (the engine's worker sites
#: always run in a pool worker; outside the engine it degrades to
#: ``error``), raise :class:`InjectedFault`, or sleep.
ACTIONS = ("crash", "error", "delay")

#: Environment variable carrying a fault schedule for CI / chaos runs.
FAULTS_ENV = "BENU_FAULTS"


class InjectedFault(ConnectionError):
    """Raised by an ``error`` rule (and by ``crash`` outside a pool worker).

    Subclasses :class:`ConnectionError` (hence :class:`OSError`) so the
    shard transport's existing ``except OSError`` failure paths treat an
    injected drop exactly like a real one.
    """

    code = "fault_injected"

    def __init__(self, site: str, hit: int, action: str = "error") -> None:
        super().__init__(f"injected {action} at {site} (hit {hit})")
        self.site = site
        self.hit = hit
        self.action = action


@dataclass(frozen=True)
class FaultRule:
    """One deterministic misbehavior: *site* does *action* on hit *at*.

    Without ``every``, the rule fires on ``times`` consecutive hits
    starting at ``at``; with ``every`` it re-fires each ``every`` hits
    after ``at``, still capped at ``times`` fires.  ``attempt`` scopes
    the rule to one recovery attempt (0 = the initial execution);
    ``None`` means every attempt.
    """

    site: str
    action: str
    at: int = 1
    every: Optional[int] = None
    times: int = 1
    attempt: Optional[int] = 0
    delay_seconds: float = 0.01

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; options: {ACTIONS}"
            )
        if self.at < 1:
            raise ValueError("fault rules fire on 1-based hit indices")
        if self.every is not None and self.every < 1:
            raise ValueError("re-fire period must be >= 1")
        if self.times < 1:
            raise ValueError("a rule must fire at least once")
        if self.delay_seconds < 0:
            raise ValueError("delay must be non-negative")

    def fires_on(self, hit: int, fired: int) -> bool:
        """Whether the rule fires on this (1-based) hit of its site."""
        if fired >= self.times or hit < self.at:
            return False
        if self.every is not None:
            return (hit - self.at) % self.every == 0
        return hit < self.at + self.times

    def to_spec(self) -> str:
        """The string-grammar form (inverse of :meth:`FaultConfig.parse`)."""
        spec = f"{self.site}:{self.action}@{self.at}"
        if self.every is not None:
            spec += f"/{self.every}"
        if self.times != 1:
            spec += f"x{self.times}"
        if self.action == "delay":
            spec += f"~{self.delay_seconds:g}"
        if self.attempt is None:
            spec += "#*"
        elif self.attempt != 0:
            spec += f"#{self.attempt}"
        return spec


def _parse_rule(entry: str) -> FaultRule:
    head, sep, tail = entry.partition(":")
    if not sep or not head or not tail:
        raise ValueError(
            f"bad fault entry {entry!r}; expected site:action[@N][/P][xK][~S][#A]"
        )
    site = head.strip()
    kwargs: Dict[str, object] = {}
    action = ""
    token = ""
    kind = None  # which suffix the current token belongs to
    _KEYS = {"@": "at", "/": "every", "x": "times", "~": "delay_seconds",
             "#": "attempt"}

    def flush() -> None:
        nonlocal action, token
        if kind is None:
            action = token.strip()
        elif kind == "attempt" and token == "*":
            kwargs["attempt"] = None
        elif kind == "delay_seconds":
            kwargs[kind] = float(token)
        else:
            kwargs[kind] = int(token)
        token = ""

    for ch in tail:
        if ch in _KEYS:
            flush()
            kind = _KEYS[ch]
        else:
            token += ch
    flush()
    return FaultRule(site=site, action=action, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultConfig:
    """A complete, immutable, picklable fault schedule.

    Picklability matters: the process backend hands the config to every
    worker it starts, so worker-side sites replay the same schedule the
    parent resolved.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Build a config from the string grammar (see module docstring).

        >>> cfg = FaultConfig.parse("seed=7; worker.task:crash@3")
        >>> (cfg.seed, cfg.rules[0].site, cfg.rules[0].at)
        (7, 'worker.task', 3)
        """
        seed = 0
        rules: List[FaultRule] = []
        for raw in spec.replace(";", ",").split(","):
            entry = raw.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                seed = int(entry[len("seed="):])
            else:
                rules.append(_parse_rule(entry))
        return cls(seed=seed, rules=tuple(rules))

    def to_spec(self) -> str:
        """Round-trip back to the string grammar."""
        parts = [f"seed={self.seed}"] if self.seed else []
        parts.extend(rule.to_spec() for rule in self.rules)
        return ",".join(parts)

    def rng(self, stream: str) -> random.Random:
        """A deterministic RNG for ``stream`` (stable across processes)."""
        return random.Random(f"benu-faults:{self.seed}:{stream}")


def resolve_faults(
    faults=None, environ=None
) -> Optional[FaultConfig]:
    """An explicit config (or spec string) wins; else ``BENU_FAULTS``."""
    if isinstance(faults, str):
        return FaultConfig.parse(faults)
    if faults is not None:
        return faults
    spec = (environ if environ is not None else os.environ).get(FAULTS_ENV)
    return FaultConfig.parse(spec) if spec else None


class FaultInjector:
    """Counts hits per site and fires the matching rules deterministically.

    ``on_fire(site, action, hit)`` is the observability hook — the
    service wires it to a ``fault_injected`` lifecycle event.  ``crash``
    passed to :meth:`hit` is what a crash rule does *here* (pool workers,
    where every worker site runs, pass ``os._exit``); without one —
    outside the engine — crash degrades to raising :class:`InjectedFault`.

    >>> inj = FaultInjector(FaultConfig.parse("shard.read:error@2"))
    >>> inj.hit("shard.read")
    >>> inj.hit("shard.read")
    Traceback (most recent call last):
        ...
    repro.faults.injector.InjectedFault: injected error at shard.read (hit 2)
    """

    enabled = True

    def __init__(
        self,
        config: FaultConfig,
        attempt: int = 0,
        on_fire: Optional[Callable[[str, str, int], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config
        self.attempt = attempt
        self.on_fire = on_fire
        self._sleep = sleep
        self._hits: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}
        #: Every fire so far, in order: ``(site, action, hit)`` — the
        #: replayable fault sequence the determinism tests compare.
        self.fired_log: List[Tuple[str, str, int]] = []

    @property
    def fired_count(self) -> int:
        return len(self.fired_log)

    def hits(self, site: str) -> int:
        """How many times ``site`` has been hit so far."""
        return self._hits.get(site, 0)

    def hit(
        self, site: str, crash: Optional[Callable[[], None]] = None
    ) -> None:
        """Register one pass through ``site``; misbehave if a rule says so."""
        n = self._hits.get(site, 0) + 1
        self._hits[site] = n
        for i, rule in enumerate(self.config.rules):
            if rule.site != site:
                continue
            if rule.attempt is not None and rule.attempt != self.attempt:
                continue
            if not rule.fires_on(n, self._fired.get(i, 0)):
                continue
            self._fired[i] = self._fired.get(i, 0) + 1
            self.fired_log.append((site, rule.action, n))
            if self.on_fire is not None:
                self.on_fire(site, rule.action, n)
            if rule.action == "delay":
                self._sleep(rule.delay_seconds)
            elif rule.action == "crash" and crash is not None:
                crash()
            else:
                raise InjectedFault(site, n, rule.action)


class NullFaultInjector:
    """Disabled injector: the whole API, none of the work."""

    enabled = False
    attempt = 0
    fired_count = 0
    fired_log: Tuple = ()

    def hits(self, site: str) -> int:
        return 0

    def hit(self, site: str, crash=None) -> None:
        return None


#: The shared disabled injector — the default at every site.
NULL_INJECTOR = NullFaultInjector()


def get_injector(
    faults: Optional[FaultConfig] = None,
    attempt: int = 0,
    on_fire: Optional[Callable[[str, str, int], None]] = None,
    environ=None,
):
    """The injector for ``faults`` (falling back to ``BENU_FAULTS``).

    Returns :data:`NULL_INJECTOR` when nothing is configured, so callers
    can hold the result unconditionally and stay free when off.
    """
    config = resolve_faults(faults, environ=environ)
    if config is None or not config.rules:
        return NULL_INJECTOR
    return FaultInjector(config, attempt=attempt, on_fire=on_fire)
