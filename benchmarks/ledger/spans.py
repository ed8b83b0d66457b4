"""Benchmark-owned span recording around the program's public callables.

Nothing under ``src/`` knows about this module.  ``install`` rebinds a
fixed table of per-query / per-page callables - in every ``repro.*``
module namespace that imported them, and on the classes that define them -
to wrappers that record a span (name, start, end, parent, query id) into an
in-memory ``Recorder``; ``uninstall`` puts the originals back.  Per-call
hot functions (intersection kernels, ``GetAdj``) are never wrapped: a span
costs about a microsecond, which is what they cost.

``attribute`` turns the spans into the ledger: every instant of the traced
wall clock goes to exactly one span - the most recently started one that is
open and not a plain wait - or to nobody.  What goes to nobody is the
residual: time the ledger cannot name.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    t0: float
    t1: float = 0.0
    parent: int = -1
    op: int = -1  # index of the operation (work-list slot) it served
    tid: int = 0
    wait: bool = False  # blocked on another thread: never charged
    tag: str = ""


class Recorder:
    """Spans of one traced replay, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: The operation the single replay client is inside of.  Spans
        #: opened on other threads (the service's query workers) have no
        #: caller on their own stack; the operation caused them.
        self._op_span = -1
        self._op = -1

    def begin(self, name: str, wait: bool = False) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._op_span
        span = Span(name, 0.0, parent=parent, op=self._op,
                    tid=threading.get_ident(), wait=wait)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.t0 = time.perf_counter()
        return index

    def end(self, index: int, tag: str = "") -> None:
        span = self.spans[index]
        span.t1 = time.perf_counter()
        if tag:
            span.tag = tag
        self._local.stack.pop()

    @contextmanager
    def span(self, name: str, wait: bool = False) -> Iterator[int]:
        index = self.begin(name, wait)
        try:
            yield index
        finally:
            self.end(index)

    @contextmanager
    def operation(self, op: int) -> Iterator[int]:
        """The root span of one work-list slot (client thread only)."""
        self._op = op
        index = self.begin("op")
        self.spans[index].parent = -1
        self._op_span = index
        try:
            yield index
        finally:
            self.end(index)
            self._op_span = -1
            self._op = -1

    # ------------------------------------------------------------ views
    def durations(self, name: str, tag: Optional[str] = None) -> List[float]:
        return [
            s.t1 - s.t0 for s in self.spans
            if s.name == name and (tag is None or s.tag == tag)
        ]

    def to_chrome(self) -> dict:
        """The Chrome ``trace_event`` form ``validate_chrome_trace`` accepts."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(s.t0 for s in self.spans)
        tids = {}
        events = []
        for index, s in enumerate(self.spans):
            tid = tids.setdefault(s.tid, len(tids))
            events.append({
                "name": s.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (s.t0 - origin) * 1e6,
                "dur": max(0.0, s.t1 - s.t0) * 1e6,
                "args": {"id": index, "parent": s.parent, "op": s.op,
                         "wait": s.wait, "tag": s.tag},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class Charges(dict):
    """Seconds charged per (span name, tag)."""

    def of(self, name: str, tag: Optional[str] = None) -> float:
        return sum(
            seconds for (n, t), seconds in self.items()
            if n == name and (tag is None or t == tag)
        )

    def by_name(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (name, _), seconds in self.items():
            out[name] = out.get(name, 0.0) + seconds
        return out


def attribute(spans: List[Span]) -> Tuple[Charges, float, float]:
    """(seconds charged per span, seconds charged to nobody, wall).

    Wall is the union of the root ``op`` spans.  Inside it, each instant is
    charged to the open non-wait, non-root span that started last - which
    is a span's self time when everything runs on one thread, and still
    sums to the wall clock when a producer and a consumer thread overlap.
    """
    roots = [s for s in spans if s.parent == -1 and s.name == "op"]
    wall = sum(s.t1 - s.t0 for s in roots)
    events = []
    for index, s in enumerate(spans):
        if s.t1 > s.t0:
            events.append((s.t0, 1, index))
            events.append((s.t1, 0, index))
    events.sort()
    charged = Charges()
    unnamed = 0.0
    open_roots = 0
    closed = set()
    heap: List[Tuple[float, int]] = []  # (-t0, index) of open chargeable spans
    last = events[0][0] if events else 0.0
    for t, opening, index in events:
        if t > last and open_roots:
            while heap and heap[0][1] in closed:
                heapq.heappop(heap)
            if heap:
                top = spans[heap[0][1]]
                key = (top.name, top.tag)
                charged[key] = charged.get(key, 0.0) + (t - last)
            else:
                unnamed += t - last
        last = t
        s = spans[index]
        if s.parent == -1 and s.name == "op":
            open_roots += 1 if opening else -1
        elif not s.wait:
            if opening:
                heapq.heappush(heap, (-s.t0, index))
            else:
                closed.add(index)
    return charged, unnamed, wall


# ------------------------------------------------------------- wrappers
@dataclass(frozen=True)
class Target:
    """One callable to record: ``module:attr`` or ``module:Class.method``."""

    name: str  # span name, ``layer.what``
    path: str
    wait: bool = False
    #: Computes the span tag from (args, kwargs, result); e.g. the
    #: plan-cache outcome or the protocol op.
    tag: Optional[Callable] = None
    #: The callable is a generator function whose callers drain it at once;
    #: drain it inside the span so the span covers the work.
    drain: bool = False


def _shard_poll(args, kwargs, result) -> str:
    """The op a router sent a shard; a stream poll also says whether it
    brought rows (``poll+``) or came back empty (``poll-``)."""
    op = args[1].get("op", "")
    if op == "poll" and "matches" in result:
        return "poll+" if result["matches"] else "poll-"
    return op


def _protocol_op(args, kwargs, result) -> str:
    line = args[1] if len(args) > 1 else kwargs.get("line", "")
    head = line[:40]
    start = head.find('"op": "')
    return head[start + 7:].split('"', 1)[0] if start >= 0 else ""


TARGETS: Tuple[Target, ...] = (
    Target("lang.parse", "repro.lang.parser:parse_query"),
    Target("lang.rules", "repro.lang.rules:fire_rules"),
    Target("lang.lower", "repro.lang.lowering:lower_query"),
    Target("pattern.canonical", "repro.pattern.canonical:canonical_form"),
    Target("plan.cache", "repro.service.plan_cache:PlanCache.get_or_build",
           tag=lambda a, k, result: result[1]),
    Target("plan.prepare", "repro.engine.benu:prepare_plan"),
    Target("plan.search", "repro.plan.search:generate_best_plan",
           tag=lambda a, k, result: str(result.stats.explored_orders)),
    Target("plan.codegen", "repro.plan.codegen:compile_plan"),
    Target("engine.taskgen", "repro.engine.task_split:generate_tasks",
           drain=True),
    Target("engine.execute", "repro.engine.benu:execute_plan"),
    Target("engine.process",
           "repro.engine.backends.process:ProcessBackend.execute"),
    Target("service.protocol",
           "repro.service.protocol:ServiceProtocol.handle_line_json",
           tag=_protocol_op),
    Target("service.submit", "repro.service.service:BenuService.submit_query"),
    Target("service.admit", "repro.service.service:BenuService.submit"),
    Target("service.fetch", "repro.service.streaming:QueryHandle.fetch"),
    Target("service.wait", "repro.service.streaming:QueryHandle.wait",
           wait=True),
    Target("shard.protocol",
           "repro.shard.protocol:RouterProtocol.handle_line_json",
           tag=_protocol_op),
    Target("shard.submit", "repro.shard.router:ShardRouter.submit_query"),
    Target("shard.fetch", "repro.shard.router:RouterQuery.fetch"),
    Target("shard.result", "repro.shard.router:RouterQuery.result"),
    Target("shard.request", "repro.shard.client:LocalShardClient.request",
           tag=_shard_poll),
)

_MARK = "__ledger_original__"


def _wrap(fn: Callable, target: Target, recorder: Recorder) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(target.name, target.wait)
        result = None
        try:
            result = fn(*args, **kwargs)
            if target.drain:
                result = list(result)
            return result
        finally:
            tag = ""
            if target.tag is not None and result is not None:
                tag = target.tag(args, kwargs, result)
            recorder.end(index, tag)

    setattr(wrapper, _MARK, fn)
    return wrapper


def _repro_modules() -> List[object]:
    """Every module of the ``repro`` package, imported."""
    import pkgutil

    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder: Recorder, targets=TARGETS) -> None:
    """Rebind every target to a recording wrapper.

    The whole package is imported first: a module imported while the
    wrappers are in would copy a wrapper into its namespace for good.
    """
    modules = _repro_modules()
    for target in targets:
        module_name, _, attr = target.path.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = inspect.getattr_static(owner, method)
            setattr(owner, method, _wrap(original, target, recorder))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(original, target, recorder)
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)


def _wrapped_names() -> Iterator[Tuple[object, str, object]]:
    """(owner, attribute, wrapper) of every wrapper still bound in ``repro``."""
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, _MARK):
                yield module, key, value
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for method, fn in list(vars(value).items()):
                    if hasattr(fn, _MARK):
                        yield value, method, fn


def uninstall() -> None:
    """Put every original back, wherever a wrapper is bound."""
    for owner, key, wrapper in _wrapped_names():
        setattr(owner, key, getattr(wrapper, _MARK))


def still_wrapped() -> List[str]:
    """Names in ``repro.*`` that still point at a ledger wrapper."""
    return sorted(
        f"{getattr(owner, '__name__', owner)}.{key}"
        for owner, key, _ in _wrapped_names()
    )


def write_chrome(recorder: Recorder, path, extra: Optional[dict] = None) -> dict:
    trace = recorder.to_chrome()
    if extra:
        trace["ledger"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return trace
