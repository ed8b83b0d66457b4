"""The six workloads, driven end to end with tracing off.

Every workload has the same run shape: set the deployment up (several
times, each timed; the last one is kept), run one untimed warm-up pass so
plan caches, worker pools and lazy initialisation are done, then run P
measured passes over a fixed, seeded work list.  A pass is a closed loop:
each client sends its next operation only after the previous answer is
complete.  Answers are kept raw during a pass and checked against the
pinned oracle after the deployment is gone, so checking costs the
measured phase nothing.
"""

from __future__ import annotations

import itertools
import os
import random
import statistics
import threading
import time
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
from check import Checker
from inputs import Op
from procs import (
    Deployment,
    LineClient,
    child_pids,
    self_cpu_seconds,
    self_peak_rss_mb,
    shm_segments,
)

NPROC = os.cpu_count() or 1
GRAPH_NAME = "g"
PAGE = 1024
EMPTY_POLL_SLEEP = 0.002
#: Every pass of a mix takes fresh cold and renumbered patterns from pools
#: of fixed size (inputs.cold_pool), so the number of passes is capped.
MAX_PASSES = 14


@dataclass
class Answer:
    """What one operation returned, kept raw until the pass is over."""

    op: Op
    latency: float = 0.0
    ttfr: float = 0.0
    error: Optional[str] = None
    count: Optional[int] = None
    groups: Optional[dict] = None
    rows: Optional[list] = None  # LIMIT streams: few rows, kept as lists
    flat: Optional[array] = None  # full streams: packed ids
    width: int = 0
    pages: int = 0
    empty_polls: int = 0
    wire_bytes: int = 0
    result: object = None  # the BenuResult, when the run was in-process

    @property
    def results(self) -> int:
        """Matches this answer reported: counted, bucketed or as rows."""
        if self.flat is not None:
            return len(self.flat) // max(self.width, 1)
        if self.rows is not None:
            return len(self.rows)
        if self.groups is not None:
            return sum(self.groups.values())
        return self.count or 0


@dataclass
class PassResult:
    wall_s: float
    answers: List[Answer]
    cpu_s: float = 0.0  # of the system under test, over this pass
    slowdown: float = 1.0  # Workload.slowdown() around this pass


def check_answer(checker: Checker, answer: Answer) -> bool:
    if answer.error is not None:
        return False
    template = answer.op.template
    if template.limit is not None:
        return checker.limited(template, answer.rows or [])
    if template.kind == "count":
        return checker.count(template, answer.count)
    if template.kind == "groups":
        return checker.groups(template, answer.groups)
    return checker.rows(template, answer.flat, answer.width)


# --------------------------------------------------------------- clients
def run_wire_op(client: LineClient, op: Op) -> Answer:
    """One operation over the wire: submit, then poll to completion."""
    answer = Answer(op)
    template = op.template
    bytes0 = client.bytes_in
    t0 = time.perf_counter()
    try:
        request = {"op": "query", "text": op.text, "graph": GRAPH_NAME}
        if template.limit is not None:
            request["limit"] = template.limit
        reply = client.ask(request)
        if not reply.get("ok"):
            raise RuntimeError(f"{reply.get('error')}: {reply.get('message')}")
        if reply.get("kind") != template.kind:
            raise RuntimeError(f"kind {reply.get('kind')!r}, not {template.kind!r}")
        query = reply["query"]
        if template.kind == "stream":
            _drain_stream(client, query, answer, t0)
        else:
            while True:
                reply = client.ask({"op": "poll", "query": query, "wait": 10.0})
                if not reply.get("ok"):
                    raise RuntimeError(
                        f"{reply.get('error')}: {reply.get('message')}"
                    )
                if reply.get("done"):
                    break
            answer.count = reply.get("count")
            answer.groups = reply.get("groups")
            answer.ttfr = time.perf_counter() - t0
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        answer.error = f"{type(exc).__name__}: {exc}"
    answer.latency = time.perf_counter() - t0
    answer.wire_bytes = client.bytes_in - bytes0
    return answer


def _drain_stream(client: LineClient, query: str, answer: Answer, t0: float) -> None:
    limited = answer.op.template.limit is not None
    flat = array("q")
    rows: list = []
    cursor = 0
    while True:
        page = client.ask(
            {"op": "poll", "query": query, "limit": PAGE, "cursor": cursor}
        )
        if not page.get("ok"):
            raise RuntimeError(f"{page.get('error')}: {page.get('message')}")
        matches = page["matches"]
        answer.pages += 1
        if matches:
            if not answer.ttfr:
                answer.ttfr = time.perf_counter() - t0
                answer.width = len(matches[0])
            if limited:
                rows.extend(matches)
            else:
                flat.extend(itertools.chain.from_iterable(matches))
        else:
            answer.empty_polls += 1
        cursor = page.get("cursor", cursor)
        if page.get("done"):
            break
        if not matches:
            time.sleep(EMPTY_POLL_SLEEP)
    if not answer.ttfr:
        answer.ttfr = time.perf_counter() - t0
    if limited:
        answer.rows = rows
    else:
        answer.flat = flat


# ------------------------------------------------------- reference speed
#: What ``reference_s`` reads when this box's vCPU runs at its full speed.
#: It rarely does: pinned to either vCPU, 250 readings over 90 s fell on
#: steps near 12, 15, 20 and 25 ms (median 18.5), each held for seconds, and
#: the two vCPUs' steps were hardly correlated (r = 0.24).
REFERENCE_FULL_SPEED_S = 0.012
_REFERENCE_ROWS = [
    frozenset(random.Random(i).sample(range(4000), 60)) for i in range(64)
]


def reference_s() -> float:
    """Seconds a fixed pure-python loop takes on this thread, right now:
    set intersections and list appends, as an enumeration does; the better
    of two readings."""
    rows = _REFERENCE_ROWS
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        total = 0
        for i in range(12000):
            total += len(rows[i & 63] & rows[(i * 7) & 63])
        out = []
        for i in range(30000):
            out.append(i ^ total)
        best = min(best, time.perf_counter() - t0)
    return best


# ------------------------------------------------------------- workloads
@dataclass
class Workload:
    """Static description of one workload."""

    name: str
    graph: str
    #: Seconds one pass takes on the reference box; fixes P from --seconds
    #: so that the work, and with it every exact counter, repeats.
    nominal_pass_s: float
    ops_per_pass: int = 0  # mix only
    quick_ops_per_pass: int = 0
    #: Set-ups per run; setup_s is their median.
    setups: int = 3

    def passes(self, seconds: float, quick: bool) -> int:
        if quick:
            return 1
        return min(MAX_PASSES, max(2, round(seconds / self.nominal_pass_s)))

    def work(self, seed: int, passes: int, quick: bool) -> List[List[Op]]:
        """``passes`` work lists; the first is the warm-up."""
        raise NotImplementedError

    def setup(self, graph: inputs.SeededGraph, ops: Sequence[Op]):
        """Bring the deployment up until it could take ``ops``."""
        raise NotImplementedError

    def teardown(self, state) -> None:
        raise NotImplementedError

    def run_pass(self, state, ops: Sequence[Op]) -> PassResult:
        raise NotImplementedError

    def cpu_seconds(self, state) -> float:
        raise NotImplementedError

    def peak_rss_mb(self, state) -> float:
        raise NotImplementedError

    def slowdown(self) -> float:
        """How much slower than at full speed the thread that does the
        timed work runs right now; 1.0 where that cannot be read."""
        return 1.0


@dataclass
class EnumWorkload(Workload):
    """In-process engine runs: no language, service, shard or wire."""

    #: False: count-only on the compiled single-thread backend with an
    #: evicting cache; True: full rows over the process backend into a sink.
    rows: bool = False
    #: An in-process set-up is 20 ms, so a median can have many of them.
    setups: int = 25

    def work(self, seed, passes, quick):
        ops = inputs.stream_ops(seed) if self.rows else inputs.compiled_ops(seed)
        return [ops] * passes

    def config(self, graph: inputs.SeededGraph):
        from repro.engine.config import BenuConfig

        if self.rows:
            return BenuConfig(
                execution_backend="process", adjacency_backend="csr",
                num_workers=NPROC,
            )
        # A quarter of the adjacency bytes (csr prices a row at 8 bytes per
        # neighbour): the working set does not fit, the cache evicts.
        adjacency_bytes = 2 * len(graph.edges) * 8
        return BenuConfig(
            execution_backend="simulated", adjacency_backend="csr",
            cache_capacity_bytes=adjacency_bytes // 4,
        )

    def setup(self, graph, ops):
        from repro.engine.benu import prepare_data, prepare_plan
        from repro.engine.cluster import SimulatedCluster
        from repro.graph.graph import Graph
        from repro.graph.patterns import get_pattern
        from repro.lang import lower_query
        from repro.pattern.pattern_graph import PatternGraph

        config = self.config(graph)
        prepared = prepare_data(Graph(map(tuple, graph.edges)), config)
        cluster = None
        if config.execution_backend == "simulated":
            cluster = SimulatedCluster(prepared.graph, config)
        else:
            prepared.graph.csr()  # the packed arrays the pool will share
        plans: Dict[str, object] = {}

        def plan_for(op: Op):
            """(plan, projection) of an operation, planned once."""
            key = op.name or op.template.key
            if key not in plans:
                if op.name:
                    pattern, projection = PatternGraph(get_pattern(op.name), op.name), None
                else:
                    lowered = lower_query(op.text)
                    pattern, projection = lowered.pattern, lowered.projection
                plans[key] = prepare_plan(pattern, prepared, config), projection
            return plans[key]

        shm_before = shm_segments()
        for op in ops:  # plan search is set-up here; the mixes pay it per query
            plan_for(op)
        return {
            "config": config, "prepared": prepared, "cluster": cluster,
            "plan_for": plan_for, "shm": shm_before,
        }

    def teardown(self, state) -> None:
        children = child_pids()
        leaked = shm_segments() - state["shm"]
        if children or leaked:
            raise RuntimeError(
                f"{self.name}: left behind pids {children}, shm {leaked}"
            )

    def run_pass(self, state, ops, recorder=None):
        """One pass; ``recorder`` (traced replays only) gets a root span
        per operation."""
        from repro.engine import benu

        answers = []
        t_pass = time.perf_counter()
        for i, op in enumerate(ops):
            answer = Answer(op)
            plan, projection = state["plan_for"](op)
            root = recorder.operation(i) if recorder else nullcontext()
            t0 = time.perf_counter()
            try:
                with root:
                    if self.rows:
                        sink = _PackingSink(t0, projection)
                        result = benu.execute_plan(
                            plan, state["prepared"], state["config"], sink=sink
                        )
                        answer.flat, answer.width = sink.flat, sink.width
                        answer.ttfr = sink.first or (time.perf_counter() - t0)
                    else:
                        result = benu.execute_plan(
                            plan, state["prepared"], state["config"],
                            cluster=state["cluster"],
                        )
                        answer.count = result.count
                        answer.ttfr = time.perf_counter() - t0
                    answer.result = result
            except Exception as exc:  # noqa: BLE001 - a failed op, reported
                answer.error = f"{type(exc).__name__}: {exc}"
            answer.latency = time.perf_counter() - t0
            answers.append(answer)
        return PassResult(time.perf_counter() - t_pass, answers)

    def cpu_seconds(self, state) -> float:
        return self_cpu_seconds()

    def peak_rss_mb(self, state) -> float:
        return self_peak_rss_mb()

    def slowdown(self) -> float:
        """Set-up, and on the compiled backend the whole pass, run on this
        very thread, so a reference loop on it reads the speed they ran at.
        Dividing by it halved enum_compiled's spread over ten runs (wall_s
        19 % -> 10 %); the served workloads' work is in other processes, on
        whichever vCPU, and the same division did nothing for them."""
        return reference_s() / REFERENCE_FULL_SPEED_S


class _PackingSink:
    """The parent-side consumer of enum_process: packs rows as they land."""

    def __init__(self, t0: float, projection: Optional[Tuple[int, ...]]) -> None:
        self.flat = array("q")
        self.width = 0
        self.first = 0.0
        self._t0 = t0
        self._projection = projection

    def emit(self, match) -> None:
        if not self.first:
            self.first = time.perf_counter() - self._t0
            self.width = len(self._projection or match)
        if self._projection is not None:
            match = [match[i] for i in self._projection]
        self.flat.extend(match)


@dataclass
class ServedWorkload(Workload):
    """Real ``benu serve`` / ``benu route`` processes over TCP."""

    serve_options: Tuple[str, ...] = ()
    routed: bool = False
    clients: int = 1
    mix: bool = False

    def work(self, seed, passes, quick):
        if not self.mix:
            return [inputs.stream_ops(seed)] * passes
        n = self.quick_ops_per_pass if quick else self.ops_per_pass
        return inputs.mix_passes(seed, n, passes)

    def setup(self, graph, ops):
        deployment = Deployment(self.name)
        try:
            if self.routed:
                shards = [
                    deployment.serve(
                        "--shard-index", str(i), "--shard-count", "2",
                        *self.serve_options,
                    )
                    for i in range(2)
                ]
                port = deployment.route(shards)
            else:
                port = deployment.serve(*self.serve_options)
            clients = [LineClient(port) for _ in range(self.clients)]
            request = {"op": "register", "name": GRAPH_NAME, "edges": graph.edges}
            if graph.labels is not None:
                request["labels"] = graph.labels
            reply = clients[0].ask(request)
            if not reply.get("ok"):
                raise RuntimeError(f"register failed: {reply}")
        except BaseException:
            deployment.close()
            raise
        return {"deployment": deployment, "clients": clients}

    def teardown(self, state) -> None:
        for client in state["clients"]:
            client.close()
        state["deployment"].close()

    def run_pass(self, state, ops):
        deployment: Deployment = state["deployment"]
        answers: List[Optional[Answer]] = [None] * len(ops)
        cursor = itertools.count()
        lock = threading.Lock()

        def worker(client: LineClient) -> None:
            while True:
                with lock:
                    i = next(cursor)
                if i >= len(ops):
                    return
                if not deployment.alive():
                    # A dead server fails what is left at once; no
                    # operation waits out a socket timeout for it.
                    answers[i] = Answer(ops[i], error="server process died")
                    continue
                answers[i] = run_wire_op(client, ops[i])

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(client,), daemon=True)
            for client in state["clients"]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return PassResult(time.perf_counter() - t0, answers)

    def cpu_seconds(self, state) -> float:
        return state["deployment"].cpu_seconds()

    def peak_rss_mb(self, state) -> float:
        return state["deployment"].peak_rss_mb()


_CSR = ("--adjacency-backend", "csr")

#: Concurrent client connections against ``benu route`` give wrong counts
#: (its handler threads share the shard connections unlocked; seen at
#: fdabbd1: triangle count 280 read back as 1076 and 1449 with two
#: clients), so the routed workloads use one client until that is fixed.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        EnumWorkload("enum_compiled", "mid", 1.1),
        EnumWorkload("enum_process", "rows", 0.85, rows=True),
        ServedWorkload("serve_mix", "small", 0.9, 40, 20, setups=5, mix=True,
                       clients=NPROC),
        ServedWorkload("serve_stream", "rows", 1.2, setups=5,
                       serve_options=_CSR),
        ServedWorkload("route_mix", "small", 0.6, 40, 20, mix=True,
                       routed=True),
        ServedWorkload("route_stream", "rows", 1.3, routed=True,
                       serve_options=_CSR),
    )
}


# ----------------------------------------------------------- the run
@dataclass
class RunRecord:
    """Raw outcome of one untraced run, before metrics are derived."""

    workload: str
    setup_s: List[float]
    passes: List[PassResult]
    peak_rss_mb: float
    failed: int = 0
    failures: List[str] = field(default_factory=list)


def run_untraced(
    workload: Workload, seed: int, seconds: float, quick: bool
) -> RunRecord:
    size = "quick" if quick else "full"
    graph = inputs.seeded_graph(inputs.base_graph(workload.graph, size), seed)
    checker = Checker(graph)
    n_passes = workload.passes(seconds, quick)
    work = workload.work(seed, n_passes + 1, quick)

    setup_times = []
    state = None
    slow = workload.slowdown()
    for _ in range(1 if quick else workload.setups):
        if state is not None:
            workload.teardown(state)
        t0 = time.perf_counter()
        state = workload.setup(graph, work[0])
        took = time.perf_counter() - t0
        before, slow = slow, workload.slowdown()
        setup_times.append(took / ((before + slow) / 2))
    try:
        workload.run_pass(state, work[0])  # warm-up, untimed
        passes = []
        slow = workload.slowdown()
        for ops in work[1:]:
            cpu0 = workload.cpu_seconds(state)
            result = workload.run_pass(state, ops)
            result.cpu_s = workload.cpu_seconds(state) - cpu0
            before, slow = slow, workload.slowdown()
            result.slowdown = (before + slow) / 2
            passes.append(result)
        rss = workload.peak_rss_mb(state)
    finally:
        workload.teardown(state)

    record = RunRecord(workload.name, setup_times, passes, rss)
    for result in passes:
        for answer in result.answers:
            if not check_answer(checker, answer):
                record.failed += 1
                if len(record.failures) < 5:
                    record.failures.append(
                        f"{answer.op.template.key}: "
                        f"{answer.error or 'wrong answer'}"
                    )
    return record


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def fast_quartile(values) -> float:
    """The first quartile of the P passes' readings of one timed quantity.

    The passes do identical work, and what this box adds to them only ever
    slows a pass down: interference from its host that comes in stretches
    of seconds (README, *Noise*).  Six runs of enum_compiled in a row had
    median passes of 0.81-1.04 s and fastest passes of 0.80-0.84 s.  The
    fastest reading alone is an extreme of ten samples and was the less
    steady of the two on short operations (a 100 ms stream jitters 15 %
    from pass to pass); the first quartile keeps out slow stretches that
    cover up to three quarters of a run and still rests on several passes.
    """
    return percentile(list(values), 0.25)


def end_to_end_metrics(record: RunRecord) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of one run: name -> (value, unit).

    Every timed reading of a pass is divided by the pass's slowdown (1.0
    but on the in-process workloads, whose seconds are therefore seconds at
    full speed), then ``fast_quartile`` goes over the P passes.  Latencies
    are per work-list slot: the slot's fast quartile over the passes first
    (a slot holds the same operation, or the same kind of cold operation,
    in every pass), then the percentile over slots.  setup_s is the median
    of the set-ups, as the driver's contract asks.
    """
    passes = record.passes
    wall = fast_quartile(p.wall_s / p.slowdown for p in passes)
    slots = len(passes[0].answers)
    latency = [
        fast_quartile(p.answers[i].latency / p.slowdown for p in passes)
        for i in range(slots)
    ]
    # A mix pass draws its own cold patterns, so matches differ by pass.
    results = statistics.median(
        sum(a.results for a in p.answers) for p in passes
    )
    return {
        "setup_s": (statistics.median(record.setup_s), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (fast_quartile(p.cpu_s / p.slowdown for p in passes), "s"),
        "queries_per_s": (slots / wall, "1/s"),
        "matches_per_s": (results / wall, "1/s"),
        "latency_p95_ms": (1e3 * percentile(latency, 0.95), "ms"),
        "peak_rss_mb": (record.peak_rss_mb, "MiB"),
    }
