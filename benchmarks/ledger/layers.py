"""The traced run: per-layer metrics of one workload.

The untraced run drives real processes; this one replays the same work
lists in this process - ``BenuService`` behind ``ServiceProtocol``, a
``ShardRouter`` over ``LocalShardClient``s, the process backend as one
leaf - with the span recorders of ``spans.py`` installed, reads the
program's own exact counters off the results, and times the per-call hot
functions (``GetAdj``, the cache, the intersection kernels) in isolation on
the workload's own graph, because a span would cost what they cost.
A metric a workload does not exercise is reported as 0.
"""

from __future__ import annotations

import json
import random
import socket
import statistics
import threading
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs
import spans
from check import Checker
from procs import OUT_DIR
from workloads import (
    GRAPH_NAME,
    Answer,
    ServedWorkload,
    Workload,
    check_answer,
    run_wire_op,
)

RESIDUAL_LIMIT = 0.10
Metric = Tuple[float, str]


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _time_calls(fn: Callable[[], object], calls: int, repeats: int = 5) -> float:
    """Median seconds per call of ``fn()``, which makes ``calls`` calls."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / calls)
    return statistics.median(samples)


# ------------------------------------------------------- in-process replay
def _no_span(name: str):
    return nullcontext()


class LocalClient:
    """``LineClient``'s interface over an in-process protocol handler."""

    def __init__(self, protocol) -> None:
        self._protocol = protocol
        self.recorder: Optional[spans.Recorder] = None
        self.bytes_in = 0

    def ask(self, request: dict) -> dict:
        span = self.recorder.span if self.recorder else _no_span
        with span("wire.client_encode"):
            text = json.dumps(request)
        line = self._protocol.handle_line_json(text)
        self.bytes_in += len(line) + 1
        with span("wire.client_decode"):
            return json.loads(line)


def _service_kwargs(options: Sequence[str]) -> dict:
    """``BenuService`` arguments as ``benu serve <options>`` builds them."""
    from repro.cli import build_parser
    from repro.engine.config import BenuConfig

    args = build_parser().parse_args(["serve", "--port", "0", *options])
    config = BenuConfig(
        num_workers=args.workers,
        threads_per_worker=args.threads,
        cache_capacity_bytes=args.cache_bytes,
        adjacency_backend=args.adjacency_backend,
        execution_backend=args.execution_backend,
        split_threshold=args.tau,
        optimization_level=args.level,
        task_retries=args.task_retries,
    )
    return dict(
        config=config,
        max_concurrent=args.max_concurrent,
        max_queued=args.max_queued,
    )


class ServedReplay:
    """A served workload's deployment, in this process."""

    def __init__(self, workload: ServedWorkload, graph: inputs.SeededGraph):
        from repro.service import BenuService
        from repro.service.protocol import ServiceProtocol
        from repro.shard import (
            LocalShardClient, RouterProtocol, ShardNode, ShardRouter,
        )

        kwargs = _service_kwargs(workload.serve_options)
        self.router = None
        if workload.routed:
            nodes = [ShardNode(i, 2, **kwargs) for i in range(2)]
            self.services = [node.service for node in nodes]
            self.router = ShardRouter([LocalShardClient(n) for n in nodes])
            protocol = RouterProtocol(self.router)
        else:
            self.services = [BenuService(**kwargs)]
            protocol = ServiceProtocol(self.services[0])
        self.client = LocalClient(protocol)
        request = {"op": "register", "name": GRAPH_NAME, "edges": graph.edges}
        if graph.labels is not None:
            request["labels"] = graph.labels
        t0 = time.perf_counter()
        reply = self.client.ask(request)
        self.register_s = time.perf_counter() - t0
        if not reply.get("ok"):
            raise RuntimeError(f"register failed: {reply}")

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
        for service in self.services:
            service.close()

    def run_pass(self, ops, recorder=None) -> Tuple[float, List[Answer]]:
        self.client.recorder = recorder
        answers = []
        t0 = time.perf_counter()
        try:
            for i, op in enumerate(ops):
                with recorder.operation(i) if recorder else nullcontext():
                    answers.append(run_wire_op(self.client, op))
        finally:
            self.client.recorder = None
        return time.perf_counter() - t0, answers

    def snapshot(self) -> dict:
        """The services' own counters, to difference around a pass."""
        from repro.telemetry.snapshot import M_SERVICE_REJECTED

        return {
            "handles": [set(s.queries()) for s in self.services],
            "hits": sum(s.plan_cache.hits for s in self.services),
            "misses": sum(s.plan_cache.misses for s in self.services),
            "events": sum(s.events.emitted for s in self.services),
            "rejected": sum(
                s.registry.counter_total(M_SERVICE_REJECTED)
                for s in self.services
            ),
        }

    def results(self, before: dict, answers: Sequence[Answer]) -> List[object]:
        """The ``BenuResult`` of every query a service ran since ``before``."""
        out = []
        for service, seen in zip(self.services, before["handles"]):
            for query_id, handle in service.queries().items():
                if query_id not in seen and handle.error is None:
                    result = handle.result(timeout=30)
                    if result is not None:  # None: cut short by LIMIT
                        out.append(result)
        return out

    def rtt_s(self) -> float:
        return _loopback_rtt_s(self.services[0])


class EnumReplay:
    """An in-process workload behind ``ServedReplay``'s interface."""

    register_s = 0.0

    def __init__(self, workload: Workload, graph: inputs.SeededGraph, ops):
        self.workload = workload
        self.state = workload.setup(graph, ops)

    def close(self) -> None:
        self.workload.teardown(self.state)

    def run_pass(self, ops, recorder=None) -> Tuple[float, List[Answer]]:
        outcome = self.workload.run_pass(self.state, ops, recorder)
        return outcome.wall_s, outcome.answers

    def snapshot(self) -> dict:
        return {"hits": 0, "misses": 0, "events": 0, "rejected": 0}

    def results(self, before: dict, answers: Sequence[Answer]) -> List[object]:
        return [a.result for a in answers if a.result is not None]

    def rtt_s(self) -> float:
        return 0.0


# ------------------------------------------------------- exact counters
def _sum_results(results: Sequence[object]) -> Dict[str, float]:
    """The program's own exact counters, summed over a pass's results."""
    total: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        total[key] = total.get(key, 0) + value

    for result in results:
        counters = result.counters
        add("INT", counters.int_ops)
        add("ENU", counters.enu_steps)
        add("DBQ", counters.dbq_ops)
        add("TRC", counters.trc_ops)
        add("RES", counters.results)
        add("tasks", result.num_tasks)
        add("getadj_calls", result.communication.queries)
        add("getadj_bytes", result.communication.bytes_transferred)
        add("cache_hits", result.cache.hits)
        add("cache_misses", result.cache.misses)
        add("cache_evictions", result.cache.evictions)
        for kernel, calls in result.kernel_counts.items():
            add("kernel_calls", calls)
            if kernel == "vector":
                add("kernel_vector", calls)
        add("shm_bytes", result.shm_bytes)
        add("task_wall", result.mean_task_wall_seconds * result.num_tasks)
        add("worker_wall", result.num_workers * result.wall_seconds)
    return total


# ------------------------------------------------------ isolated timings
def _hot_function_seconds(prepared, layout: str, seed: int) -> Dict[str, float]:
    """Per-call seconds of the functions too hot to wrap, on this graph."""
    from repro.kernels.intersect import intersect_views
    from repro.storage.cache import LRUDatabaseCache
    from repro.storage.kvstore import DistributedKVStore

    graph = prepared.graph
    rng = random.Random(f"hot:{seed}")
    keys = [rng.choice(graph.vertices) for _ in range(2000)]
    store = DistributedKVStore.from_graph(graph, backend=layout)
    cache = LRUDatabaseCache(store)
    for key in keys:
        cache.get(key)
    get, cached = store.get, cache.get
    out = {
        "getadj": _time_calls(lambda: [get(k) for k in keys], len(keys)),
        "cache_get": _time_calls(lambda: [cached(k) for k in keys], len(keys)),
        "balanced": 0.0,
        "skewed": 0.0,
    }
    if layout != "csr":
        return out  # frozenset rows intersect with ``&``: no kernel to time
    csr = graph.csr()
    pairs: Dict[str, list] = {"balanced": [], "skewed": []}
    edges = list(graph.edges())
    rng.shuffle(edges)
    for u, v in edges:
        low, high = sorted((csr.degree(u), csr.degree(v)))
        kind = (
            "balanced" if high < 4 * low
            else "skewed" if high >= 16 * low else None
        )
        if kind and len(pairs[kind]) < 300:
            pairs[kind].append((csr.row(u), csr.row(v)))
    for kind, rows in pairs.items():
        if rows:
            out[kind] = _time_calls(
                lambda: [intersect_views(a, b) for a, b in rows], len(rows)
            )
    return out


def _graph_seconds(graph: inputs.SeededGraph) -> Tuple[Dict[str, float], object]:
    """Seconds of each graph-preparation step, and the prepared data."""
    from repro.engine.benu import prepare_data
    from repro.graph.csr import CSRAdjacency
    from repro.graph.graph import Graph

    edges = [tuple(e) for e in graph.edges]
    t0 = time.perf_counter()
    built = Graph(edges)
    t1 = time.perf_counter()
    prepared = prepare_data(built)
    t2 = time.perf_counter()
    csr = CSRAdjacency.from_graph(prepared.graph)
    t3 = time.perf_counter()
    handle, shm = csr.to_shared()
    attach = []
    try:
        for _ in range(5):
            t = time.perf_counter()
            attached = CSRAdjacency.from_shared(handle)
            attach.append(time.perf_counter() - t)
            attached.detach()
    finally:
        shm.close()
        shm.unlink()
    return {
        "build": t1 - t0, "relabel": t2 - t1, "csr_build": t3 - t2,
        "shm_attach": statistics.median(attach),
    }, prepared


def _triangle_plan(prepared, config):
    from repro.engine import benu
    from repro.lang import lower_query

    text = inputs.render(inputs.STREAM_TEMPLATES[2], random.Random(0))
    return benu.prepare_plan(lower_query(text).pattern, prepared, config)


def _sink_rows_per_s(prepared, layout: str) -> float:
    """Rows per second into an in-process sink: the triangle stream on the
    compiled single-thread backend, no service and no wire."""
    from repro.engine import benu
    from repro.engine.config import BenuConfig
    from repro.engine.sinks import CountSink

    config = BenuConfig(adjacency_backend=layout)
    plan = _triangle_plan(prepared, config)
    sink = CountSink()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.25:
        benu.execute_plan(plan, prepared, config, sink=sink)
    return sink.count / (time.perf_counter() - t0)


def _pool_start_s(prepared, config) -> float:
    """A process-backend run over zero tasks: fork the pool, share the
    CSR, tear both down."""
    from repro.engine import benu

    plan = _triangle_plan(prepared, config)
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        benu.execute_plan(plan, prepared, config, start_vertices=[])
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _loopback_rtt_s(service) -> float:
    """A ``health`` round trip over a real loopback socket."""
    from repro.service.protocol import serve_socket

    server = serve_socket(service)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    samples = []
    try:
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with sock.makefile("rb") as rfile:
                for _ in range(300):
                    t0 = time.perf_counter()
                    sock.sendall(b'{"op": "health"}\n')
                    rfile.readline()
                    samples.append(time.perf_counter() - t0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return statistics.median(samples[50:])


# --------------------------------------------------------------- the run
def run_traced(workload: Workload, seed: int, quick: bool) -> dict:
    from repro.kernels.vectorized import measure_crossover
    from repro.lang import lower_query
    from repro.telemetry import validate_chrome_trace

    size = "quick" if quick else "full"
    graph = inputs.seeded_graph(inputs.base_graph(workload.graph, size), seed)
    checker = Checker(graph)
    # warm-up, an untraced pass for the overhead ratio, the traced pass
    work = workload.work(seed, 3, quick)
    served = isinstance(workload, ServedWorkload)
    routed = served and workload.routed
    layout = "csr" if (not served or workload.serve_options) else "frozenset"

    graph_s, prepared = _graph_seconds(graph)
    setup_spans = spans.Recorder()
    recorder = spans.Recorder()
    spans.install(setup_spans)
    try:
        replay = (
            ServedReplay(workload, graph) if served
            else EnumReplay(workload, graph, work[0])
        )
    finally:
        spans.uninstall()
    try:
        replay.run_pass(work[0])
        untraced_wall, plain = replay.run_pass(work[1])
        before = replay.snapshot()
        spans.install(recorder)
        try:
            traced_wall, answers = replay.run_pass(work[2], recorder)
        finally:
            spans.uninstall()
        after = replay.snapshot()
        results = replay.results(before, answers)
        rtt_s = replay.rtt_s()
    finally:
        replay.close()
    left = spans.still_wrapped()
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")

    failed = sum(not check_answer(checker, a) for a in answers)
    totals = _sum_results(results)
    hot = _hot_function_seconds(prepared, layout, seed)
    charged, unnamed, wall = spans.attribute(recorder.spans)
    residual = _ratio(unnamed, wall)

    recorded = recorder.spans
    every = setup_spans.spans + recorded
    n_ops = len(answers)
    streamed = [a for a in answers if a.pages]
    pages = sum(a.pages for a in streamed)
    rows = sum(a.results for a in streamed)

    def count(name: str, tag: Optional[str] = None) -> int:
        return len(recorder.durations(name, tag))

    def med(name: str, tag: Optional[str] = None) -> float:
        return _median(recorder.durations(name, tag))

    def med_anywhere(name: str) -> float:
        """Plan work runs in set-up (enum) or in the pass (cold queries)."""
        return _median([s.t1 - s.t0 for s in every if s.name == name])

    lookups = (after["hits"] - before["hits"]
               + after["misses"] - before["misses"])
    rules_fired = 0
    if served:
        rules_fired = sum(len(lower_query(op.text).rules_fired) for op in work[2])
    decode_s = sum(
        s.t1 - s.t0 for s in recorded
        if s.name == "wire.client_decode" and answers[s.op].pages
    )
    process = not served and workload.rows

    metrics: Dict[str, Metric] = {
        "ttfr_p50_ms": (1e3 * _median([a.ttfr for a in answers]), "ms"),
        "latency_p50_ms": (1e3 * _median([a.latency for a in plain]), "ms"),
        "lang.parse_us": (1e6 * med("lang.parse"), "us"),
        "lang.rules_us": (1e6 * med("lang.rules"), "us"),
        "lang.lower_us": (1e6 * med("lang.lower"), "us"),
        "lang.rules_fired": (rules_fired, "count"),
        "pattern.canonical_us": (1e6 * med("pattern.canonical"), "us"),
        "plan.search_ms": (1e3 * med_anywhere("plan.search"), "ms"),
        "plan.codegen_ms": (1e3 * med_anywhere("plan.codegen"), "ms"),
        "plan.orders_explored": (
            sum(int(s.tag or 0) for s in every if s.name == "plan.search"),
            "count"),
        "plan.cache_hit_ratio": (
            _ratio(after["hits"] - before["hits"], lookups), "ratio"),
        "plan.cache_exact_hit_us": (1e6 * med("plan.cache", "exact"), "us"),
        "plan.cache_iso_hit_us": (1e6 * med("plan.cache", "isomorphic"), "us"),
        "service.submit_us": (1e6 * med("service.submit"), "us"),
        "service.fetch_us_per_page": (
            1e6 * _ratio(charged.of("service.fetch"), count("service.fetch")),
            "us"),
        "service.protocol_us_per_page": (
            1e6 * _ratio(charged.of("service.protocol", "poll"),
                         count("service.protocol", "poll")), "us"),
        "service.events_per_query": (
            _ratio(after["events"] - before["events"], n_ops), "count"),
        "service.rejected": (after["rejected"] - before["rejected"], "count"),
        "engine.taskgen_ms": (1e3 * med("engine.taskgen"), "ms"),
        "engine.tasks": (totals.get("tasks", 0), "count"),
        "engine.execute_s": (charged.of("engine.execute"), "s"),
        "engine.instr.INT": (totals.get("INT", 0), "count"),
        "engine.instr.ENU": (totals.get("ENU", 0), "count"),
        "engine.instr.DBQ": (totals.get("DBQ", 0), "count"),
        "engine.instr.TRC": (totals.get("TRC", 0), "count"),
        "engine.instr.RES": (totals.get("RES", 0), "count"),
        "engine.sink_rows_per_s": (_sink_rows_per_s(prepared, layout), "1/s"),
        "engine.process.pool_start_ms": (
            1e3 * _pool_start_s(prepared, workload.config(graph))
            if process else 0.0, "ms"),
        "engine.process.shm_bytes": (totals.get("shm_bytes", 0), "B"),
        "engine.process.mean_task_ms": (
            1e3 * _ratio(totals.get("task_wall", 0), totals.get("tasks", 0))
            if process else 0.0, "ms"),
        "engine.process.busy_ratio": (
            _ratio(totals.get("task_wall", 0), totals.get("worker_wall", 0))
            if process else 0.0, "ratio"),
        "storage.getadj_calls": (totals.get("getadj_calls", 0), "count"),
        "storage.getadj_bytes": (totals.get("getadj_bytes", 0), "B"),
        "storage.cache_hit_ratio": (
            _ratio(totals.get("cache_hits", 0),
                   totals.get("cache_hits", 0) + totals.get("cache_misses", 0)),
            "ratio"),
        "storage.cache_evictions": (totals.get("cache_evictions", 0), "count"),
        "storage.getadj_ns": (1e9 * hot["getadj"], "ns"),
        "storage.cache_get_ns": (1e9 * hot["cache_get"], "ns"),
        "kernels.calls": (totals.get("kernel_calls", 0), "count"),
        "kernels.vector_share": (
            _ratio(totals.get("kernel_vector", 0), totals.get("kernel_calls", 0)),
            "ratio"),
        "kernels.intersect_ns.balanced": (1e9 * hot["balanced"], "ns"),
        "kernels.intersect_ns.skewed": (1e9 * hot["skewed"], "ns"),
        "kernels.crossover": (float(measure_crossover()), "count"),
        "graph.build_ms": (1e3 * graph_s["build"], "ms"),
        "graph.relabel_ms": (1e3 * graph_s["relabel"], "ms"),
        "graph.csr_build_ms": (1e3 * graph_s["csr_build"], "ms"),
        "graph.shm_attach_us": (1e6 * graph_s["shm_attach"], "us"),
        "shard.register_ms": (
            1e3 * replay.register_s if routed else 0.0, "ms"),
        "shard.submit_fanout_ms": (1e3 * med("shard.submit"), "ms"),
        "shard.round_trips_per_query": (
            _ratio(count("shard.request"), n_ops), "count"),
        "shard.fetch_us_per_page": (
            1e6 * _ratio(charged.of("shard.fetch"), count("shard.fetch")),
            "us"),
        "shard.useful_poll_ratio": (
            _ratio(count("shard.request", "poll+"),
                   count("shard.request", "poll+")
                   + count("shard.request", "poll-")), "ratio"),
        "wire.bytes_per_row": (
            _ratio(sum(a.wire_bytes for a in streamed), rows), "B"),
        "wire.client_decode_us_per_page": (1e6 * _ratio(decode_s, pages), "us"),
        "wire.rtt_us": (1e6 * rtt_s, "us"),
        "telemetry.trace_overhead_ratio": (
            _ratio(traced_wall, untraced_wall), "ratio"),
        "telemetry.ledger_residual_ratio": (residual, "ratio"),
    }

    # Where the traced wall clock went, by span; the hot functions' share
    # of their callers' time is call count x isolated cost: an estimate.
    ledger = {
        "workload": workload.name, "seed": seed, "wall_s": wall,
        "charged_s": dict(sorted(charged.by_name().items())),
        "unnamed_s": unnamed,
        "estimates_s": {
            "storage.getadj": totals.get("getadj_calls", 0) * hot["getadj"],
            "storage.cache_get": totals.get("cache_hits", 0) * hot["cache_get"],
            "kernels.intersect": totals.get("kernel_calls", 0) * hot["balanced"],
        },
    }
    for name, seconds in ledger["charged_s"].items():
        print(f"  ledger {workload.name:14s} {name:24s} {seconds:10.4f} s "
              f"{_ratio(seconds, wall):6.1%}")
    print(f"  ledger {workload.name:14s} {'(unnamed)':24s} {unnamed:10.4f} s "
          f"{residual:6.1%}")
    OUT_DIR.mkdir(exist_ok=True)
    chrome = spans.write_chrome(
        recorder, OUT_DIR / f"trace_{workload.name}.json", extra=ledger
    )
    problems = validate_chrome_trace(chrome)
    if problems:
        raise RuntimeError(f"invalid trace: {problems[:3]}")
    failures = []
    if residual > RESIDUAL_LIMIT:
        failed += 1
        failures.append(
            f"ledger residual {residual:.3f} > {RESIDUAL_LIMIT}: the spans "
            f"name only {1 - residual:.0%} of the traced wall clock"
        )
    return {
        "correct": failed == 0, "attempted": n_ops, "failed": failed,
        "metrics": metrics, "failures": failures,
    }

