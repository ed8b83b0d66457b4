"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``count``      count subgraph instances of a pattern in a data graph
``enumerate``  stream matches as they are found (optionally capped)
``query``      run a declarative BENU-QL query (locally or via --connect)
``serve``      run the resident query service (JSON lines over stdio/TCP)
``run``        run with full telemetry: metrics, tracing, profiling
``stats``      run and print the telemetry metric table
``plan``       generate, optimize and display an execution plan
``patterns``   list the built-in pattern graphs
``datasets``   list the bundled synthetic datasets

Data graphs come from ``--dataset <name>`` (bundled stand-ins) or
``--edges <file>`` (SNAP-style edge list).  ``repro run --trace out.json``
writes a Chrome ``trace_event`` file — open it in ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import List, Optional, Sequence

from .engine.benu import (
    build_plan,
    execute_plan,
    prepare_data,
    prepare_plan,
    run_benu,
)
from .engine.config import ADJACENCY_BACKENDS, EXECUTION_BACKENDS, BenuConfig
from .engine.control import ExecutionControl
from .engine.sinks import CallbackSink, JsonlSink, LimitSink
from .graph.datasets import DATASET_ORDER, DATASET_SPECS, load_dataset
from .graph.graph import Graph
from .graph.io import read_edge_list
from .graph.patterns import PATTERNS, get_pattern
from .metrics import format_bytes, format_table
from .pattern.pattern_graph import PatternGraph
from .plan.cost import GraphStats, estimate_plan_cost
from .plan.search import generate_best_plan
from .telemetry import TelemetryConfig, render_prometheus


def _load_data_graph(args: argparse.Namespace) -> Graph:
    if args.dataset and args.edges:
        raise SystemExit("give either --dataset or --edges, not both")
    if args.dataset:
        return load_dataset(args.dataset)
    if args.edges:
        return read_edge_list(args.edges)
    raise SystemExit("a data graph is required: --dataset <name> or --edges <file>")


def _config_from(
    args: argparse.Namespace,
    collect: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
) -> BenuConfig:
    return BenuConfig(
        num_workers=args.workers,
        threads_per_worker=args.threads,
        cache_capacity_bytes=args.cache_bytes,
        adjacency_backend=args.adjacency_backend,
        execution_backend=args.execution_backend,
        split_threshold=args.tau,
        optimization_level=args.level,
        compressed=getattr(args, "compressed", False),
        collect=collect,
        # Bundled datasets are pre-relabeled; `serve` registers its own.
        relabel=not getattr(args, "dataset", None),
        telemetry=telemetry,
        task_retries=args.task_retries,
        faults=args.faults,
    )


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    """The BenuConfig knobs every executing command takes (``_config_from``)."""
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--cache-bytes", type=int, default=None)
    parser.add_argument("--tau", type=int, default=64, help="task-splitting threshold")
    parser.add_argument("--level", type=int, default=3, help="optimization level 0-3")
    parser.add_argument("--execution-backend", choices=EXECUTION_BACKENDS,
                        default="simulated",
                        help="runtime: simulated cluster (default), inline "
                             "interpreter, or real OS worker processes")
    parser.add_argument("--adjacency-backend", choices=ADJACENCY_BACKENDS,
                        default="frozenset",
                        help="byte price of a stored row: frozenset "
                             "(delta+varint, default) or csr (8 B/id)")
    parser.add_argument("--task-retries", type=int, default=2,
                        help="process backend: re-run lost task slices this "
                             "many times after a worker crash before failing")
    parser.add_argument("--faults", default=None, metavar="SCHEDULE",
                        help="deterministic fault-injection schedule, e.g. "
                             "'seed=7,worker.task:crash@3' (also honours the "
                             "BENU_FAULTS env var)")


def _add_run_options(
    parser: argparse.ArgumentParser, pattern_required: bool = True
) -> None:
    parser.add_argument("--pattern", required=pattern_required,
                        help="pattern name (see `patterns`)")
    parser.add_argument("--dataset", help="bundled dataset name (see `datasets`)")
    parser.add_argument("--edges", help="path to a SNAP-style edge list")
    _add_config_options(parser)


def cmd_count(args: argparse.Namespace) -> int:
    data = _load_data_graph(args)
    pattern = get_pattern(args.pattern)
    result = run_benu(pattern, data, _config_from(args))
    print(result.count)
    if args.verbose:
        print(result.summary(), file=sys.stderr)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    data = _load_data_graph(args)
    pattern = PatternGraph(get_pattern(args.pattern), args.pattern)
    config = _config_from(args)
    prepared = prepare_data(data, config)
    plan = prepare_plan(pattern, prepared, config)
    if args.output == "jsonl":
        out: object = JsonlSink(sys.stdout)
    else:
        out = CallbackSink(
            lambda match: print("\t".join(map(str, match)))
        )
    control = ExecutionControl()
    sink = (
        LimitSink(out, args.limit, control) if args.limit is not None else out
    )
    execute_plan(plan, prepared, config, sink=sink, control=control)
    if control.limit_reached:
        print(f"... (stopped after {args.limit} matches)", file=sys.stderr)
    return 0


def _format_metric_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def cmd_run(args: argparse.Namespace) -> int:
    data = _load_data_graph(args)
    pattern = PatternGraph(get_pattern(args.pattern), args.pattern)
    telemetry = TelemetryConfig(
        trace=args.trace is not None,
        profile=args.profile,
        sample_every=args.sample_every,
    )
    result = run_benu(pattern, data, _config_from(args, telemetry=telemetry))
    print(result.count)
    print(result.summary(), file=sys.stderr)
    if args.trace:
        result.telemetry.write_trace(args.trace, format=args.trace_format)
        target = (
            "chrome://tracing" if args.trace_format == "chrome" else "nested JSON"
        )
        print(f"trace written to {args.trace} ({target})", file=sys.stderr)
    if args.metrics:
        result.telemetry.write_metrics(args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    return 0


def _print_metric_table(registry) -> None:
    rows = []
    for metric in registry.metrics():
        for labels, value in metric.samples():
            label_text = ",".join(f"{k}={v}" for k, v in labels.items())
            if metric.kind == "histogram":
                rendered = (
                    f"count={value.count} mean={value.mean:.3g} "
                    f"min={value.min:.3g} max={value.max:.3g}"
                    if value.count
                    else "count=0"
                )
            else:
                rendered = _format_metric_value(value)
            rows.append([metric.name, metric.kind, label_text, rendered])
    print(format_table(["metric", "kind", "labels", "value"], rows))


@contextmanager
def _connection(connect: str, read_timeout: float):
    """``ask(request) -> response`` (``ok`` or not) over one lease of a
    live ``serve``/``route`` endpoint: every request of a command rides
    it, because a router scopes query ids to one connection."""
    from .shard.client import ShardUnavailable, TCPShardClient

    host, _, port = connect.rpartition(":")
    if not port.isdigit():
        raise SystemExit(f"bad --connect address {connect!r}; expected HOST:PORT")
    client = TCPShardClient(host or "127.0.0.1", int(port), read_timeout=read_timeout)
    lease = client.lease()

    def ask(payload: dict) -> dict:
        try:
            lease.send(payload)
            return lease.recv()
        except ShardUnavailable as exc:
            raise SystemExit("service closed the connection") from exc

    try:
        yield ask
    finally:
        lease.release()
        client.close()


def _print_service_stats(stats: dict) -> None:
    sched = stats.get("scheduler", {})
    events = stats.get("events", {})
    print(
        f"queries: running={sched.get('running')} queued={sched.get('queued')}"
        f"  events: emitted={events.get('emitted')} dropped={events.get('dropped')}"
    )
    faults = stats.get("faults", {})
    if faults.get("enabled"):
        print(f"faults: injected={faults.get('injected')} (chaos schedule armed)")
    replicas = stats.get("replicas")
    if replicas:
        dead = sorted(ep for ep, state in replicas.items() if state != "alive")
        if dead:
            print(f"replicas marked dead: {', '.join(dead)}")
    progress = stats.get("progress", {})
    if progress:
        rows = []
        for query_id, p in sorted(progress.items()):
            eta = p.get("eta_seconds")
            rows.append([
                query_id,
                f"{p.get('tasks_done')}/{p.get('total_tasks') or '?'}",
                f"{p.get('fraction', 0.0):.1%}",
                p.get("embeddings"),
                f"{eta:.1f}s" if eta is not None else "?",
            ])
        print(format_table(["query", "tasks", "done", "embeddings", "eta"], rows))
    slow = stats.get("slow_queries", [])
    if slow:
        print(f"slow queries ({len(slow)}):")
        for entry in slow:
            print(
                f"  {entry.get('query_id')} {entry.get('pattern')}@"
                f"{entry.get('graph')} {entry.get('wall_seconds', 0.0):.2f}s"
                f" (threshold {entry.get('threshold_seconds')}s)"
            )


def _stats_from_service(args: argparse.Namespace) -> int:
    op = "metrics" if args.format == "prometheus" else "stats"
    with _connection(args.connect, read_timeout=30) as ask:
        while True:
            response = ask({"op": op})
            if not response.get("ok"):
                raise SystemExit(f"service error: {response.get('message')}")
            if op == "metrics":
                print(response["metrics"], end="")
            elif args.format == "json":
                print(json.dumps(response["stats"], indent=1, sort_keys=True))
            else:
                _print_service_stats(response["stats"])
            if not args.watch:
                return 0
            time.sleep(args.watch)


def cmd_stats(args: argparse.Namespace) -> int:
    if args.connect:
        return _stats_from_service(args)
    if args.watch:
        raise SystemExit("--watch needs --connect HOST:PORT (a live service)")
    if not args.pattern:
        raise SystemExit("--pattern is required (unless using --connect)")
    data = _load_data_graph(args)
    pattern = PatternGraph(get_pattern(args.pattern), args.pattern)
    telemetry = TelemetryConfig(trace=False, profile=args.profile)
    result = run_benu(pattern, data, _config_from(args, telemetry=telemetry))
    if args.format == "prometheus":
        print(render_prometheus(result.telemetry.registry), end="")
    elif args.format == "json":
        print(json.dumps(result.telemetry.as_dict(), indent=1, sort_keys=True))
    else:
        _print_metric_table(result.telemetry.registry)
    print(result.summary(), file=sys.stderr)
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    pattern = PatternGraph(get_pattern(args.pattern), args.pattern)
    stats = GraphStats(args.vertices, args.edges_count)
    if args.order:
        order = [int(x) for x in args.order.split(",")]
        plan = build_plan(pattern, order=order, optimization_level=args.level,
                          compressed=args.compressed)
        print(plan)
    else:
        result = generate_best_plan(
            pattern, stats, optimization_level=args.level, compressed=args.compressed
        )
        plan = result.plan
        print(plan)
        s = result.stats
        print(
            f"\nsearch: alpha={s.alpha} ({s.relative_alpha:.1%}) "
            f"beta={s.beta} ({s.relative_beta:.2%}) "
            f"time={s.elapsed_seconds * 1000:.1f}ms",
            file=sys.stderr,
        )
    cost = estimate_plan_cost(plan, stats)
    print(
        f"\nestimated cost: communication={cost.communication:.4g} "
        f"computation={cost.computation:.4g}",
        file=sys.stderr,
    )
    return 0


def _parse_graph_spec(spec: str) -> tuple:
    name, sep, source = spec.partition("=")
    if not sep or not name or not source:
        raise SystemExit(f"bad graph spec {spec!r}; expected NAME=SOURCE")
    return name, source


def _serve_tcp(server, banner: str) -> int:
    """Run a bound protocol server until shutdown or Ctrl-C; ``banner``
    announces it, its ``{address}`` filled in."""
    host, port = server.server_address[:2]
    print(banner.format(address=f"{host}:{port}"), file=sys.stderr)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import BenuService, ServiceProtocol, serve_socket, serve_stdio
    from .service.protocol import ShardIdentity

    identity = None
    if args.shard_index is not None or args.shard_count is not None:
        if args.shard_index is None or args.shard_count is None:
            raise SystemExit(
                "--shard-index and --shard-count must be given together"
            )
        identity = ShardIdentity(
            shard_index=args.shard_index,
            shard_count=args.shard_count,
            epoch=args.epoch,
        )
    service = BenuService(
        config=_config_from(args),
        max_concurrent=args.max_concurrent,
        max_queued=args.max_queued,
        memory_budget_bytes=args.memory_budget_bytes,
        catalog_capacity_bytes=args.catalog_bytes,
        max_worker_processes=args.max_worker_processes,
        event_log_path=args.event_log,
        slow_query_seconds=args.slow_query_seconds,
    )
    partition = identity.partition if identity is not None else None
    try:
        for spec in args.graph or []:
            name, dataset = _parse_graph_spec(spec)
            info = service.register_graph(
                name, load_dataset(dataset), relabel=False,
                partition=partition,
            )
            print(f"registered {name}: {info}", file=sys.stderr)
        for spec in args.edges_graph or []:
            name, path = _parse_graph_spec(spec)
            info = service.register_graph(
                name, read_edge_list(path), partition=partition
            )
            print(f"registered {name}: {info}", file=sys.stderr)
        if args.port is not None:
            role = (
                f"shard {identity.shard_index}/{identity.shard_count}"
                if identity is not None else "node"
            )
            server = serve_socket(
                service, host=args.host, port=args.port, identity=identity
            )
            return _serve_tcp(server, "serving on {address} as " + role)
        return serve_stdio(ServiceProtocol(service, identity=identity))
    finally:
        service.close()


def cmd_route(args: argparse.Namespace) -> int:
    from .service import serve_socket, serve_stdio
    from .shard import RouterProtocol, ShardRouter, TCPShardClient

    clients = []
    for spec in args.shard:
        host, sep, port = spec.rpartition(":")
        if not sep:
            raise SystemExit(f"bad shard address {spec!r}; expected HOST:PORT")
        clients.append(
            TCPShardClient(
                host,
                int(port),
                connect_timeout=args.connect_timeout,
                read_timeout=args.read_timeout,
            )
        )
    router = ShardRouter(clients, expected_epoch=args.epoch)
    print(
        f"routing over {router.shard_count} partitions "
        f"({len(clients)} nodes, epoch {router.epoch})",
        file=sys.stderr,
    )
    try:
        for spec in args.graph or []:
            name, dataset = _parse_graph_spec(spec)
            responses = router.register(name, dataset=dataset)
            print(
                f"registered {name} on {len(responses)} nodes",
                file=sys.stderr,
            )
        if args.port is not None:
            server = serve_socket(
                lambda: RouterProtocol(router), host=args.host, port=args.port
            )
            return _serve_tcp(server, "router listening on {address}")
        return serve_stdio(RouterProtocol(router))
    finally:
        router.close()


def _load_query_graph(args: argparse.Namespace):
    """The query command's data graph: plain, or labeled via --labels."""
    data = _load_data_graph(args)
    if not args.labels:
        return data
    from .graph.io import read_label_list
    from .labeled.graphs import LabeledGraph

    label_map = read_label_list(args.labels)
    # Vertices absent from the file carry label None (unconstrained) —
    # the same convention the query front-end uses for unlabeled
    # pattern vertices.
    return LabeledGraph(
        data.edges(),
        {v: label_map.get(v) for v in data.vertices},
        vertices=data.vertices,
    )


def _explain_query(args: argparse.Namespace) -> int:
    from .engine.benu import bind_run, prepare_data, prepare_plan
    from .lang import lower_query, pretty_tree

    lowered = lower_query(args.text)
    print("logical tree:")
    print(pretty_tree(lowered.tree))
    fired = ", ".join(lowered.rules_fired) if lowered.rules_fired else "(none)"
    print(f"\nrules fired: {fired}")
    if lowered.unsatisfiable:
        print(
            "\nquery is unsatisfiable (conflicting label predicates); "
            "it returns an empty result without executing"
        )
        return 0
    config = _config_from(args)
    prepared = prepare_data(_load_query_graph(args), config)
    plan, _ = bind_run(
        prepare_plan(lowered.pattern, prepared, config), prepared, config,
        counting=lowered.kind == "count",
    )
    print("\nphysical plan:")
    print(plan)
    return 0


def _remote_query(args: argparse.Namespace) -> int:
    """Run one BENU-QL query against a live ``serve``/``route`` endpoint.

    A single connection carries submit and every poll — required because
    both protocols scope query ids to the serving process, and a router
    to the connection.
    """
    if not args.graph:
        raise SystemExit("--connect needs --graph NAME (a registered graph)")
    request: dict = {"op": "query", "text": args.text, "graph": args.graph}
    if args.limit is not None:
        request["limit"] = args.limit
    with _connection(args.connect, read_timeout=120) as send:

        def ask(payload: dict) -> dict:
            response = send(payload)
            if not response.get("ok"):
                print(
                    f"query error: {response.get('message')}", file=sys.stderr
                )
                if response.get("snippet"):
                    print(response["snippet"], file=sys.stderr)
                raise SystemExit(1)
            return response

        submitted = ask(request)
        query_id = submitted["query"]
        kind = submitted.get("kind")
        if kind == "stream":
            cursor = 0
            while True:
                page = ask(
                    {
                        "op": "poll",
                        "query": query_id,
                        "limit": 256,
                        "cursor": cursor,
                        "wait": 10.0,
                    }
                )
                for match in page.get("matches", []):
                    print("\t".join(map(str, match)))
                cursor = page.get("cursor", cursor)
                if page.get("done"):
                    return 0
        while True:
            response = ask({"op": "poll", "query": query_id, "wait": 10.0})
            if response.get("done"):
                break
        if kind == "groups":
            for key, value in sorted(
                (response.get("groups") or {}).items(),
                key=lambda kv: str(kv[0]),
            ):
                print(f"{key}\t{value}")
            return 0
        print(response.get("count", 0))
        return 0


def cmd_query(args: argparse.Namespace) -> int:
    from .lang import QueryError, run_query

    try:
        if args.connect:
            return _remote_query(args)
        if args.explain:
            return _explain_query(args)
        data = _load_query_graph(args)
        result = run_query(
            args.text, data, _config_from(args), limit=args.limit
        )
    except QueryError as exc:
        print(f"query error: {exc}", file=sys.stderr)
        snippet = exc.snippet()
        if snippet:
            print(snippet, file=sys.stderr)
        return 1
    if result.kind == "count":
        print(result.count)
        return 0
    for row in result.rows():
        print("\t".join(map(str, row)))
    return 0


def cmd_patterns(args: argparse.Namespace) -> int:
    rows = [
        [name, p.num_vertices, p.num_edges]
        for name, p in sorted(PATTERNS.items())
    ]
    print(format_table(["name", "vertices", "edges"], rows))
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in DATASET_ORDER:
        spec = DATASET_SPECS[name]
        if args.load:
            g = load_dataset(name)
            rows.append([name, spec.paper_name, g.num_vertices, g.num_edges])
        else:
            rows.append([name, spec.paper_name, spec.num_vertices, "(lazy)"])
    print(format_table(["name", "stands in for", "|V|", "|E|"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BENU distributed subgraph enumeration (ICDE'19 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count subgraph instances")
    _add_run_options(p)
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="stream matches as they are found")
    _add_run_options(p)
    p.add_argument("--limit", type=int, default=None,
                   help="stop the run after N matches (early termination)")
    p.add_argument("--output", choices=("tsv", "jsonl"), default="tsv",
                   help="tab-separated ids (default) or one JSON array per line")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "run", help="run with telemetry: metrics, tracing, profiling"
    )
    _add_run_options(p)
    p.add_argument("--compressed", action="store_true",
                   help="VCBC-compressed output (the paper's default mode)")
    p.add_argument("--trace", metavar="FILE",
                   help="write a trace of the run to FILE")
    p.add_argument("--trace-format", choices=("chrome", "json"),
                   default="chrome",
                   help="chrome trace_event (chrome://tracing) or nested JSON")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the full metric registry to FILE as JSON")
    p.add_argument("--profile", action="store_true",
                   help="compile sampling probes into the hot loop")
    p.add_argument("--sample-every", type=int, default=64,
                   help="profile every Nth instruction execution")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", help="run and print the telemetry metrics")
    _add_run_options(p, pattern_required=False)
    p.add_argument("--compressed", action="store_true")
    p.add_argument("--profile", action="store_true",
                   help="include sampled per-instruction timings")
    p.add_argument("--format", choices=("table", "prometheus", "json"),
                   default="table",
                   help="metric table (default), Prometheus text "
                        "exposition, or the full JSON export")
    p.add_argument("--connect", metavar="HOST:PORT",
                   help="read stats from a running `serve --port` service "
                        "instead of executing a query")
    p.add_argument("--watch", type=float, default=None, metavar="SECONDS",
                   help="with --connect: refresh every SECONDS (live "
                        "progress and ETA per in-flight query)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("plan", help="show an execution plan")
    p.add_argument("--pattern", required=True)
    p.add_argument("--order", help="comma-separated matching order, e.g. 1,3,2")
    p.add_argument("--level", type=int, default=3)
    p.add_argument("--compressed", action="store_true")
    p.add_argument("--vertices", type=int, default=1_000_000,
                   help="assumed |V| for the cost model")
    p.add_argument("--edges-count", type=int, default=10_000_000,
                   help="assumed |E| for the cost model")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser(
        "serve", help="run the resident query service (JSON-lines protocol)"
    )
    p.add_argument("--graph", action="append", metavar="NAME=DATASET",
                   help="register a bundled dataset at startup (repeatable)")
    p.add_argument("--edges-graph", action="append", metavar="NAME=FILE",
                   help="register a SNAP-style edge list at startup (repeatable)")
    p.add_argument("--port", type=int, default=None,
                   help="serve on a local TCP socket instead of stdio (0 = ephemeral)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--max-concurrent", type=int, default=4,
                   help="queries executing at once")
    p.add_argument("--max-queued", type=int, default=16,
                   help="queries parked beyond that before fast-reject")
    p.add_argument("--memory-budget-bytes", type=int, default=None,
                   help="cap on reserved result-buffer bytes across queries")
    p.add_argument("--catalog-bytes", type=int, default=None,
                   help="graph catalog capacity (LRU eviction beyond it)")
    _add_config_options(p)
    p.add_argument("--max-worker-processes", type=int, default=None,
                   help="machine-wide cap on worker processes across all "
                        "concurrent process-backend queries (default: cores)")
    p.add_argument("--event-log", metavar="FILE", default=None,
                   help="append every lifecycle event to FILE as JSON lines")
    p.add_argument("--slow-query-seconds", type=float, default=None,
                   help="log queries slower than this (stats.slow_queries "
                        "and a slow_query event)")
    p.add_argument("--shard-index", type=int, default=None,
                   help="serve as shard I of a sharded deployment "
                        "(registrations keep only the owned task slice)")
    p.add_argument("--shard-count", type=int, default=None,
                   help="total shards N in the deployment")
    p.add_argument("--epoch", type=int, default=0,
                   help="deployment generation; a router refuses to mix epochs")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "route",
        help="fan-out/merge router over `serve --shard-index` nodes",
    )
    p.add_argument("--shard", action="append", metavar="HOST:PORT",
                   required=True,
                   help="a shard node to route over (repeatable; nodes "
                        "sharing a shard index are replicas)")
    p.add_argument("--graph", action="append", metavar="NAME=DATASET",
                   help="register a bundled dataset on every shard at startup")
    p.add_argument("--epoch", type=int, default=None,
                   help="required deployment epoch (default: first node's)")
    p.add_argument("--connect-timeout", type=float, default=None,
                   help="per-hop TCP connect timeout in seconds (default 5)")
    p.add_argument("--read-timeout", type=float, default=None,
                   help="per-request shard read timeout in seconds "
                        "(default 30)")
    p.add_argument("--port", type=int, default=None,
                   help="serve the merged protocol on TCP instead of stdio")
    p.add_argument("--host", default="127.0.0.1")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser(
        "query", help="run a declarative BENU-QL query"
    )
    p.add_argument("text", metavar="QUERY",
                   help='e.g. "MATCH (a)-(b), (b)-(c), (a)-(c) '
                        'RETURN COUNT(*)"')
    p.add_argument("--dataset", help="bundled dataset name (see `datasets`)")
    p.add_argument("--edges", help="path to a SNAP-style edge list")
    p.add_argument("--labels", metavar="FILE",
                   help="vertex label file ('vertex label' per line); "
                        "required for queries with label predicates")
    p.add_argument("--limit", type=int, default=None,
                   help="stop the run after N matches (early termination)")
    p.add_argument("--explain", action="store_true",
                   help="print the logical tree, fired optimizer rules and "
                        "the physical plan instead of executing")
    p.add_argument("--connect", metavar="HOST:PORT",
                   help="run against a live `serve --port` node or "
                        "`route --port` router instead of locally")
    p.add_argument("--graph", default=None,
                   help="with --connect: name of the registered graph")
    _add_config_options(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("patterns", help="list built-in patterns")
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("datasets", help="list bundled datasets")
    p.add_argument("--load", action="store_true", help="materialize to show |E|")
    p.set_defaults(func=cmd_datasets)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
