"""Execution-backend throughput on the Table-1 workload.

One workload, three runtimes: the deterministic simulated cluster, the
literal plan interpreter, and the pool of OS worker processes.  Every
backend runs the *identical* pattern suite — the Table-1 core structures
(triangle, 4-clique, chordal square) on the AS stand-in — so the
recorded throughputs are directly comparable and a single
``speedup_vs_inline`` figure per backend says which runtime should serve
queries.  ``scripts/perf_guard.py`` gates on those speedups (any key
starting with ``speedup``) exactly like it gates ops/sec.

The process backend is measured once, chunked by its one rule (a fixed
number of queue pulls per worker, cut to equal static weight);
``mean_task_wall_seconds`` is recorded per pattern as a measurement.
"""

import os

import pytest

from repro.engine.benu import (
    execute_plan,
    prepare_data,
    prepare_plan,
    run_benu,
)
from repro.engine.config import BenuConfig
from repro.graph.datasets import load_dataset
from repro.graph.patterns import get_pattern
from repro.metrics import format_table
from repro.pattern.pattern_graph import PatternGraph

from common import telemetry_record, write_report

CORE_PATTERNS = ("triangle", "clique4", "chordal_square")
DATASET = "as_sim"
NUM_WORKERS = max(2, min(4, os.cpu_count() or 2))

_CONFIG = dict(relabel=False, num_workers=NUM_WORKERS, adjacency_backend="csr")


def run(backend: str, pattern_name: str):
    return run_benu(
        get_pattern(pattern_name),
        load_dataset(DATASET),
        BenuConfig(execution_backend=backend, **_CONFIG),
    )


def _prepared_workload():
    """(plan, prepared) per core pattern, shared by every backend."""
    graph = load_dataset(DATASET)
    config = BenuConfig(**_CONFIG)
    prepared = prepare_data(graph, config)
    return [
        (
            name,
            prepare_plan(
                PatternGraph(get_pattern(name), name), prepared, config
            ),
            prepared,
        )
        for name in CORE_PATTERNS
    ]


def _workload(backend: str, workload) -> dict:
    """Total wall seconds + per-pattern telemetry for one backend."""
    runs = {}
    wall = 0.0
    count = 0
    for name, plan, prepared in workload:
        result = execute_plan(
            plan,
            prepared,
            BenuConfig(execution_backend=backend, **_CONFIG),
        )
        runs[name] = telemetry_record(result)
        runs[name]["mean_task_wall_seconds"] = result.mean_task_wall_seconds
        wall += result.wall_seconds
        count += result.count
    return {"runs": runs, "wall_seconds": wall, "count": count}


def _make_report():
    cores = os.cpu_count() or 1
    workload = _prepared_workload()
    per_backend = {
        b: _workload(b, workload) for b in ("simulated", "inline", "process")
    }
    ops = {
        b: (w["count"] / w["wall_seconds"] if w["wall_seconds"] > 0 else 0.0)
        for b, w in per_backend.items()
    }
    inline_wall = per_backend["inline"]["wall_seconds"]
    speedup_vs_inline = {
        b: (inline_wall / w["wall_seconds"] if w["wall_seconds"] > 0 else 0.0)
        for b, w in per_backend.items()
        if b != "inline"
    }
    process_vs_simulated = (
        per_backend["simulated"]["wall_seconds"]
        / per_backend["process"]["wall_seconds"]
        if per_backend["process"]["wall_seconds"] > 0
        else 0.0
    )
    rows = [
        [
            b,
            ",".join(sorted(w["runs"])),
            f"{w['count']:,}",
            f"{w['wall_seconds']:.3f}",
            f"{ops[b]:,.0f}",
            f"{speedup_vs_inline[b]:.2f}x" if b in speedup_vs_inline else "-",
        ]
        for b, w in per_backend.items()
    ]
    text = format_table(
        ["backend", "patterns", "matches", "wall s", "matches/s", "vs inline"],
        rows,
    ) + (
        f"\nprocess vs simulated wall-clock speedup: "
        f"{process_vs_simulated:.2f}x ({cores} cores, {NUM_WORKERS} workers)"
    )
    write_report(
        "backends",
        text,
        record={
            "dataset": DATASET,
            "cpu_count": cores,
            "num_workers": NUM_WORKERS,
            "backends": per_backend,
            "process_speedup_vs_simulated": process_vs_simulated,
            "speedup_vs_inline": speedup_vs_inline,
            "ops_per_sec": ops,
        },
    )
    return per_backend, speedup_vs_inline


def test_backends_report(benchmark):
    per_backend, speedup = benchmark.pedantic(
        _make_report, rounds=1, iterations=1
    )
    # Comparability: every backend measured the identical pattern suite
    # and found the identical total match count.
    suites = {b: tuple(sorted(w["runs"])) for b, w in per_backend.items()}
    assert len(set(suites.values())) == 1, suites
    counts = {b: w["count"] for b, w in per_backend.items()}
    assert len(set(counts.values())) == 1, counts
    assert speedup["process"] > 0
    if (os.cpu_count() or 1) >= 2:
        # With real cores available the process backend must beat the
        # single-threaded interpreter on wall-clock (the acceptance
        # criterion for making it the serving path).
        assert speedup["process"] > 1.0


@pytest.mark.parametrize("backend", ("simulated", "process"))
def test_bench_triangle_per_backend(benchmark, backend):
    benchmark.pedantic(run, args=(backend, "triangle"), rounds=1, iterations=2)
