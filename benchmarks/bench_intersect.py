"""Intersection-kernel throughput and the two row prices end to end.

Two experiments, one record (``results/BENCH_intersect.json``):

* **kernels** — ops/sec of each intersection kernel on controlled operand
  shapes (balanced, skewed, bounded), next to the C-level ``frozenset &``
  oracle.  This pins down *why* compiled plans compute every site as a
  frozenset expression: pure-Python loops lose to C sets on balanced
  inputs, gallop wins only past a size ratio.
* **backends** — end-to-end wall-clock of the Table-1 workload (the three
  core patterns over every stand-in dataset) under ``frozenset`` vs
  ``csr``.  Both run the same compiled code on the same frozensets; the
  setting only changes a stored row's byte price, so the two walls
  should agree within noise and the counts exactly.

``scripts/perf_guard.py`` diffs every ``ops_per_sec`` figure in this
record against the previous run and fails on >20% regressions.
"""

import random
import time

import pytest

from repro.engine.benu import run_benu
from repro.engine.config import BenuConfig
from repro.graph.datasets import DATASET_ORDER, load_dataset
from repro.graph.patterns import get_pattern
from repro.kernels.intersect import (
    KernelStats,
    intersect_adaptive,
    intersect_filtered,
    intersect_gallop,
    intersect_merge,
)
from repro.metrics import format_table

from common import write_report

CORE_PATTERNS = ("triangle", "clique4", "chordal_square")


def _workloads():
    rng = random.Random(1234)

    def sample(k, universe):
        return sorted(rng.sample(range(universe), k))

    return {
        "balanced_64": (sample(64, 512), sample(64, 512)),
        "balanced_512": (sample(512, 4096), sample(512, 4096)),
        "skewed_8_2048": (sample(8, 16384), sample(2048, 16384)),
        "skewed_64_8192": (sample(64, 65536), sample(8192, 65536)),
    }


def _ops_per_sec(fn, *args, min_seconds=0.1):
    # Warm, then time enough repetitions for a stable ops/sec figure.
    fn(*args)
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        dt = time.perf_counter() - t0
        if dt >= min_seconds:
            return reps / dt
        reps *= 4


def _kernel_experiment():
    silent = KernelStats()
    kernels = {
        "merge": intersect_merge,
        "gallop": intersect_gallop,
        "adaptive": lambda a, b: intersect_adaptive(a, b, stats=silent),
        "filtered": lambda a, b: intersect_filtered((a, b), stats=silent),
        "frozenset_and": lambda a, b: a & b,
    }
    out = {}
    for wname, (a, b) in _workloads().items():
        fa, fb = frozenset(a), frozenset(b)
        out[wname] = {
            kname: _ops_per_sec(fn, *((fa, fb) if kname == "frozenset_and" else (a, b)))
            for kname, fn in kernels.items()
        }
    return out


def _backend_experiment():
    wall = {}
    counts = {}
    for backend in ("frozenset", "csr"):
        t0 = time.perf_counter()
        total = 0
        for ds in DATASET_ORDER:
            g = load_dataset(ds)
            for p in CORE_PATTERNS:
                total += run_benu(
                    get_pattern(p),
                    g,
                    BenuConfig(relabel=False, adjacency_backend=backend),
                ).count
        wall[backend] = time.perf_counter() - t0
        counts[backend] = total
    assert counts["frozenset"] == counts["csr"], counts
    return {
        "wall_seconds": wall,
        "total_matches": counts["csr"],
        # Whole-workload throughput, guarded like the kernel figures.
        "ops_per_sec": {
            backend: counts[backend] / wall[backend] for backend in wall
        },
        "csr_speedup": wall["frozenset"] / wall["csr"],
    }


def _make_report():
    kernels = _kernel_experiment()
    backends = _backend_experiment()
    rows = [
        [w] + [f"{kernels[w][k]/1e3:.1f}k" for k in
               ("merge", "gallop", "adaptive", "filtered", "frozenset_and")]
        for w in kernels
    ]
    text = format_table(
        ["workload", "merge", "gallop", "adaptive", "filtered", "frozenset &"],
        rows,
    )
    text += (
        f"\n\nTable-1 workload: frozenset {backends['wall_seconds']['frozenset']:.2f}s"
        f"  csr {backends['wall_seconds']['csr']:.2f}s"
        f"  (csr speedup {backends['csr_speedup']:.2f}x)"
    )
    write_report(
        "intersect",
        text,
        record={
            "kernels": {
                w: {k: {"ops_per_sec": v} for k, v in per.items()}
                for w, per in kernels.items()
            },
            "backends": backends,
        },
    )
    return backends


def test_intersect_report(benchmark):
    backends = benchmark.pedantic(_make_report, rounds=1, iterations=1)
    assert backends["total_matches"] > 0


@pytest.mark.parametrize("backend", ("frozenset", "csr"))
def test_bench_chordal_square_backend(benchmark, backend):
    g = load_dataset("as_sim")
    cfg = BenuConfig(relabel=False, adjacency_backend=backend)

    def run():
        return run_benu(get_pattern("chordal_square"), g, cfg).count

    benchmark(run)
