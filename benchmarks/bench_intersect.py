"""The two row prices end to end (``results/BENCH_intersect.json``).

**backends** — end-to-end wall-clock of the Table-1 workload (the three
core patterns over every stand-in dataset) under ``frozenset`` vs
``csr``.  Both run the same compiled code on the same frozensets; the
setting only changes a stored row's byte price, so the two walls should
agree within noise and the counts exactly.  Every INT/TRC site is a
C-level frozenset expression, so there is no kernel left to time.

``scripts/perf_guard.py`` diffs every ``ops_per_sec`` figure in this
record against the previous run and fails on >20% regressions.
"""

import time

import pytest

from repro.engine.benu import run_benu
from repro.engine.config import BenuConfig
from repro.graph.datasets import DATASET_ORDER, load_dataset
from repro.graph.patterns import get_pattern

from common import write_report

CORE_PATTERNS = ("triangle", "clique4", "chordal_square")


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
        # Whole-workload throughput, guarded by perf_guard.py.
        "ops_per_sec": {
            backend: counts[backend] / wall[backend] for backend in wall
        },
        "csr_speedup": wall["frozenset"] / wall["csr"],
    }


def _make_report():
    backends = _backend_experiment()
    text = (
        f"Table-1 workload: frozenset {backends['wall_seconds']['frozenset']:.2f}s"
        f"  csr {backends['wall_seconds']['csr']:.2f}s"
        f"  (csr speedup {backends['csr_speedup']:.2f}x)"
    )
    write_report("intersect", text, record={"backends": backends})
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
