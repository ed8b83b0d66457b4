"""The run ledger: every metric a backend leaves in a run's registry, pinned.

A run's registry is the one place the Table III counts (INT / TRC / DBQ /
ENU / RES executions), the DB query and byte totals and the Fig. 8 cache
hit ratio reach telemetry.  This module pins ``registry.as_dict()`` —
name, kind, help, label names, samples — for every in-process backend ×
adjacency layout on one seeded graph, for an uncompressed and a VCBC
pattern, against a golden file, so no refactor of how the ledgers are
recorded can move a metric unnoticed.  Only the wall-clock gauge is
dropped.

A two-worker process run hands chunks to whichever worker pulls first,
so its worker labels follow arrival order; for it the test compares the
totals summed over every label set instead.

Regenerate the golden file (only when a metric is *meant* to change) with
``PYTHONPATH=src python tests/test_run_ledger.py``.
"""

import json
from pathlib import Path

import pytest

from repro.engine.benu import run_benu
from repro.engine.config import ADJACENCY_BACKENDS, BenuConfig
from repro.graph.generators import chung_lu
from repro.graph.patterns import get_pattern
from repro.telemetry.snapshot import G_MAKESPAN, G_WALL

GOLDEN = Path(__file__).parent / "golden" / "run_ledger.json"

#: (pattern, compressed): one plain plan and one VCBC plan.
PATTERNS = (("square", False), ("chordal_square", True))

#: (execution backend, workers) whose registries are deterministic.
EXACT_RUNS = (("simulated", 2), ("inline", 2), ("process", 1))

#: Metrics a two-worker process run may not reproduce: the makespan is
#: the busiest worker's share.
UNORDERED_SKIP = (G_WALL, G_MAKESPAN)


def _graph():
    return chung_lu(60, 5.0, exponent=2.3, seed=26)


def _registry(pattern, compressed, execution, workers, adjacency):
    result = run_benu(
        get_pattern(pattern),
        _graph(),
        BenuConfig(
            execution_backend=execution,
            adjacency_backend=adjacency,
            num_workers=workers,
            compressed=compressed,
        ),
    )
    # Through JSON, so the comparison is against exactly what the golden
    # file can hold.
    return json.loads(json.dumps(result.telemetry.registry.as_dict()))


def _exact(pattern, compressed, execution, workers, adjacency):
    metrics = _registry(pattern, compressed, execution, workers, adjacency)
    metrics.pop(G_WALL)
    return metrics


def _totals(metrics):
    """Every sample summed over its ``worker`` label, one number per key."""
    out = {}
    for name, metric in metrics.items():
        if name in UNORDERED_SKIP:
            continue
        for sample in metric["samples"]:
            labels = ",".join(
                f"{k}={v}"
                for k, v in sorted(sample["labels"].items())
                if k != "worker"
            )
            value = sample["value"]
            if metric["kind"] == "histogram":
                fields = {"count": value["count"], "sum": value["sum"]}
                for bucket in value["buckets"]:
                    fields[f"le={bucket['le']}"] = bucket["n"]
            else:
                fields = {"": value}
            for field, v in fields.items():
                key = "/".join(part for part in (name, labels, field) if part)
                out[key] = out.get(key, 0) + v
    return out


def _case(pattern, execution, workers, adjacency):
    return f"{pattern}/{execution}-{workers}/{adjacency}"


def _generate():
    exact = {}
    for pattern, compressed in PATTERNS:
        for adjacency in ADJACENCY_BACKENDS:
            for execution, workers in EXACT_RUNS:
                exact[_case(pattern, execution, workers, adjacency)] = _exact(
                    pattern, compressed, execution, workers, adjacency
                )
    totals = {
        _case(pattern, "process", 2, adjacency): _totals(
            _registry(pattern, compressed, "process", 2, adjacency)
        )
        for pattern, compressed in PATTERNS
        for adjacency in ADJACENCY_BACKENDS
    }
    return {"exact": exact, "totals": totals}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("adjacency", ADJACENCY_BACKENDS)
@pytest.mark.parametrize("execution,workers", EXACT_RUNS)
@pytest.mark.parametrize("pattern,compressed", PATTERNS)
def test_registry_matches_the_golden(
    golden, pattern, compressed, execution, workers, adjacency
):
    got = _exact(pattern, compressed, execution, workers, adjacency)
    assert got == golden["exact"][_case(pattern, execution, workers, adjacency)]


@pytest.mark.parametrize("adjacency", ADJACENCY_BACKENDS)
@pytest.mark.parametrize("pattern,compressed", PATTERNS)
def test_two_process_workers_sum_to_the_golden(
    golden, pattern, compressed, adjacency
):
    got = _totals(_registry(pattern, compressed, "process", 2, adjacency))
    want = golden["totals"][_case(pattern, "process", 2, adjacency)]
    assert got == pytest.approx(want, rel=1e-9)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(_generate(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN}")
