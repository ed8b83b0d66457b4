"""Two runs, one answer: a query's rows are a function of (graph, plan).

BENU's local search tasks are deterministic units, and every execution
backend hands their rows to the sink in task order.  So a streamed, a
projected, a limited and a counted query must give one answer on the
simulated, inline, 1-process and 2-process backends, and on a
2-process pool whose workers crash and whose lost chunks run again — and
again in a fresh interpreter with another ``PYTHONHASHSEED``:

* the rows of a query are one byte sequence across every cell and both
  runs;
* a LIMIT keeps the unlimited stream's prefix;
* a LIMIT query returns a result, whose counters (every task through the
  chunk that filled the limit) repeat exactly from run to run;
* the counts agree everywhere.

Each run is this file executed as a script in a subprocess, which prints
one JSON document.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

#: (execution backend, workers, fault schedule).
CELLS = (
    ("simulated", 2, None),
    ("inline", 2, None),
    ("process", 1, None),
    ("process", 2, None),
    ("process", 2, "worker.task:crash@3"),
)
STREAMS = {
    "stream": "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN *",
    "projection": "MATCH (a)-(b), (b)-(c), (c)-(d) RETURN d, a",
}
COUNT = "MATCH (a)-(b), (b)-(c), (c)-(d) RETURN COUNT(*)"
LIMIT = 17
HASH_SEEDS = ("1", "2")


def _bytes(rows) -> bytes:
    return b"\n".join(b",".join(str(v).encode() for v in row) for row in rows)


def main() -> None:
    """One run of the whole matrix; prints ``{cell: {query: answer}}``."""
    from repro.engine.config import BenuConfig
    from repro.graph.generators import chung_lu
    from repro.graph.graph import Graph
    from repro.service import BenuService

    # Ids far from 0..n-1, so neighbour sets collide in their hash tables
    # and the translation back is never the identity.
    base = chung_lu(150, 6.0, exponent=2.3, seed=11)
    graph = Graph((1000 + 7 * u, 1000 + 7 * v) for u, v in base.edges())
    out = {}
    for execution, workers, faults in CELLS:
        config = BenuConfig(
            execution_backend=execution,
            num_workers=workers,
            split_threshold=16,  # split tasks carry candidate slices
            faults=faults,
        )
        name = f"{execution}x{workers}" + ("+crash" if faults else "")
        cell = out[name] = {}
        with BenuService(config=config) as service:
            service.register_graph("g", graph)
            for name, text in STREAMS.items():
                rows = _bytes(service.submit_query(text, "g").matches())
                handle = service.submit_query(text, "g", limit=LIMIT)
                limited = _bytes(handle.matches())
                assert handle.wait(timeout=60)
                result = handle.result()
                head = b"\n".join(rows.split(b"\n")[:LIMIT])
                cell[name] = {
                    "rows": hashlib.sha256(rows).hexdigest(),
                    "prefix": head == limited,
                    "limited": limited.decode(),
                    "limit_counters": (
                        None if result is None else astuple(result.counters)
                    ),
                }
            handle = service.submit_query(COUNT, "g")
            assert handle.wait(timeout=60)
            cell["count"] = handle.result().count
            cell["crashes"] = handle.result().worker_crashes
    json.dump(out, sys.stdout)


@pytest.fixture(scope="module")
def runs():
    """The matrix, run in two fresh interpreters with different hash seeds."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    answers = []
    for seed in HASH_SEEDS:
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, __file__],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        answers.append(json.loads(proc.stdout))
    return answers


def _cells(runs):
    return [
        (i, cell, answer)
        for i, run in enumerate(runs)
        for cell, answer in run.items()
    ]


@pytest.mark.parametrize("query", sorted(STREAMS))
def test_rows_are_one_byte_sequence_everywhere(runs, query):
    digests = {(i, cell): a[query]["rows"] for i, cell, a in _cells(runs)}
    assert len(digests) == 2 * len(CELLS)
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("query", sorted(STREAMS))
def test_limit_keeps_the_unlimited_prefix(runs, query):
    limited = {(i, cell): a[query]["limited"] for i, cell, a in _cells(runs)}
    for (i, cell), rows in limited.items():
        assert runs[i][cell][query]["prefix"], (i, cell)
        assert rows.count("\n") == LIMIT - 1, (i, cell)
    assert len(set(limited.values())) == 1, limited


@pytest.mark.parametrize("query", sorted(STREAMS))
def test_limit_returns_repeatable_counters(runs, query):
    first, second = runs
    for cell in first:
        counters = first[cell][query]["limit_counters"]
        assert counters is not None, cell  # a LIMIT is a success
        assert counters == second[cell][query]["limit_counters"], cell


def test_counts_agree(runs):
    counts = {(i, cell): a["count"] for i, cell, a in _cells(runs)}
    assert len(set(counts.values())) == 1 and min(counts.values()) > 0, counts


def test_only_the_crash_cell_lost_workers(runs):
    crashes = {(i, cell): a["crashes"] for i, cell, a in _cells(runs)}
    for (i, cell), lost in crashes.items():
        assert (lost > 0) == cell.endswith("+crash"), crashes


if __name__ == "__main__":
    main()
