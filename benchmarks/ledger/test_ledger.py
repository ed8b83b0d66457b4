"""Checks of the ledger itself; outside tier-1, run explicitly:

    python -m pytest benchmarks/ledger -q

They drive ``run.py --quick`` (tiny graphs, one pass, seconds per workload):
every metric BENCHMARK.json declares is emitted with its unit, nothing
undeclared is, every trace validates, and no wrapper survives a traced run.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO_ROOT / "src"))

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=180,
    )


def test_benchmark_json_keeps_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(WORKLOADS) <= 8 and len(set(WORKLOADS)) == len(WORKLOADS)
    names = WORKLOADS[:]
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names)), "a name is used twice"
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in BENCHMARK["end_to_end"]
    )
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200


def test_exact_metrics_are_declared():
    from compare import EXACT

    assert EXACT <= {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", [0, 1])
def test_every_declared_metric_is_emitted(workload, traced):
    done = run("--workload", workload, "--quick", "--seed", "7",
               "--trace", str(traced))
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {
        m["name"]: m["unit"]
        for m in BENCHMARK["per_layer" if traced else "end_to_end"]
    }
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    from repro.telemetry import validate_chrome_trace

    trace_file = HERE / "out" / f"trace_{workload}.json"
    chrome = json.loads(trace_file.read_text())
    assert validate_chrome_trace(chrome) == []
    assert chrome["traceEvents"], "a traced run records spans"
    assert chrome["ledger"]["workload"] == workload


def test_a_run_leaves_no_process_behind():
    """As this process adopts orphans, one left by a run - the resource
    tracker that the process backend's shared memory starts, say - would
    turn up as a child of ours."""
    subreaper = 36  # PR_SET_CHILD_SUBREAPER
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    assert prctl(subreaper, 1, 0, 0, 0) == 0
    try:
        done = run("--workload", "enum_process", "--quick", "--trace", "1")
        assert done.returncode == 0, done.stderr[-2000:]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        prctl(subreaper, 0, 0, 0, 0)


def test_wrappers_are_fully_uninstalled():
    import spans

    recorder = spans.Recorder()
    spans.install(recorder)
    assert spans.still_wrapped(), "install binds wrappers"
    spans.uninstall()
    assert spans.still_wrapped() == []

    from repro.lang import lower_query

    lower_query("MATCH (a)-(b) RETURN COUNT(*)")
    assert recorder.spans == [], "an uninstalled wrapper still recorded"


def test_wrong_answers_and_changed_inputs_are_caught():
    import check
    import inputs

    expected = check.load_expected()
    graph = inputs.seeded_graph(inputs.base_graph("mid", "quick"), 7)
    template = inputs.Template(inputs.named_pattern("square"))
    checker = check.Checker(graph, expected)
    right = checker.expected(template)["count"]
    assert checker.count(template, right)
    assert not checker.count(template, right + 1)

    expected["graphs"]["mid.quick"]["sha256"] = "0" * 64
    with pytest.raises(SystemExit, match="pinned sha256"):
        check.Checker(graph, expected)


def test_compare_skips_across_boxes_and_flags_regressions():
    from compare import compare

    def record(cpu_count, wall, exact):
        return {
            "environment": {"cpu_count": cpu_count, "python": "3", "numpy": "2"},
            "seed": 1, "quick": False,
            "workloads": {"w": {
                "failed": 0,
                "end_to_end": {"wall_s": {"value": wall, "unit": "s"}},
                "per_layer": {"engine.tasks": {"value": exact, "unit": "count"}},
            }},
        }

    lines = []
    assert compare(record(2, 1.0, 5), record(4, 1.0, 5), BENCHMARK, lines.append) == 2
    assert any(line.startswith("SKIP") for line in lines)
    assert compare(record(2, 1.0, 5), record(2, 1.1, 5), BENCHMARK, lines.append) == 0
    assert compare(record(2, 1.0, 5), record(2, 1.5, 5), BENCHMARK, lines.append) == 1
    assert compare(record(2, 1.0, 5), record(2, 1.0, 6), BENCHMARK, lines.append) == 1
