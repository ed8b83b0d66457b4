"""The perf ledger: one command, six workloads, every layer named.

    python3 benchmarks/ledger/run.py [--workload W ...] [--seed S]
        [--seconds N] [--trace [0|1]] [--quick] [--json OUT] [--pin]

With one ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` - the end-to-end metrics
of BENCHMARK.json with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs (untraced, and
traced too when ``--trace`` is given) and the whole stamped record goes to
``--json``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO_ROOT / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
from procs import leave_nothing_behind  # noqa: E402
from workloads import WORKLOADS, end_to_end_metrics, run_untraced  # noqa: E402

DEFAULT_SEED = 2019


def environment() -> dict:
    """Where a record was taken; compare.py refuses to compare across it."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_1m": os.getloadavg()[0],
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def declared(kind: str) -> dict:
    """name -> declaration of BENCHMARK.json's ``kind`` metrics."""
    with (REPO_ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)[kind]}


def run_workload(name: str, args, traced: bool) -> dict:
    """One contract-shaped result: correct, attempted, failed, metrics."""
    workload = WORKLOADS[name]
    if traced:
        from layers import run_traced

        result = run_traced(workload, args.seed, args.quick)
    else:
        record = run_untraced(workload, args.seed, args.seconds, args.quick)
        attempted = sum(len(p.answers) for p in record.passes)
        result = {
            "correct": record.failed == 0,
            "attempted": attempted,
            "failed": record.failed,
            "metrics": end_to_end_metrics(record),
            "failures": record.failures,
        }
    want = declared("per_layer" if traced else "end_to_end")
    got = result["metrics"]
    if set(got) != set(want):
        raise SystemExit(
            f"{name}: emitted metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"undeclared {sorted(set(got) - set(want))}"
        )
    for metric, (value, unit) in got.items():
        if unit != want[metric]["unit"]:
            raise SystemExit(f"{name}.{metric}: unit {unit!r} is not declared")
        print(f"{name:14s} {metric:38s} {value:16.6f} {unit}")
    for failure in result.get("failures", ()):
        print(f"{name}: FAILED {failure}", file=sys.stderr)
    return result


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    })


def pin() -> None:
    bases = [
        inputs.base_graph(name, size)
        for size in ("full", "quick")
        for name in ("small", "mid", "rows")
    ]
    body = check.pin(bases)
    check.EXPECTED_PATH.write_text(
        json.dumps(body, indent=0, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"pinned {sum(len(g['answers']) for g in body['graphs'].values())} "
          f"answers into {check.EXPECTED_PATH}")


def measure(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the measured phase on the reference box")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="tiny graphs, one pass: a smoke run, not a measurement")
    parser.add_argument("--json", metavar="OUT", help="write the stamped record")
    parser.add_argument("--pin", action="store_true",
                        help="recompute expected.json with the inline oracle")
    args = parser.parse_args(argv)
    if args.pin:
        pin()
        return 0

    env = environment()
    single = args.workload is not None and len(args.workload) == 1
    names = args.workload or list(WORKLOADS)
    record = {"environment": env, "seed": args.seed, "seconds": args.seconds,
              "quick": args.quick, "workloads": {}}
    ok = True
    last = None
    for name in names:
        entry = record["workloads"].setdefault(name, {})
        modes = [bool(args.trace)] if single else (
            [False, True] if args.trace else [False]
        )
        for traced in modes:
            last = run_workload(name, args, traced)
            ok = ok and last["correct"]
            entry["per_layer" if traced else "end_to_end"] = {
                k: {"value": v, "unit": u} for k, (v, u) in last["metrics"].items()
            }
            entry["attempted"] = entry.get("attempted", 0) + last["attempted"]
            entry["failed"] = entry.get("failed", 0) + last["failed"]
    if args.json:
        Path(args.json).write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    if single:
        print(contract_line(last))
    else:
        print(json.dumps({"correct": ok, "workloads": len(names)}))
    return 0 if ok else 1


def main(argv=None) -> int:
    """``measure``, and no process left behind on any way out of it."""
    try:
        return measure(argv)
    finally:
        left = leave_nothing_behind()
        if left:
            print(f"processes were left running and killed: {sorted(left)}",
                  file=sys.stderr)
            raise SystemExit(1)


if __name__ == "__main__":
    raise SystemExit(main())
