"""Compare two ledger records: ``compare.py A.json B.json`` (A is the base).

Each end-to-end metric may be worse in B than in A by at most its bound in
BENCHMARK.json, per workload; each per-layer metric marked exact must be
identical.  Records taken on boxes that differ in core count, python or
numpy are not compared at all: the command says SKIP, loudly, and exits 2.
Exit 0 means every compared number held, 1 that at least one did not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"

#: Per-layer metrics that are counts of a fixed, seeded work list and must
#: repeat exactly for the same seed.  Not among them, though they are
#: counts: ``kernels.calls`` / ``kernels.vector_share`` (a query's kernel
#: counts are a delta of one process-wide counter, so two shard services
#: running in one process count each other's calls) and
#: ``wire.bytes_per_row`` (every poll reply carries live progress floats,
#: and how many polls come back empty depends on timing).
EXACT = frozenset({
    "lang.rules_fired", "plan.orders_explored", "plan.cache_hit_ratio",
    "service.events_per_query", "service.rejected", "engine.tasks",
    "engine.instr.INT", "engine.instr.ENU", "engine.instr.DBQ",
    "engine.instr.TRC", "engine.instr.RES", "engine.process.shm_bytes",
    "storage.getadj_calls", "storage.getadj_bytes", "storage.cache_hit_ratio",
    "storage.cache_evictions",
})
SAME_BOX = ("cpu_count", "python", "numpy")


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(a: dict, b: dict, benchmark: dict, out=print) -> int:
    env_a, env_b = a["environment"], b["environment"]
    differing = [k for k in SAME_BOX if env_a.get(k) != env_b.get(k)]
    if differing or a.get("seed") != b.get("seed") or a.get("quick") != b.get("quick"):
        out("SKIP " * 12)
        for key in differing:
            out(f"SKIP: {key} differs: {env_a.get(key)!r} vs {env_b.get(key)!r}")
        if a.get("seed") != b.get("seed") or a.get("quick") != b.get("quick"):
            out("SKIP: the records ran different inputs (seed / --quick)")
        out("SKIP: not comparable; nothing was compared")
        return 2
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    bad = 0
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        if wb.get("failed", 0) > wa.get("failed", 0):
            bad += 1
            out(f"REGRESSION {name}: failed {wa.get('failed', 0)} -> {wb['failed']}")
        for metric, spec in bounds.items():
            va = wa.get("end_to_end", {}).get(metric)
            vb = wb.get("end_to_end", {}).get(metric)
            if va is None or vb is None:
                continue
            worse = worsening(va["value"], vb["value"], spec["better"])
            verdict = "ok"
            if worse > spec["bound"]:
                verdict = "REGRESSION"
                bad += 1
            out(f"{verdict:10s} {name:14s} {metric:16s} {va['value']:14.4f} -> "
                f"{vb['value']:14.4f} {spec['unit']:5s} worse by {worse:+.1%} "
                f"(bound {spec['bound']:.0%})")
        for metric in sorted(EXACT):
            va = wa.get("per_layer", {}).get(metric)
            vb = wb.get("per_layer", {}).get(metric)
            if va is not None and vb is not None and va["value"] != vb["value"]:
                bad += 1
                out(f"MISMATCH   {name:14s} {metric} (exact): "
                    f"{va['value']} != {vb['value']}")
    out("all compared numbers held" if not bad else f"{bad} did not hold")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return compare(a, b, benchmark)


if __name__ == "__main__":
    raise SystemExit(main())
