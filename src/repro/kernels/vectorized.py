"""The numpy-vs-python intersection probe behind ``kernels.crossover``.

No intersection site dispatches to numpy: every compiled row ∩ row is
a frozenset expression.  What is left here is
the timing probe whose only caller is the benchmark ledger's per-layer
``kernels.crossover`` metric (``benchmarks/ledger/layers.py``); the
benchmark-only ledger change (ROADMAP item 3) deletes it together
with that metric.  Nothing under ``src/repro`` imports this module.
"""

from __future__ import annotations

import time
from typing import Tuple

__all__ = ["measure_crossover"]


def measure_crossover(
    sizes: Tuple[int, ...] = (32, 64, 128, 256, 512, 1024),
    repeats: int = 5,
) -> int:
    """Smallest operand size at which numpy beats the python merge kernel.

    Times :func:`repro.kernels.intersect.intersect_merge` against
    ``np.intersect1d(assume_unique=True)`` (including the ``.tolist()``
    a caller would pay) on half-overlapping sorted operands of each
    candidate size and returns the first size where numpy wins; if it
    never wins, four times the largest probe.  Requires numpy.
    """
    import numpy as np

    from .intersect import intersect_merge

    for n in sizes:
        py_a = list(range(0, 2 * n, 2))
        py_b = list(range(n, n + 2 * n, 2))
        np_a = np.asarray(py_a, dtype=np.int64)
        np_b = np.asarray(py_b, dtype=np.int64)
        best_py = best_np = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            intersect_merge(py_a, py_b)
            best_py = min(best_py, time.perf_counter() - t0)
            t0 = time.perf_counter()
            np.intersect1d(np_a, np_b, assume_unique=True).tolist()
            best_np = min(best_np, time.perf_counter() - t0)
        if best_np < best_py:
            return n
    return sizes[-1] * 4
