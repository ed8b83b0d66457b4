"""Pluggable execution backends for the BENU task loop.

One logical pipeline — generate local search tasks, run them through a
plan runtime, aggregate worker ledgers into a :class:`BenuResult` — with
the runtime swapped underneath:

==========  ==========================================================
simulated   Deterministic single-core cluster simulation (cost-model
            time, distributed-store modeling, cache experiments).
inline      The literal plan interpreter on the simulated task loop —
            the correctness oracle.
process     A pool of OS worker processes: real cores, shared-memory
            CSR adjacency, streaming enumeration, cancellation.
==========  ==========================================================

Select via ``BenuConfig(execution_backend=...)`` (or ``--execution-backend``
on the CLI); everything above the backend is backend-agnostic.
"""

from __future__ import annotations

from typing import Dict, Type

from .base import (
    ExecutionBackend,
    ExecutionRequest,
    WorkerLedger,
    finish_run,
    mirror,
    packs_rows,
    resolve_tasks,
)
from .inline import InlineBackend, InterpretedPlan
from .process import ProcessBackend
from .simulated import SimulatedBackend

#: Registry keyed by ``BenuConfig.execution_backend`` value.
EXECUTION_BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SimulatedBackend.name: SimulatedBackend,
    InlineBackend.name: InlineBackend,
    ProcessBackend.name: ProcessBackend,
}


def get_backend(name: str, **options) -> ExecutionBackend:
    """Instantiate the execution backend registered under ``name``."""
    try:
        cls = EXECUTION_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown execution backend {name!r}; "
            f"options: {sorted(EXECUTION_BACKENDS)}"
        ) from None
    return cls(**options)


__all__ = [
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "ExecutionRequest",
    "InlineBackend",
    "InterpretedPlan",
    "ProcessBackend",
    "SimulatedBackend",
    "WorkerLedger",
    "finish_run",
    "get_backend",
    "mirror",
    "packs_rows",
    "resolve_tasks",
]
