"""The inline (interpreter) execution backend.

Runs the exact same task loop as the simulated backend — same store,
worker caches, control checks, sinks and telemetry — but executes each
local search task through :func:`repro.engine.interpreter.interpret_plan`
instead of a compiled closure.  It is the slowest backend and the most
literal one: no code generation, no peepholes, no kernel dispatch — the
plan semantics of Table III, instruction by instruction.

Use it as the oracle runtime (the backend-equivalence matrix pins all
three backends to identical match sets), or to debug a plan whose
compiled execution misbehaves.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional, Tuple

from ...plan.codegen import COUNTER_FIELDS, TaskCounters
from ...plan.generation import ExecutionPlan
from ..interpreter import interpret_plan
from .base import ExecutionRequest
from .simulated import SimulatedBackend


class InterpretedPlan:
    """Adapter giving :func:`interpret_plan` the compiled-plan run protocol.

    Workers call ``runner.run(start, get_adj, ...)`` without caring
    whether the runner is generated code or the interpreter — this class
    is what makes the interpreter a drop-in runtime.
    """

    mode = "interpret"

    def __init__(self, plan: ExecutionPlan, profiler=None) -> None:
        self.plan = plan
        self.profiler = profiler

    def run(
        self,
        start: int,
        get_adj: Callable[[int], FrozenSet[int]],
        vset=(),
        emit: Optional[Callable] = None,
        tcache: Optional[dict] = None,
        candidate_override: Optional[FrozenSet[int]] = None,
    ) -> TaskCounters:
        return interpret_plan(
            self.plan,
            start,
            get_adj,
            vset=vset,
            emit=emit,
            tcache=tcache if tcache is not None else {},
            candidate_override=candidate_override,
            profiler=self.profiler,
        )

    def run_raw(self, *args, **kwargs) -> Tuple[int, ...]:
        counters = self.run(*args, **kwargs)
        return tuple(getattr(counters, f) for f in COUNTER_FIELDS)


class InlineBackend(SimulatedBackend):
    """The simulated task loop driven by the plan interpreter."""

    name = "inline"

    def _make_runner(self, request: ExecutionRequest, mode, profiler, tracer):
        with tracer.span("codegen") as span:
            span.args.update(mode=mode, interpreted=True)
        return InterpretedPlan(request.plan, profiler=profiler)
