"""A reference interpreter for execution plans.

Executes instructions one by one with an explicit environment — no code
generation, no peepholes, no early exits beyond the natural empty-loop
skip.  It is deliberately the most literal reading of the plan semantics
(Table III) and serves as the oracle the compiled executor is tested
against: for every plan, graph and start vertex, interpreter and compiled
code must produce identical result multisets.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..plan.codegen import TaskCounters
from ..plan.generation import ExecutionPlan
from ..plan.instructions import VG, FilterKind, Instruction, InstructionType


class _Counters:
    __slots__ = ("int_ops", "trc_ops", "trc_misses", "dbq_ops", "enu_steps", "results")

    def __init__(self) -> None:
        self.int_ops = 0
        self.trc_ops = 0
        self.trc_misses = 0
        self.dbq_ops = 0
        self.enu_steps = 0
        self.results = 0


def _bind_predicates(filters, env) -> list:
    """Resolve each filter to a closed predicate, once per INT execution.

    The environment lookup ``env[f.var]`` and the kind dispatch happen
    here — once per filter — instead of once per candidate × filter
    inside the scan loop.
    """
    checks = []
    for f in filters:
        ref = env[f.var]  # hoisted: the reference is loop-invariant
        kind = f.kind
        if kind is FilterKind.GT:
            checks.append(lambda v, ref=ref: v > ref)
        elif kind is FilterKind.LT:
            checks.append(lambda v, ref=ref: v < ref)
        else:
            checks.append(lambda v, ref=ref: v != ref)
    return checks


def _apply_filters(values, env, filters) -> set:
    checks = _bind_predicates(filters, env)
    if len(checks) == 1:
        chk = checks[0]
        return {v for v in values if chk(v)}
    return {v for v in values if all(chk(v) for chk in checks)}


def interpret_plan(
    plan: ExecutionPlan,
    start: int,
    get_adj: Callable[[int], FrozenSet[int]],
    vset: FrozenSet[int] = frozenset(),
    emit: Optional[Callable] = None,
    tcache: Optional[dict] = None,
    candidate_override: Optional[FrozenSet[int]] = None,
    profiler=None,
) -> TaskCounters:
    """Run one local search task by direct interpretation.

    Mirrors :meth:`repro.plan.codegen.CompiledPlan.run`, including the
    task-splitting override of the second matching-order vertex.

    ``profiler`` (a :class:`repro.telemetry.SamplingProfiler`) samples the
    DBQ round-trips by wrapping ``get_adj`` — the interpreter counterpart
    of the probes codegen compiles into plan functions.
    """
    if profiler is not None:
        get_adj = profiler.timed("DBQ", get_adj)
    instructions = plan.instructions
    counters = _Counters()
    env: Dict[str, object] = {}
    cache = tcache if tcache is not None else {}
    second_fvar = f"f{plan.order[1]}" if len(plan.order) > 1 else None

    constants = plan.constants

    def value_of(name: str):
        if name == VG:
            return vset
        if name in env:
            return env[name]
        return constants[name]

    def execute(pc: int) -> None:
        if pc >= len(instructions):
            return
        inst = instructions[pc]
        kind = inst.type
        if kind is InstructionType.INI:
            env[inst.target] = start
        elif kind is InstructionType.DBQ:
            counters.dbq_ops += 1
            env[inst.target] = get_adj(env[inst.operands[0]])
        elif kind is InstructionType.INT:
            counters.int_ops += 1
            # Operands meet in operand order, as codegen emits ``a & b &
            # …``: a copied hash set may iterate in another order, and the
            # candidate order is the row order.
            sets = [value_of(op) for op in inst.operands]
            result = sets[0]
            for s in sets[1:]:
                result = result & s
            if inst.filters:
                result = _apply_filters(result, env, inst.filters)
            env[inst.target] = result
            if not result:
                return  # empty candidate set: backtrack (Section III-A)
        elif kind is InstructionType.TRC:
            counters.trc_ops += 1
            key = tuple(sorted(env[op] for op in inst.operands[:-2]))
            cached = cache.get(key)
            if cached is None:
                counters.trc_misses += 1
                cached = value_of(inst.operands[-2]) & value_of(
                    inst.operands[-1]
                )
                cache[key] = cached
            env[inst.target] = cached
            if not cached:
                return  # empty candidate set: backtrack (Section III-A)
        elif kind is InstructionType.ENU:
            pool = value_of(inst.operands[0])
            if inst.target == second_fvar and candidate_override is not None:
                pool = pool & candidate_override
            for v in pool:
                counters.enu_steps += 1
                env[inst.target] = v
                execute(pc + 1)
            env.pop(inst.target, None)
            return  # the loop owns the rest of the program
        elif kind is InstructionType.RES:
            counters.results += 1
            if emit is not None:
                slots = []
                for u, op in zip(plan.pattern.vertices, inst.operands):
                    value = value_of(op)
                    if u in plan.compressed_vertices:
                        slots.append(frozenset(value))
                    else:
                        slots.append(value)
                emit(tuple(slots))
            return
        else:  # pragma: no cover
            raise AssertionError(f"unknown instruction {inst}")
        execute(pc + 1)

    execute(0)
    return TaskCounters(
        counters.int_ops,
        counters.trc_ops,
        counters.trc_misses,
        counters.dbq_ops,
        counters.enu_steps,
        counters.results,
    )


def interpret_all(
    plan: ExecutionPlan,
    data_vertices,
    get_adj: Callable[[int], FrozenSet[int]],
    emit: Optional[Callable] = None,
    profiler=None,
) -> TaskCounters:
    """Interpret the plan for every start vertex; sum the counters."""
    vset = frozenset(data_vertices)
    total = TaskCounters()
    for v in data_vertices:
        total = total + interpret_plan(
            plan, v, get_adj, vset, emit, tcache={}, profiler=profiler
        )
    return total
