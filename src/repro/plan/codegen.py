"""Compile execution plans to Python closures.

The paper notes a concrete execution plan "can be converted to the actual
code easily" (Section III-B) — this module does exactly that.  Each plan
becomes one generated Python function of nested ``for`` loops over
``set.intersection`` results, which is the only way a pure-Python
reproduction gets a usable hot loop (every set operation runs in C).

Two compilation modes:

* ``count``   — the function returns how many RES executions happened
  (match count for uncompressed plans, code count for compressed ones).
  Nothing observes the order candidates are visited in, so seven rules
  apply that ``collect`` must not use (they change how a counted step is
  executed, never how many steps are counted, and every ``get_adj`` call
  still happens, in the same order):

  - *len() peephole*: an innermost loop ``for f in C: n += 1`` becomes
    ``n += len(C)``.
  - *count tail*: when the INT producing that ``C`` feeds nothing else
    (and the loop is not the task-splitting level, and no profiling
    probes are compiled in) ``C`` is never built: its injectivity
    filters become ``- (f in S)`` terms on ``len(S)`` — a partial match
    is injective, so the excluded scalars are pairwise distinct — and
    its symmetry bounds stay one comprehension without them.  The len()
    peephole remains the fallback for tails this rule rejects.
  - *NE difference*: any other INT whose filters are all injectivity
    filters is the C-level ``S - {f1, f2}``, whose result iterates in a
    different order than the comprehension's.
  - *lifted tail*: a membership-only count tail right under its loop
    ``for f in C`` (``S`` cannot depend on ``f``; not the splitting
    level) is summed in closed form: ``_c = _n * (len(S) - Σ(x in S)) -
    len(C & S)`` with ``_n = len(C)``, and ``n_int += _n``.
  - *pair tail*: a count tail right under its loop ``for f in S`` whose
    one filter bounds its own loop's set by ``f`` (``> f`` or ``< f``;
    not the splitting level) counts each unordered pair of ``S`` once:
    ``_c = _n * (_n - 1) // 2`` with ``_n = len(S)``.
  - *hoisted bound*: a count tail bounding ``T = X & Y`` — an INT that
    feeds only the tail — where ``X`` and every bound vertex are fixed
    outside the innermost loop filters ``X`` once per pass of that loop
    into ``_g`` (lazily: on the first iteration that reaches the tail),
    counts ``len(_g & Y)``, and keeps the feeder only as its early exit,
    ``X.isdisjoint(Y)``.
  - *loop-head ticks*: a loop body runs straight until its first early
    exit, so the DBQs before it and the INT or TRC that owns it tick
    once per candidate; the loop head books them as ``+= _n``.
* ``collect`` — every result is passed to an ``emit`` callback as a tuple
  indexed by sorted pattern vertex (compressed set slots are frozen).

In both modes a bound filter that the plan's conditions already imply is
not emitted: once ``f1 < f2`` holds for the mapped vertices, ``v > f1 and
v > f2`` is ``v > f2``.  The same elements pass, in the same order.

There is one compute form: ``get_adj`` serves hash sets (the data graph's
own neighbour frozensets, whatever byte price the store puts on them),
and every INT/TRC site is a C-level set expression over them.

Every function counts INT/TRC/DBQ/ENU executions and triangle-cache
misses — the quantities the paper's cost model and experiments are
defined over.  Empty intersection results short-circuit the current
branch, the backtracking early-stop of Section III-A.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .generation import ExecutionPlan
from .instructions import (
    VG,
    Filter,
    FilterKind,
    Instruction,
    InstructionType,
    fvar,
)

#: Per-task execution counters, in the order the generated tuple returns.
COUNTER_FIELDS = (
    "int_ops",      # INT executions (computation cost unit)
    "trc_ops",      # TRC executions
    "trc_misses",   # TRC executions that had to compute the intersection
    "dbq_ops",      # DBQ executions (communication cost unit)
    "enu_steps",    # total ENU loop iterations
    "results",      # RES executions
)
#: Positions the per-task loops read straight off a raw counter tuple.
INT_OPS = COUNTER_FIELDS.index("int_ops")
DBQ_OPS = COUNTER_FIELDS.index("dbq_ops")
ENU_STEPS = COUNTER_FIELDS.index("enu_steps")
RESULTS = COUNTER_FIELDS.index("results")


@dataclass(frozen=True)
class TaskCounters:
    """Counters from one local search task."""

    int_ops: int = 0
    trc_ops: int = 0
    trc_misses: int = 0
    dbq_ops: int = 0
    enu_steps: int = 0
    results: int = 0

    def __add__(self, other: "TaskCounters") -> "TaskCounters":
        return TaskCounters(
            *(getattr(self, f) + getattr(other, f) for f in COUNTER_FIELDS)
        )

    @property
    def trc_hits(self) -> int:
        return self.trc_ops - self.trc_misses

    @classmethod
    def from_tuple(cls, values: Sequence[int]) -> "TaskCounters":
        return cls(*values)



@dataclass
class CompiledPlan:
    """A plan compiled to a callable, plus its generated source."""

    plan: ExecutionPlan
    mode: str
    source: str
    _function: Callable
    #: True when sampling profiling probes were compiled in.
    profiled: bool = False

    def run_raw(
        self,
        start: int,
        get_adj: Callable[[int], FrozenSet[int]],
        vset: Sequence[int] = (),
        emit: Optional[Callable] = None,
        tcache: Optional[dict] = None,
        candidate_override: Optional[FrozenSet[int]] = None,
    ) -> Tuple[int, ...]:
        """Execute one local search task rooted at ``start``.

        Returns the task's counters as the plain tuple the generated
        function produces, in :data:`COUNTER_FIELDS` order — what the
        per-task loops of the backends keep.  ``candidate_override``
        replaces the candidate set of the *second* matching-order vertex —
        the hook task splitting (Section V-B) uses to hand each subtask a
        slice of C_{k2}.
        """
        if tcache is None:
            tcache = {}
        return self._function(
            start, get_adj, vset, emit, tcache, candidate_override
        )

    def run(self, *args, **kwargs) -> TaskCounters:
        """:meth:`run_raw`, with the counters as a :class:`TaskCounters`."""
        return TaskCounters.from_tuple(self.run_raw(*args, **kwargs))


#: The counter one execution of an instruction ticks, where a loop head
#: may book it (see ``emit_loop_head``).
_TICKS = {
    InstructionType.DBQ: "n_dbq",
    InstructionType.INT: "n_int",
    InstructionType.TRC: "n_trc",
}


def _hoisted_bound(
    instructions: Sequence[Instruction], tail: int, loop: int
) -> Optional[Tuple[int, str, str]]:
    """(feeder index, X, Y) when the count tail at ``tail`` bounds ``T = X
    & Y`` and the bounds can move onto ``X``, else None.

    ``T`` must come from a filter-free two-operand INT inside the loop
    (the ENU at ``loop``) that nothing but the tail reads; ``X`` and every
    bound vertex must be defined before the loop.  Operands no instruction
    defines (``V``, label pools) are fixed everywhere.
    """
    inst = instructions[tail]
    bounds = [f for f in inst.filters if f.kind is not FilterKind.NE]
    defined_at = {
        other.target: i
        for i, other in enumerate(instructions)
        if other.type is not InstructionType.RES
    }
    feed = defined_at.get(inst.operands[0]) if len(inst.operands) == 1 else None
    if not bounds or feed is None or feed < loop:
        return None
    feeder = instructions[feed]
    if (
        feeder.type is not InstructionType.INT
        or feeder.filters
        or len(feeder.operands) != 2
        or any(defined_at.get(f.var, -1) >= loop for f in bounds)
        or any(
            feeder.target in other.operands
            for i, other in enumerate(instructions)
            if i not in (feed, tail)
        )
    ):
        return None
    fixed = [op for op in feeder.operands if defined_at.get(op, -1) < loop]
    if not fixed:
        return None
    x_op = fixed[0]
    y_op = feeder.operands[1 - feeder.operands.index(x_op)]
    return feed, _operand_expr(x_op), _operand_expr(y_op)


def _without_implied_bounds(plan: ExecutionPlan) -> List[Instruction]:
    """``plan.instructions`` less every bound filter another bound of the
    same INT implies under the conditions between mapped vertices.

    Each mapped vertex was drawn from a set that honours its conditions
    with the vertices mapped before it, so the transitive closure of the
    conditions among the mapped ones holds: ``> fa`` goes when ``> fb``
    stays and ``fa < fb``; ``< fb`` goes when ``< fa`` stays.
    """
    mapped: Set[str] = set()
    out: List[Instruction] = []
    for inst in plan.instructions:
        bounds = [f for f in inst.filters if f.kind is not FilterKind.NE]
        if len(bounds) > 1:
            below = _closure(
                (fvar(lo), fvar(hi)) for lo, hi in plan.conditions
                if fvar(lo) in mapped and fvar(hi) in mapped
            )

            def implied(f: Filter) -> bool:
                for g in bounds:
                    if g.kind is f.kind:
                        gt = f.kind is FilterKind.GT
                        if ((f.var, g.var) if gt else (g.var, f.var)) in below:
                            return True
                return False

            inst = inst.with_filters([f for f in inst.filters if not implied(f)])
        if inst.type in (InstructionType.INI, InstructionType.ENU):
            mapped.add(inst.target)
        out.append(inst)
    return out


def _closure(pairs: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """The transitive closure of a relation given as pairs."""
    closed = set(pairs)
    while True:
        more = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not more:
            return closed
        closed |= more


def _filter_expr(var: str, filters: Sequence[Filter]) -> str:
    """The comprehension condition realizing the filtering conditions."""
    parts = []
    for f in filters:
        if f.kind is FilterKind.GT:
            parts.append(f"{var} > {f.var}")
        elif f.kind is FilterKind.LT:
            parts.append(f"{var} < {f.var}")
        else:
            parts.append(f"{var} != {f.var}")
    return " and ".join(parts)


def _operand_expr(op: str) -> str:
    return "vset" if op == VG else op


class _Emitter:
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self._buf = io.StringIO()
        self.depth = 0

    def line(self, text: str) -> None:
        self._buf.write("    " * self.depth + text + "\n")

    def source(self) -> str:
        return self._buf.getvalue()


def generate_source(
    plan: ExecutionPlan,
    mode: str = "count",
    function_name: str = "_benu_task",
    profile: bool = False,
) -> str:
    """Generate the Python source for one plan (see module docstring).

    With ``profile=True`` every DBQ/INT/TRC site is emitted twice behind a
    sampling gate (``_prof_tick``): the gated branch wall-times the
    instruction and reports it via ``_prof_rec``, the other branch is the
    plain instruction (a profiled compile keeps every site plain: none of
    count mode's order-blind rules).  Without it no probe is emitted and
    the default path pays zero overhead.
    """
    if mode not in ("count", "collect"):
        raise ValueError(f"mode must be 'count' or 'collect', got {mode!r}")
    if not plan.defined_before_use():
        raise ValueError("plan uses variables before definition")

    instructions = _without_implied_bounds(plan)
    out = _Emitter()
    out.line(
        f"def {function_name}(start, get_adj, vset, emit, tcache, c2_override):"
    )
    out.depth += 1
    out.line("n_int = 0; n_trc = 0; n_trc_miss = 0; n_dbq = 0")
    out.line("n_enu = 0; n_res = 0")
    counters = "(n_int, n_trc, n_trc_miss, n_dbq, n_enu, n_res)"

    # The ENU of the second matching-order vertex accepts the task-splitting
    # override of its candidate set.
    second_fvar = fvar(plan.order[1]) if len(plan.order) > 1 else None

    def early_exit(var: str) -> None:
        # Inside a loop a doomed branch skips to the next candidate; at the
        # top level the whole task is finished.
        if out.depth > 1:
            out.line(f"if not {var}: continue")
        else:
            out.line(f"if not {var}: return {counters}")

    def profiled(label: str, body: Callable[[], None]) -> None:
        # Emit an instruction site, optionally behind the sampling gate.
        if not profile:
            body()
            return
        out.line("if _prof_tick():")
        out.depth += 1
        out.line("_t0 = _prof_now()")
        body()
        out.line(f"_prof_rec({label!r}, _prof_now() - _t0)")
        out.depth -= 1
        out.line("else:")
        out.depth += 1
        body()
        out.depth -= 1

    last_enu_index = max(
        (i for i, inst in enumerate(instructions) if inst.type is InstructionType.ENU),
        default=-1,
    )

    # Count-only lowerings (module docstring) rewrite INT sites in ways that
    # change candidate order; profiled compiles keep every site plain.
    unordered = mode == "count" and not profile

    def tail_operand(inst: Instruction) -> str:
        # A multi-operand INT does its ``&`` once, in C.
        ops = [_operand_expr(o) for o in inst.operands]
        if len(ops) == 1:
            return ops[0]
        out.line("_s = " + " & ".join(ops))
        return "_s"

    def emit_count_tail(inst: Instruction) -> None:
        # A partial match is injective, so the NE-excluded scalars are
        # pairwise distinct and each one found in the set (and inside the
        # GT/LT bounds) takes exactly one off the count.
        bounds = [f for f in inst.filters if f.kind is not FilterKind.NE]
        excluded = [f.var for f in inst.filters if f.kind is FilterKind.NE]
        if hoist is not None:
            # The bounds were applied to the invariant operand: ``_g``.
            _, x_op, y_op = hoist
            out.line(f"if _g is None: _g = {{v for v in {x_op} if "
                     f"{_filter_expr('v', bounds)}}}")
            terms = [f"len(_g & {y_op})"] + [
                f"({x} in _g and {x} in {y_op})" for x in excluded
            ]
        elif bounds:
            src = tail_operand(inst)
            cond = _filter_expr("v", bounds)
            terms = [f"len([v for v in {src} if {cond}])"] + [
                f"({x} in {src} and {_filter_expr(x, bounds)})"
                for x in excluded
            ]
        else:
            src = tail_operand(inst)
            terms = [f"len({src})"] + [f"({x} in {src})" for x in excluded]
        out.line("_c = " + " - ".join(terms))

    def emit_lifted_tail(inst: Instruction, f: str, candidates: str) -> None:
        # The membership-only tail summed over ``for f in candidates``:
        # every term but ``(f in S)`` is loop-invariant, and the ``(f in
        # S)`` terms add up to ``len(candidates & S)``.
        src = tail_operand(inst)
        excluded = [flt.var for flt in inst.filters]
        fixed = " - ".join(
            [f"len({src})"] + [f"({x} in {src})" for x in excluded if x != f]
        )
        out.line(f"_n = len({candidates})")
        out.line("n_enu += _n")
        line = f"_c = _n * ({fixed})"
        if f in excluded:
            line += f" - len({candidates} & {src})"
        out.line(line)
        out.line("n_int += _n")
        out.line("n_enu += _c")
        out.line("n_res += _c")

    def emit_pair_tail(candidates: str) -> None:
        # ``for f in S: _c = len([v for v in S if v > f])`` counts every
        # unordered pair of S once (``<`` as well).
        out.line(f"_n = len({candidates})")
        out.line("n_enu += _n")
        out.line("n_int += _n")
        out.line("_c = _n * (_n - 1) // 2")
        out.line("n_enu += _c")
        out.line("n_res += _c")

    # The count tail: the INT feeding only the last ENU, which only counts
    # RES and is not the task-splitting level.  Its candidate set is never
    # read, only measured, so ``emit_count_tail`` computes ``_c`` = its
    # cardinality without building it.
    tail = last_enu_index - 1
    if not (
        unordered
        and tail >= 0
        and instructions[tail].type is InstructionType.INT
        and instructions[last_enu_index].operands[0] == instructions[tail].target
        and instructions[last_enu_index].target != second_fvar
        and all(
            later.type is InstructionType.RES
            for later in instructions[last_enu_index + 1 :]
        )
    ):
        tail = None
    # The innermost loop around the tail, and which of the three
    # loop-invariant rewrites (module docstring) applies to it.
    loop = lift = pair = hoist = None
    if tail is not None:
        loop = max(
            (i for i in range(tail) if instructions[i].type is InstructionType.ENU),
            default=None,
        )
    if loop is not None:
        # ``lift``: the tail sits right under its loop and only subtracts
        # memberships, so the loop collapses to arithmetic on its size.
        under = loop == tail - 1 and instructions[loop].target != second_fvar
        filters = instructions[tail].filters
        lift = under and all(f.kind is FilterKind.NE for f in filters)
        # ``pair``: the tail bounds its own loop's set by the loop vertex.
        pair = (
            under
            and instructions[tail].operands == instructions[loop].operands
            and len(filters) == 1
            and filters[0].kind is not FilterKind.NE
            and filters[0].var == instructions[loop].target
        )
        if not (lift or pair):
            hoist = _hoisted_bound(instructions, tail, loop)

    # Instructions whose ``+= 1`` the head of their loop books at once.
    batched = set()

    def tick(idx: int, counter: str) -> None:
        if idx not in batched:
            out.line(f"{counter} += 1")

    def emit_loop_head(idx: int, candidates: str) -> None:
        # A loop body runs straight until its first early exit: the DBQs
        # before it, and the INT or TRC that owns it, execute once per
        # candidate.  Counting only, their ticks become one ``+= _n``.
        head: Dict[str, int] = {}
        for j in range(idx + 1, len(instructions) if unordered else 0):
            counter = _TICKS.get(instructions[j].type)
            if counter is None:
                break
            batched.add(j)
            head[counter] = head.get(counter, 0) + 1
            if counter != "n_dbq":
                break
        if not head:
            out.line(f"n_enu += len({candidates})")
            return
        out.line(f"_n = len({candidates})")
        out.line("n_enu += _n")
        for counter, times in head.items():
            out.line(f"{counter} += {times} * _n" if times > 1 else f"{counter} += _n")

    for idx, inst in enumerate(instructions):
        if inst.type is InstructionType.INI:
            out.line(f"{inst.target} = start")

        elif inst.type is InstructionType.DBQ:
            def dbq_body(inst=inst, idx=idx):
                out.line(f"{inst.target} = get_adj({inst.operands[0]})")
                tick(idx, "n_dbq")

            profiled("DBQ", dbq_body)

        elif inst.type is InstructionType.INT:
            if hoist is not None and idx == hoist[0]:
                # The hoisted tail's feeder: only its emptiness is read.
                tick(idx, "n_int")
                out.line(f"if {hoist[1]}.isdisjoint({hoist[2]}): continue")
                continue
            if idx == tail:
                emit_count_tail(inst)
                tick(idx, "n_int")
                out.line("n_enu += _c")
                out.line("n_res += _c")
                break

            def int_body(inst=inst, idx=idx):
                ops = [_operand_expr(o) for o in inst.operands]
                if inst.filters:
                    src = ops[0] if len(ops) == 1 else "(" + " & ".join(ops) + ")"
                    if unordered and all(
                        f.kind is FilterKind.NE for f in inst.filters
                    ):
                        # Row order is unobservable when only counting, so
                        # injectivity is one C-level set difference.
                        excluded = ", ".join(f.var for f in inst.filters)
                        out.line(f"{inst.target} = {src} - {{{excluded}}}")
                    else:
                        cond = _filter_expr("v", inst.filters)
                        out.line(
                            f"{inst.target} = {{v for v in {src} if {cond}}}"
                        )
                else:
                    if len(ops) == 1:
                        out.line(f"{inst.target} = {ops[0]}")
                    else:
                        out.line(f"{inst.target} = " + " & ".join(ops))
                tick(idx, "n_int")

            profiled("INT", int_body)
            early_exit(inst.target)

        elif inst.type is InstructionType.TRC:
            def trc_body(inst=inst, idx=idx):
                keys = inst.operands[:-2]
                ai, aj = inst.operands[-2:]
                if len(keys) == 2:
                    fi, fj = keys
                    out.line(f"_k = ({fi}, {fj}) if {fi} < {fj} else ({fj}, {fi})")
                else:
                    out.line(f"_k = tuple(sorted(({', '.join(keys)})))")
                out.line(f"{inst.target} = tcache.get(_k)")
                out.line(f"if {inst.target} is None:")
                out.depth += 1
                out.line(f"{inst.target} = {ai} & {aj}")
                out.line(f"tcache[_k] = {inst.target}")
                out.line("n_trc_miss += 1")
                out.depth -= 1
                tick(idx, "n_trc")

            profiled("TRC", trc_body)
            early_exit(inst.target)

        elif inst.type is InstructionType.ENU:
            source_var = _operand_expr(inst.operands[0])
            if inst.target == second_fvar:
                # Task-splitting hook: subtasks enumerate a slice of C_{k2}.
                # A fresh name keeps the original set intact for later reads.
                out.line(
                    f"_c2 = {source_var} if c2_override is None "
                    f"else ({source_var} & c2_override)"
                )
                source_var = "_c2"
            if lift and idx == loop:
                emit_lifted_tail(instructions[tail], inst.target, source_var)
                break
            if pair and idx == loop:
                emit_pair_tail(source_var)
                break
            # Peephole: an innermost loop whose body is just counting RES
            # collapses to a len().
            is_innermost_count = (
                mode == "count"
                and idx == last_enu_index
                and all(
                    nxt.type is InstructionType.RES
                    for nxt in instructions[idx + 1 :]
                )
            )
            if is_innermost_count:
                out.line(f"n_enu += len({source_var})")
                out.line(f"n_res += len({source_var})")
                break
            emit_loop_head(idx, source_var)
            if hoist is not None and idx == loop:
                out.line("_g = None")
            out.line(f"for {inst.target} in {source_var}:")
            out.depth += 1

        elif inst.type is InstructionType.RES:
            if mode == "count":
                out.line("n_res += 1")
            else:
                set_vars = {
                    # Compressed vertices report their candidate set.
                    op
                    for u, op in zip(plan.pattern.vertices, inst.operands)
                    if u in plan.compressed_vertices
                }
                slots = [
                    f"frozenset({op})" if op in set_vars else op
                    for op in inst.operands
                ]
                out.line(f"emit(({', '.join(slots)}))")
                out.line("n_res += 1")
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unknown instruction type {inst.type}")

    out.depth = 1
    out.line(f"return {counters}")
    return out.source()


def compile_plan(
    plan: ExecutionPlan,
    mode: str = "count",
    profiler=None,
) -> CompiledPlan:
    """Compile a plan into an executable :class:`CompiledPlan`.

    ``profiler`` (a :class:`repro.telemetry.SamplingProfiler`) compiles
    sampling probes into every DBQ/INT/TRC site; None (the default)
    generates exactly the unprofiled source.

    An unprofiled compile — what every execution backend asks for — is
    memoised on the plan per ``mode``, so a plan served from a plan cache
    is generated and compiled once, not once per query.  The memo entry
    remembers the instructions and constants it was compiled from and is
    ignored once the plan no longer has them.

    >>> from repro.graph.patterns import TRIANGLE
    >>> from repro.graph.graph import complete_graph
    >>> from repro.pattern.pattern_graph import PatternGraph
    >>> from repro.plan.generation import generate_raw_plan
    >>> plan = generate_raw_plan(PatternGraph(TRIANGLE), [1, 2, 3])
    >>> compiled = compile_plan(plan)
    >>> g = complete_graph(4, offset=0)
    >>> total = sum(
    ...     compiled.run(v, g.neighbors).results for v in g.vertices
    ... )
    >>> total  # 4 triangles in K4, symmetry breaking dedups automorphisms
    4
    """
    memo = None
    if profiler is None:
        compiled_from = (tuple(plan.instructions), dict(plan.constants))
        memo = plan.__dict__.setdefault("_compiled", {})
        hit = memo.get(mode)
        if hit is not None and hit[0] == compiled_from:
            return hit[1]
    source = generate_source(plan, mode=mode, profile=profiler is not None)
    namespace: Dict[str, object] = dict(plan.constants)
    if profiler is not None:
        namespace["_prof_tick"] = profiler.should_sample
        namespace["_prof_rec"] = profiler.record
        namespace["_prof_now"] = profiler.clock
    code = compile(source, f"<benu-plan:{plan.pattern.name}>", "exec")
    exec(code, namespace)  # noqa: S102 - trusted generated code
    function = namespace["_benu_task"]
    compiled = CompiledPlan(
        plan=plan,
        mode=mode,
        source=source,
        _function=function,
        profiled=profiler is not None,
    )
    if memo is not None:
        memo[mode] = (compiled_from, compiled)
    return compiled
