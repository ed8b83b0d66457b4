#!/usr/bin/env python
"""Enforce the engine-layering contract (AST import lint).

**labeled/ owns no execution loop.**  The labeled front-end lowers onto
the shared plan pipeline (``prepare_plan`` / ``execute_plan``); it must
never reach into the execution internals — the simulated cluster, task
generation/splitting, workers, the interpreter or the backend registry —
to run matches itself.  If labeled code needs a runtime behavior, it
belongs in the engine behind the shared pipeline.

**The stats structs know no registry.**  ``storage/``, ``kernels/``,
``graph/`` and ``plan/`` keep their accounting in plain dataclasses
(``QueryStats``, ``CacheStats``, ``TaskCounters``);
which field becomes which metric is decided once, in
``repro.engine.backends.base``'s run ledger.  So those layers import
neither ``repro.telemetry.registry`` nor ``repro.telemetry.snapshot`` —
not even lazily inside a function, nor their names through the
``repro.telemetry`` package.

**One pool rewrite.**  Label pools and degree pools are one filter —
``T := Intersect(S, POOL)`` before each ENU and compressed RES slot, the
start vertices cut to u_{k1}'s pool — written once, in
``repro.plan.pools.bind_pools``.  A rewrite that inserts instructions
needs fresh temporaries, so outside ``plan/optimizer.py`` (which defines
it) and ``plan/pools.py`` no module imports ``fresh_temp_index``.

**One ownership rule.**  A shard's slot is one ``PartitionInfo``, and
its ``owned_vertices`` is the one rule for which start vertices the shard
owns.  So outside ``storage/partition.py``, which defines the hash under
it, no module imports ``partition_of``.

**One wire front door.**  Every op is served through one dispatcher,
one stdio loop and one TCP server (``repro.service.protocol``) and every
client connection is a lease of one TCP client (``repro.shard.client``).
So only ``repro.service.protocol`` imports ``socketserver`` and only
``repro.shard.client`` imports ``socket``.

**One compute form.**  Every compiled plan runs on the data graph's
neighbour frozensets, whichever byte price the store puts on a row, and
every INT/TRC site is a set expression codegen emits inline.  So no
module outside ``graph/`` imports ``repro.graph.csr`` and no module
outside ``kernels/`` imports ``repro.kernels``: the packed layout and the
two kernels left are the benchmark ledger's probes, not a library path.
Every row ∩ row is one frozenset path, never a timing: no module imports
``repro.kernels.vectorized`` (a numpy probe only the benchmark ledger
calls), and ``kernels/``, ``plan/`` and ``graph/`` import no ``numpy``
(the probe itself aside).

**One estimate.**  Every Algorithm 3 walk prices a prefix at its
symmetry-broken estimate, ``estimate_prefix_matches``, so the search and
the plan walks cannot disagree on what a prefix costs.  So inside
``plan/`` only ``plan/cost.py`` calls ``estimate_matches``.

**One store build.**  A run's distributed store carries its config's
latency model and row price, built by ``build_store(graph, config)``.
So outside ``storage/`` and ``engine/config.py`` (which defines
``build_store``) no module calls ``DistributedKVStore(...)`` or
``DistributedKVStore.from_graph``.

**One pool.**  The process backend forks its own workers, one pipe
each, so the parent knows which chunk died with which worker.  So no
module under ``src/repro`` imports ``multiprocessing.pool``, whose
shared queues a killed worker can leave locked or half-written.

The check is AST-based and resolves relative imports, so aliasing or
``from .. import`` spellings cannot slip past it.

Usage::

    python scripts/lint_layering.py            # lint src/repro
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGET = REPO_ROOT / "src" / "repro"

#: Execution internals the labeled/ package must not touch (prefixes).
EXECUTION_INTERNALS = (
    "repro.engine.cluster",
    "repro.engine.task_split",
    "repro.engine.worker",
    "repro.engine.interpreter",
    "repro.engine.backends",
    "repro.engine.local_task",
)
#: Names that expose an execution loop even via ``from ..engine import``.
EXECUTION_NAMES = {
    "SimulatedCluster",
    "Worker",
    "generate_tasks",
    "split_slices",
    "interpret_plan",
    "interpret_all",
    "LocalSearchTask",
    "get_backend",
}

#: Layers whose stats structs the run ledger records (path prefixes).
LEDGER_LAYERS = ("storage/", "kernels/", "graph/", "plan/")
#: The metric modules those layers must not reach.
METRIC_MODULES = ("repro.telemetry.registry", "repro.telemetry.snapshot")

#: What every instruction-inserting rewrite needs, and the modules that
#: may import it: its home and the one pool rewrite.
FRESH_TEMPS = "fresh_temp_index"
POOL_REWRITERS = ("plan/optimizer.py", "plan/pools.py")

#: The ownership hash, and the module that may import it: its home.
OWNERSHIP_HASH = "partition_of"
HASH_USERS = ("storage/partition.py",)

#: Transport module -> the one module that may import it.
WIRE_DOORS = {
    "socketserver": "service/protocol.py",
    "socket": "shard/client.py",
}


#: The packed adjacency layout, which only ``graph/`` imports.
CSR_MODULE = "repro.graph.csr"
#: The benchmark ledger's intersection probes, which only ``kernels/``
#: imports.
KERNEL_PACKAGE = "repro.kernels"
#: The benchmark-only numpy probe, which no library module imports.
PROBE = "repro.kernels.vectorized"
PROBE_FILE = "kernels/vectorized.py"
#: Layers on the intersection path, which import no numpy.
NUMPY_FREE = ("kernels/", "plan/", "graph/")

#: The pool the process backend no longer borrows.
BORROWED_POOL = "multiprocessing.pool"

#: The raw match estimate, which inside ``plan/`` only its module calls.
ESTIMATE = "estimate_matches"
ESTIMATE_FILE = "plan/cost.py"

#: The store class, and where it may be built: its own layer and the
#: module defining ``build_store``.
STORE_CLASS = "DistributedKVStore"
STORE_BUILDERS = ("storage/", "engine/config.py")


def metric_names(root: Path) -> set:
    """The ``__all__`` of every metric module: names that must not be
    imported from the ``repro.telemetry`` package either."""
    names = set()
    for module in METRIC_MODULES:
        path = root.joinpath(*module.split(".")[1:]).with_suffix(".py")
        if not path.exists():
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


def module_package(path: Path, root: Path) -> str:
    """Dotted package of the module at ``path`` (root maps to 'repro')."""
    rel = path.relative_to(root).with_suffix("")
    parts = ("repro",) + rel.parts
    if parts[-1] == "__init__":
        return ".".join(parts[:-1])  # a package IS its own __package__
    return ".".join(parts[:-1])  # the containing package


def resolve_imports(tree: ast.AST, package: str):
    """Yield ``(lineno, module, names)`` with relative imports resolved."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                base = package.split(".")
                # level 1 = the current package, each extra level one up.
                base = base[: len(base) - (node.level - 1)]
                module = ".".join(base + ([module] if module else []))
            yield node.lineno, module, tuple(a.name for a in node.names)


def lint_file(path: Path, root: Path, out=sys.stdout) -> int:
    rel = path.relative_to(root).as_posix()
    labeled = rel.startswith("labeled/")
    ledger_layer = rel.startswith(LEDGER_LAYERS)
    package = module_package(path, root)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    violations = 0
    for lineno, module, names in resolve_imports(tree, package):
        if labeled:
            violations += _lint_labeled(path, lineno, module, names, out)
        if ledger_layer:
            violations += _lint_ledger_layer(path, root, lineno, module, names, out)
        if rel not in POOL_REWRITERS:
            violations += _lint_pool_rewrite(path, lineno, names, out)
        if rel not in HASH_USERS:
            violations += _lint_ownership(path, lineno, names, out)
        violations += _lint_wire_door(path, rel, lineno, module, out)
        violations += _lint_compute_form(path, rel, lineno, module, names, out)
        violations += _lint_numpy_path(path, rel, lineno, module, names, out)
        violations += _lint_one_pool(path, lineno, module, names, out)
    if rel.startswith("plan/") and rel != ESTIMATE_FILE:
        violations += _lint_one_estimate(path, tree, out)
    if not rel.startswith(STORE_BUILDERS):
        violations += _lint_one_store_build(path, tree, out)
    return violations


def _lint_labeled(path, lineno, module, names, out) -> int:
    violations = 0
    if any(
        module == p or module.startswith(p + ".")
        for p in EXECUTION_INTERNALS
    ):
        print(
            f"{path}:{lineno}: labeled/ imports execution internal "
            f"{module!r} — lower through prepare_plan/execute_plan "
            "instead of running an enumeration loop",
            file=out,
        )
        violations += 1
    if module in ("repro.engine", "repro.engine.benu"):
        loops = sorted(set(names) & EXECUTION_NAMES)
        if loops:
            print(
                f"{path}:{lineno}: labeled/ imports execution "
                f"primitives {loops} — labeled enumeration must go "
                "through the shared plan pipeline",
                file=out,
            )
            violations += 1
    return violations


def _lint_ledger_layer(path, root, lineno, module, names, out) -> int:
    reached = module if module in METRIC_MODULES else None
    if module == "repro.telemetry":
        hidden = sorted(set(names) & metric_names(root))
        if hidden:
            reached = f"{module} names {hidden}"
    if reached is None:
        return 0
    print(
        f"{path}:{lineno}: a stats-struct layer imports {reached} — "
        "keep the struct plain and map its fields to metrics in "
        "repro.engine.backends.base's LEDGER",
        file=out,
    )
    return 1


def _lint_pool_rewrite(path, lineno, names, out) -> int:
    if FRESH_TEMPS not in names:
        return 0
    print(
        f"{path}:{lineno}: imports {FRESH_TEMPS!r} — one pool rewrite: "
        "filter candidates by handing pools to repro.plan.pools.bind_pools",
        file=out,
    )
    return 1


def _lint_ownership(path, lineno, names, out) -> int:
    if OWNERSHIP_HASH not in names:
        return 0
    print(
        f"{path}:{lineno}: imports {OWNERSHIP_HASH!r} — one ownership rule: "
        "a shard's start vertices are PartitionInfo.owned_vertices",
        file=out,
    )
    return 1


def _lint_wire_door(path, rel, lineno, module, out) -> int:
    door = WIRE_DOORS.get(module)
    if door is None or rel == door:
        return 0
    print(
        f"{path}:{lineno}: imports {module!r} — one wire front door: serve "
        "through repro.service.protocol (ServiceTCPServer / serve_stdio), "
        "connect through repro.shard.client (TCPShardClient)",
        file=out,
    )
    return 1


def _lint_compute_form(path, rel, lineno, module, names, out) -> int:
    if module == CSR_MODULE or (module == "repro.graph" and "csr" in names):
        if rel.startswith("graph/"):
            return 0
        reached = CSR_MODULE
    elif not rel.startswith("kernels/") and (
        (module + ".").startswith(KERNEL_PACKAGE + ".")
        or (module == "repro" and "kernels" in names)
    ):
        reached = KERNEL_PACKAGE
    else:
        return 0
    print(
        f"{path}:{lineno}: imports {reached} — one compute form: compiled "
        "plans run on the graph's frozensets and emit every intersection "
        "inline; the packed layout and the kernels left are the "
        "benchmark ledger's probes",
        file=out,
    )
    return 1


def _lint_numpy_path(path, rel, lineno, module, names, out) -> int:
    if module == PROBE or (module == "repro.kernels" and "vectorized" in names):
        reached = PROBE
    elif (
        module.partition(".")[0] == "numpy"
        and rel.startswith(NUMPY_FREE)
        and rel != PROBE_FILE
    ):
        reached = "numpy"
    else:
        return 0
    print(
        f"{path}:{lineno}: imports {reached!r} — one compute form: every "
        "row ∩ row is the frozenset path; the numpy probe is the "
        "benchmark ledger's alone",
        file=out,
    )
    return 1


def _lint_one_pool(path, lineno, module, names, out) -> int:
    if module != BORROWED_POOL and not (
        module == "multiprocessing" and "pool" in names
    ):
        return 0
    print(
        f"{path}:{lineno}: imports {BORROWED_POOL!r} — one pool: fork "
        "workers with one pipe each, as repro.engine.backends.process does",
        file=out,
    )
    return 1


def _lint_one_estimate(path, tree, out) -> int:
    violations = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if ESTIMATE not in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        ):
            continue
        print(
            f"{path}:{node.lineno}: calls {ESTIMATE!r} — one estimate: price "
            "a prefix with repro.plan.cost.estimate_prefix_matches, which "
            "applies the symmetry share",
            file=out,
        )
        violations += 1
    return violations


def _lint_one_store_build(path, tree, out) -> int:
    violations = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "from_graph":
            func = func.value
        if STORE_CLASS not in (
            getattr(func, "id", None), getattr(func, "attr", None)
        ):
            continue
        print(
            f"{path}:{node.lineno}: builds a {STORE_CLASS} — one store "
            "build: call repro.engine.config.build_store(graph, config)",
            file=out,
        )
        violations += 1
    return violations


def main(argv=None) -> int:
    targets = [Path(a) for a in (argv if argv is not None else sys.argv[1:])]
    if not targets:
        targets = [DEFAULT_TARGET]
    violations = 0
    for target in targets:
        root = target if target.is_dir() else target.parent
        files = [target] if target.is_file() else sorted(target.rglob("*.py"))
        for path in files:
            violations += lint_file(path, root)
    if violations:
        print(f"lint-layering: {violations} violation(s)")
        return 1
    print("lint-layering: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
