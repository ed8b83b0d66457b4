#!/usr/bin/env python
"""Enforce the engine-layering contract (AST import lint).

**labeled/ owns no execution loop.**  The labeled front-end lowers onto
the shared plan pipeline (``prepare_plan`` / ``execute_plan``); it must
never reach into the execution internals — the simulated cluster, task
generation/splitting, workers, the interpreter or the backend registry —
to run matches itself.  If labeled code needs a runtime behavior, it
belongs in the engine behind the shared pipeline.

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
    if not path.relative_to(root).as_posix().startswith("labeled/"):
        return 0
    package = module_package(path, root)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    violations = 0
    for lineno, module, names in resolve_imports(tree, package):
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
