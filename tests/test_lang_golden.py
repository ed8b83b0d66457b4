"""Golden-file tests: query → logical tree → lowered plan, pinned.

Each ``tests/golden/<name>.txt`` pins the full front-end trace of one
query: the parsed logical tree, the optimized tree, the optimizer rules
that fired, and the physical plan the lowered pattern compiles to
(its label pools bound on a small fixed labeled graph when the query
carries label predicates).  Any change to the grammar, the algebra printers, a
rewrite rule or plan generation shows up as a readable diff against
these files.

Regenerate after an intentional change with::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/test_lang_golden.py
"""

import os
from pathlib import Path

import pytest

from repro.engine.benu import bind_run, build_plan, prepare_data
from repro.engine.config import BenuConfig
from repro.labeled.graphs import LabeledGraph
from repro.lang import fire_rules, lower_query, parse_query, pretty_tree

GOLDEN_DIR = Path(__file__).parent / "golden"

#: The fixed labeled graph golden plans bind their label pools on.
GOLDEN_GRAPH = LabeledGraph(
    [(1, 2), (2, 3), (1, 3), (3, 4)],
    {1: "A", 2: "B", 3: "A", 4: "B"},
)

CASES = {
    "triangle_count": "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN COUNT(*)",
    "labeled_groups": (
        "MATCH (a)-(b), (b)-(c), (a)-(c) WHERE a.label = 'A' "
        "RETURN COUNT(*) GROUP BY a"
    ),
    "projection": "MATCH (a)-(b), (b)-(c) RETURN c, a",
    "identity_projection": "MATCH (a)-(b) RETURN a, b",
    "mixed_where": (
        "MATCH (a)-(b), (b)-(c) WHERE 1 = 1 AND b.label = 'B' RETURN *"
    ),
    "unsatisfiable": (
        "MATCH (a)-(b) WHERE a.label = 'A' AND a.label = 'B' RETURN COUNT(*)"
    ),
}


def render_case(query: str) -> str:
    parsed = parse_query(query)
    optimized, fired = fire_rules(parsed)
    lowered = lower_query(query)
    parts = [
        "-- query",
        query,
        "",
        "-- parsed",
        pretty_tree(parsed),
        "",
        "-- optimized",
        pretty_tree(optimized),
        "",
        "-- rules fired",
        ", ".join(fired) if fired else "(none)",
        "",
        "-- lowered",
        f"kind={lowered.kind} labeled={lowered.is_labeled} "
        f"unsatisfiable={lowered.unsatisfiable} "
        f"variables={','.join(lowered.variables)}",
    ]
    if lowered.unsatisfiable:
        parts += ["", "-- plan", "(none: unsatisfiable, execution skipped)"]
    else:
        plan = build_plan(lowered.pattern)
        if lowered.is_labeled:
            config = BenuConfig(relabel=False)
            prepared = prepare_data(GOLDEN_GRAPH, config)
            plan, _ = bind_run(plan, prepared, config, counting=False)
        parts += ["", "-- plan", str(plan)]
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    rendered = render_case(CASES[name])
    path = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("GOLDEN_REGEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
    assert path.exists(), (
        f"golden file {path} missing; regenerate with GOLDEN_REGEN=1"
    )
    assert rendered == path.read_text(encoding="utf-8")
