"""Answers checked against the pinned oracle (``expected.json``).

Every answer of the program is mapped from the seed's vertex ids back to
base ids and compared with what the ``inline`` plan interpreter produced
on the base graph when the answers were pinned (``run.py --pin``).  Row
sets and GROUP BY buckets are compared by an order-independent digest, so
a stream may arrive in any order but not with a row missing, doubled or
altered.  ``LIMIT`` streams may return any prefix the deployment likes;
they are checked row by row against the data graph instead.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from inputs import BaseGraph, SeededGraph, Template, all_templates, render

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_P = np.uint64(0x100000001B3)


def digest(table: np.ndarray) -> str:
    """Order-independent digest of the rows of an (N, k) integer table."""
    table = np.asarray(table, dtype=np.int64).astype(np.uint64)
    if table.size == 0:
        return "0" * 32
    h = np.full(table.shape[0], 0xCBF29CE484222325, dtype=np.uint64)
    for j in range(table.shape[1]):
        h = (h ^ (table[:, j] + np.uint64(j + 1))) * _P
    # splitmix64 finalizer: the sum and xor below must not cancel across
    # rows that differ in one column only.
    h = (h ^ (h >> np.uint64(30))) * _M1
    h = (h ^ (h >> np.uint64(27))) * _M2
    h = h ^ (h >> np.uint64(31))
    total = int(np.add.reduce(h))  # wraps mod 2**64
    return f"{total:016x}{int(np.bitwise_xor.reduce(h)):016x}"


def _lookup(to_base: Dict[int, int]) -> np.ndarray:
    table = np.full(max(to_base) + 1, -1, dtype=np.int64)
    for seeded, base in to_base.items():
        table[seeded] = base
    return table


class Checker:
    """Checks one seeded graph's answers against its pinned base answers."""

    def __init__(self, graph: SeededGraph, expected: Optional[dict] = None):
        expected = expected if expected is not None else load_expected()
        key = graph.base.key
        pinned = expected["graphs"].get(key)
        if pinned is None:
            raise SystemExit(f"no pinned answers for graph {key!r}; run --pin")
        if pinned["sha256"] != graph.base.sha256():
            raise SystemExit(
                f"graph {key!r} no longer matches its pinned sha256: the "
                "generator changed, so the benchmark's inputs did.  Re-pin "
                "deliberately (run.py --pin) and re-measure the baseline."
            )
        self.answers: Dict[str, dict] = pinned["answers"]
        self._to_base = _lookup(graph.to_base)
        self._graph = graph
        self._adjacency: Optional[Dict[int, set]] = None

    def expected(self, template: Template) -> dict:
        return self.answers[template.key]

    # ------------------------------------------------------------------
    def count(self, template: Template, count: object) -> bool:
        return count == self.expected(template)["count"]

    def groups(self, template: Template, groups: object) -> bool:
        want = self.expected(template)
        if not isinstance(groups, dict) or len(groups) != want["buckets"]:
            return False
        try:
            table = np.array(
                [(int(k), int(v)) for k, v in groups.items()], dtype=np.int64
            ).reshape(-1, 2)
        except (TypeError, ValueError):
            return False
        table[:, 0] = self._to_base[table[:, 0]]
        return (
            int(table[:, 1].sum()) == want["count"]
            and digest(table) == want["digest"]
        )

    def rows(self, template: Template, flat: array, width: int) -> bool:
        """A complete stream, as one flat ``array('q')`` of ``width``-wide rows."""
        want = self.expected(template)
        if width != len(template.columns) or len(flat) != want["count"] * width:
            return False
        table = np.frombuffer(flat, dtype=np.int64).reshape(-1, width)
        if table.size and (table.min() < 0 or table.max() >= len(self._to_base)):
            return False
        return digest(self._to_base[table]) == want["digest"]

    def limited(self, template: Template, rows: Sequence[Sequence[int]]) -> bool:
        """A LIMIT stream: min(limit, total) distinct embeddings."""
        want = min(template.limit, self.expected(template)["count"])
        if len(rows) != want or len({tuple(r) for r in rows}) != want:
            return False
        if self._adjacency is None:
            self._adjacency = self._graph.adjacency()
        adj = self._adjacency
        for row in rows:
            if len(row) != template.k or len(set(row)) != template.k:
                return False
            for a, b in template.edges:
                if row[b] not in adj.get(row[a], ()):
                    return False
        return True


# ------------------------------------------------------------------ pins
def load_expected() -> dict:
    with EXPECTED_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def oracle_answer(base: BaseGraph, template: Template) -> dict:
    """One template's answer on the base graph, by the inline interpreter."""
    import random

    from repro.engine.config import BenuConfig
    from repro.graph.graph import Graph
    from repro.labeled.graphs import LabeledGraph
    from repro.lang import run_query

    data = (
        LabeledGraph(base.edges, base.labels)
        if base.labels is not None else Graph(base.edges)
    )
    config = BenuConfig(
        execution_backend="inline", adjacency_backend="frozenset"
    )
    if template.limit is not None:
        # Only the total matters: any min(limit, total) valid rows pass.
        template = Template(template.edges, where=template.where)
    result = run_query(render(template, random.Random(0)), data, config)
    if result.kind == "count":
        return {"count": result.count}
    if result.kind == "groups":
        table = np.array(sorted(result.groups.items()), dtype=np.int64)
        return {
            "count": result.count,
            "buckets": len(result.groups),
            "digest": digest(table.reshape(-1, 2)),
        }
    width = len(template.columns)
    table = np.array(result.matches, dtype=np.int64).reshape(-1, width)
    return {"count": result.count, "digest": digest(table)}


def pin(bases: Iterable[BaseGraph], log=print) -> dict:
    """Recompute every pinned answer; returns the new expected.json body."""
    graphs = {}
    for base in bases:
        answers = {}
        templates = all_templates(base.key.split(".")[0])
        for i, template in enumerate(templates):
            answers[template.key] = oracle_answer(base, template)
            if i % 50 == 0:
                log(f"pin {base.key}: {i}/{len(templates)}")
        graphs[base.key] = {
            "vertices": len(base.vertices),
            "edges": len(base.edges),
            "sha256": base.sha256(),
            "answers": answers,
        }
    return {"oracle": "inline interpreter, frozenset layout", "graphs": graphs}
