"""Ablation — cardinality model (DESIGN.md §5).

Section IV-C adopts the ER model of Lai et al. and explicitly allows
replacement by a better one.  This bench compares the ER model with this
repo's configuration-model estimator (`repro.plan.estimators`) on a
power-law graph:

* *estimate accuracy*: predicted vs actual match counts per pattern;
* *plan effect*: Algorithm 3's chosen order under each model, and the
  actually-executed instruction counts of the resulting plans.  The
  search prices every prefix at its symmetry-broken estimate
  (``repro.plan.cost.estimate_prefix_matches``); the plain "er" row
  switches that share off to show the paper's ER ranking beside
  "er + symmetry share" and the configuration model (which keeps it).

Shape: the degree-aware model is far closer on skew-sensitive patterns
(paths/stars, whose counts scale with ⟨d²⟩), and never leads the search to
an incorrect plan (counts always agree).
"""

from unittest import mock

import pytest

from repro.engine.interpreter import interpret_all
from repro.graph.graph import path_graph, star_graph
from repro.graph.patterns import get_pattern
from repro.metrics import format_count, format_table
from repro.pattern.isomorphism import count_matches
from repro.pattern.pattern_graph import PatternGraph
from repro.plan.cost import GraphStats, estimate_matches
from repro.plan.estimators import EmpiricalGraphStats
from repro.plan.search import generate_best_plan

from common import bench_graph, write_report

ACCURACY_PATTERNS = {
    "path3": path_graph(3),
    "star3": star_graph(3),
    "triangle": get_pattern("triangle"),
    "square": get_pattern("square"),
}
PLAN_PATTERNS = ("q1", "q2", "q4")


def graph():
    return bench_graph("ablation_cost", 600, 6.0, 2.2, seed=41)


def _accuracy_rows():
    g = graph()
    er = GraphStats.of(g)
    emp = EmpiricalGraphStats.of(g)
    rows = []
    errors = {}
    for name, pattern in ACCURACY_PATTERNS.items():
        actual = count_matches(pattern, g)
        er_est = estimate_matches(pattern, er)
        emp_est = estimate_matches(pattern, emp)
        rows.append(
            [
                name,
                format_count(actual),
                format_count(er_est),
                format_count(emp_est),
                f"{er_est / actual:.2f}x" if actual else "n/a",
                f"{emp_est / actual:.2f}x" if actual else "n/a",
            ]
        )
        if actual:
            errors[name] = (
                abs(er_est - actual) / actual,
                abs(emp_est - actual) / actual,
            )
    return rows, errors


def _plan_rows():
    g = graph()
    rows = []
    agreements = []
    for name in PLAN_PATTERNS:
        pattern = PatternGraph(get_pattern(name), name)
        with mock.patch("repro.plan.cost.symmetry_share", return_value=1.0):
            er_plan = generate_best_plan(pattern, GraphStats.of(g)).plan
        plans = {
            "er": er_plan,
            "er + symmetry share": generate_best_plan(pattern, GraphStats.of(g)).plan,
            "empirical": generate_best_plan(pattern, EmpiricalGraphStats.of(g)).plan,
        }
        counts = {}
        for model, plan in plans.items():
            counters = interpret_all(plan, g.vertices, g.neighbors)
            counts[model] = counters.results
            rows.append(
                [
                    name,
                    model,
                    "-".join(map(str, plan.order)),
                    counters.int_ops + counters.trc_ops,
                    counters.dbq_ops,
                    counters.results,
                ]
            )
        agreements.append(len(set(counts.values())) == 1)
    return rows, agreements


def _make_report():
    acc_rows, errors = _accuracy_rows()
    plan_rows, agreements = _plan_rows()
    text = (
        format_table(
            ["pattern", "actual", "ER est", "config-model est", "ER ratio", "cm ratio"],
            acc_rows,
        )
        + "\n\n"
        + format_table(
            ["pattern", "model", "chosen order", "INT+TRC", "DBQ", "matches"],
            plan_rows,
        )
    )
    write_report("ablation_cost_model", text)
    return errors, agreements


def test_ablation_report(benchmark):
    errors, agreements = benchmark.pedantic(_make_report, rounds=1, iterations=1)
    # Plans from both models enumerate identically.
    assert all(agreements)
    # The configuration model dominates on skew-driven patterns.
    for name in ("path3", "star3"):
        er_err, emp_err = errors[name]
        assert emp_err < er_err, name
        assert emp_err < 0.1, name
    # The ER model underestimates the star badly (misses the ⟨d²⟩ blow-up:
    # relative error close to 1 means it predicted almost nothing).
    assert errors["star3"][0] > 0.8


@pytest.mark.parametrize("model", ["er", "empirical"])
def test_bench_search_under_model(benchmark, model):
    g = graph()
    stats = GraphStats.of(g) if model == "er" else EmpiricalGraphStats.of(g)
    pattern = PatternGraph(get_pattern("q4"), "q4")
    benchmark.pedantic(
        lambda: generate_best_plan(pattern, stats), rounds=3, iterations=1
    )
