"""BENU-QL front-end: tokenizer, parser, typed errors, optimizer rules.

Also holds the seeded fuzz round-trip (``parse(pretty(parse(q))) ==
parse(q)`` over randomly generated queries — frozen-dataclass structural
equality makes that a plain ``==``).
"""

import random

import pytest

from repro.lang import (
    Aggregate,
    ConstPredicate,
    Filter,
    LabelPredicate,
    MatchPattern,
    Project,
    QueryError,
    QuerySemanticError,
    QuerySyntaxError,
    fire_rules,
    lower_query,
    parse_query,
    pattern_to_query,
    pretty_query,
    pretty_tree,
    tokenize,
    variable_name,
)
from repro.lang.rules import RULES

TRIANGLE = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN COUNT(*)"


# ---------------------------------------------------------------- tokenizer
def test_tokenize_kinds_and_positions():
    tokens = tokenize("MATCH (a)-(b) RETURN *")
    kinds = [t.kind for t in tokens]
    assert kinds == [
        "MATCH", "LPAREN", "IDENT", "RPAREN", "DASH", "LPAREN", "IDENT",
        "RPAREN", "RETURN", "STAR", "EOF",
    ]
    assert tokens[0].line == 1 and tokens[0].column == 1
    assert tokens[1].column == 7  # the '(' after "MATCH "


def test_tokenize_keywords_case_insensitive_idents_not():
    tokens = tokenize("match (A)-(b) return count(*)")
    assert tokens[0].kind == "MATCH"
    assert tokens[2].kind == "IDENT" and tokens[2].value == "A"
    assert any(t.kind == "COUNT" for t in tokens)


def test_tokenize_strings_ints_neq():
    tokens = tokenize("'hi' \"there\" 42 !=")
    assert [(t.kind, t.value) for t in tokens[:-1]] == [
        ("STRING", "hi"), ("STRING", "there"), ("INT", "42"), ("NEQ", "!="),
    ]


def test_tokenize_multiline_positions():
    tokens = tokenize("MATCH (a)-(b)\nRETURN *")
    ret = next(t for t in tokens if t.kind == "RETURN")
    assert ret.line == 2 and ret.column == 1


def test_tokenize_unterminated_string():
    with pytest.raises(QuerySyntaxError) as info:
        tokenize("MATCH (a)-(b) WHERE a.label = 'oops")
    assert "unterminated" in str(info.value)
    assert info.value.line == 1 and info.value.column == 31


def test_tokenize_bad_character():
    with pytest.raises(QuerySyntaxError):
        tokenize("MATCH (a)-(b) RETURN * ;")


# ------------------------------------------------------------------- parser
def test_parse_count_query_shape():
    tree = parse_query(TRIANGLE)
    assert isinstance(tree, Aggregate)
    assert tree.group_by is None and not tree.count_only
    leaf = tree.child
    assert isinstance(leaf, MatchPattern)
    assert leaf.edges == (("a", "b"), ("b", "c"), ("a", "c"))
    assert leaf.variables == ("a", "b", "c")


def test_parse_where_and_projection():
    tree = parse_query(
        "MATCH (a)-(b) WHERE a.label = 'A' AND 1 = 1 RETURN b, a"
    )
    assert isinstance(tree, Project) and tree.columns == ("b", "a")
    filt = tree.child
    assert isinstance(filt, Filter)
    assert filt.predicates == (
        LabelPredicate("a", "A"),
        ConstPredicate(1, "=", 1),
    )


def test_parse_group_by():
    tree = parse_query("MATCH (a)-(b) RETURN COUNT(*) GROUP BY b")
    assert isinstance(tree, Aggregate) and tree.group_by == "b"


def test_parse_return_star_is_bare_pattern():
    tree = parse_query("MATCH (a)-(b) RETURN *")
    assert isinstance(tree, MatchPattern)


def test_parse_value_on_left_of_label_predicate():
    tree = parse_query("MATCH (a)-(b) WHERE 'A' = a.label RETURN *")
    assert tree.predicates == (LabelPredicate("a", "A"),)


@pytest.mark.parametrize(
    "query, code, fragment",
    [
        ("", "query_syntax", "empty query"),
        ("   \n ", "query_syntax", "empty query"),
        ("MATCH (a)-(b), RETURN *", "query_syntax", "expected '('"),
        ("MATCH (a)-(b) RETURN * extra", "query_syntax", "trailing"),
        ("MATCH (a)-(b)", "query_syntax", "expected RETURN"),
        ("MATCH (a)-(a) RETURN *", "query_semantic", "self-loop"),
        ("MATCH (a)-(b), (b)-(a) RETURN *", "query_semantic", "duplicate"),
        ("MATCH (a)-(b), (c)-(d) RETURN *", "query_semantic", "disconnected"),
        ("MATCH (a)-(b) RETURN c", "query_semantic", "unknown variable"),
        (
            "MATCH (a)-(b) RETURN COUNT(*) GROUP BY z",
            "query_semantic",
            "unknown variable",
        ),
        (
            "MATCH (a)-(b) WHERE z.label = 'A' RETURN *",
            "query_semantic",
            "unknown variable",
        ),
        (
            "MATCH (a)-(b) WHERE a.degree = 3 RETURN *",
            "query_semantic",
            "only .label",
        ),
        (
            "MATCH (a)-(b) WHERE a.label = b.label RETURN *",
            "query_semantic",
            "label-to-label",
        ),
        (
            "MATCH (a)-(b) WHERE a.label != 'A' RETURN *",
            "query_semantic",
            "equality",
        ),
        (
            "MATCH (a)-(b) WHERE a.label = 3 RETURN *",
            "query_semantic",
            "string literal",
        ),
    ],
)
def test_parse_errors(query, code, fragment):
    with pytest.raises(QueryError) as info:
        parse_query(query)
    assert info.value.code == code
    assert fragment in str(info.value)


def test_error_position_and_snippet():
    with pytest.raises(QuerySyntaxError) as info:
        parse_query("MATCH (a)-(b), RETURN COUNT(*)")
    err = info.value
    assert (err.line, err.column) == (1, 16)
    snippet = err.snippet()
    text_line, caret_line = snippet.splitlines()
    assert text_line == "MATCH (a)-(b), RETURN COUNT(*)"
    assert caret_line.index("^") == 15  # 0-based under column 16
    assert str(err).startswith("line 1:16: ")


def test_error_without_position_renders_plain():
    err = QuerySemanticError("no labels on this graph")
    assert err.snippet() is None
    assert str(err) == "no labels on this graph"


# -------------------------------------------------------------------- rules
def _fired(query):
    tree, fired = fire_rules(parse_query(query))
    return tree, fired


def test_rule_label_pushdown():
    tree, fired = _fired(
        "MATCH (a)-(b) WHERE b.label = 'B' AND a.label = 'A' RETURN *"
    )
    assert isinstance(tree, MatchPattern)
    assert tree.labels == (("a", "A"), ("b", "B"))  # sorted by variable
    assert "push-label-filter" in fired
    assert "drop-empty-filter" in fired


def test_rule_constant_folding_true_drops_predicate():
    tree, fired = _fired("MATCH (a)-(b) WHERE 1 = 1 RETURN *")
    assert isinstance(tree, MatchPattern) and not tree.unsatisfiable
    assert "fold-constant-predicate" in fired


def test_rule_constant_folding_false_marks_unsatisfiable():
    tree, _ = _fired("MATCH (a)-(b) WHERE 'x' = 'y' RETURN COUNT(*)")
    assert isinstance(tree, Aggregate)
    assert tree.child.unsatisfiable


def test_rule_conflicting_labels_unsatisfiable():
    tree, _ = _fired(
        "MATCH (a)-(b) WHERE a.label = 'A' AND a.label = 'B' RETURN COUNT(*)"
    )
    assert tree.child.unsatisfiable


def test_rule_identity_projection_eliminated():
    tree, fired = _fired("MATCH (a)-(b) RETURN a, b")
    assert isinstance(tree, MatchPattern)
    assert "drop-identity-projection" in fired


def test_rule_reordering_projection_kept():
    tree, _ = _fired("MATCH (a)-(b) RETURN b, a")
    assert isinstance(tree, Project) and tree.columns == ("b", "a")


def test_rule_count_only_detection():
    tree, fired = _fired(TRIANGLE)
    assert isinstance(tree, Aggregate) and tree.count_only
    assert "detect-count-only" in fired


def test_rule_group_by_is_not_count_only():
    tree, _ = _fired("MATCH (a)-(b) RETURN COUNT(*) GROUP BY a")
    assert not tree.count_only


def test_rules_reach_fixpoint_idempotently():
    tree, _ = fire_rules(parse_query(TRIANGLE))
    again, fired = fire_rules(tree)
    assert again == tree and fired == ()


def test_rules_are_pure_no_input_mutation():
    tree = parse_query("MATCH (a)-(b) WHERE a.label = 'A' RETURN *")
    before = tree
    fire_rules(tree)
    assert tree == before


# ----------------------------------------------------------------- lowering
def test_lowering_maps_sorted_variables_to_vertices():
    lowered = lower_query(TRIANGLE)
    assert lowered.kind == "count"
    assert lowered.variables == ("a", "b", "c")
    assert sorted(lowered.pattern.graph.vertices) == [1, 2, 3]
    assert lowered.pattern.graph.num_edges == 3


def test_lowering_projection_indices():
    lowered = lower_query("MATCH (a)-(b), (b)-(c) RETURN c, a")
    assert lowered.kind == "stream"
    assert lowered.projection == (2, 0)
    assert lowered.columns == ("c", "a")


def test_lowering_group_by_index():
    lowered = lower_query("MATCH (a)-(b) RETURN COUNT(*) GROUP BY b")
    assert lowered.kind == "groups"
    assert lowered.group_by == 1
    assert lowered.columns == ("b", "count")


def test_lowering_unsatisfiable_is_plain_pattern():
    lowered = lower_query(
        "MATCH (a)-(b) WHERE a.label = 'A' AND a.label = 'B' RETURN COUNT(*)"
    )
    assert lowered.unsatisfiable and not lowered.is_labeled


def test_lowering_telemetry_fields():
    lowered = lower_query(TRIANGLE)
    assert "detect-count-only" in lowered.rules_fired
    assert lowered.logical_size >= 2


def test_variable_name_alphabet():
    assert [variable_name(i) for i in (0, 1, 25)] == ["a", "b", "z"]
    assert variable_name(26) == "v26"


# ------------------------------------------------------------ fuzz roundtrip
def _random_query(rng):
    """A random well-formed BENU-QL query (connected, no dup edges)."""
    num_vars = rng.randint(2, 5)
    variables = [variable_name(i) for i in range(num_vars)]
    edges = []
    seen = set()
    for i in range(1, num_vars):  # spanning tree keeps it connected
        j = rng.randrange(i)
        edges.append((variables[j], variables[i]))
        seen.add(frozenset((variables[j], variables[i])))
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(variables, 2)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((a, b))
    rng.shuffle(edges)
    text = "MATCH " + ", ".join(f"({a})-({b})" for a, b in edges)
    preds = []
    for var in rng.sample(variables, rng.randint(0, len(variables))):
        preds.append(f"{var}.label = '{rng.choice('ABC')}'")
    if rng.random() < 0.3:
        x, y = rng.randint(0, 3), rng.randint(0, 3)
        preds.append(f"{x} {rng.choice(['=', '!='])} {y}")
    if preds:
        text += " WHERE " + " AND ".join(preds)
    style = rng.randrange(4)
    if style == 0:
        text += " RETURN *"
    elif style == 1:
        cols = rng.sample(variables, rng.randint(1, len(variables)))
        text += " RETURN " + ", ".join(cols)
    elif style == 2:
        text += " RETURN COUNT(*)"
    else:
        text += f" RETURN COUNT(*) GROUP BY {rng.choice(variables)}"
    return text


def test_fuzz_pretty_roundtrip():
    rng = random.Random(20260808)
    for _ in range(300):
        query = _random_query(rng)
        tree = parse_query(query)
        assert parse_query(pretty_query(tree)) == tree
        # The optimized tree renders back to a query that re-optimizes
        # to the same tree (labels re-surface as WHERE predicates).
        optimized, _ = fire_rules(tree)
        reparsed, _ = fire_rules(parse_query(pretty_query(optimized)))
        assert reparsed == optimized


def test_fuzz_lowering_never_crashes():
    rng = random.Random(7)
    for _ in range(100):
        lowered = lower_query(_random_query(rng))
        assert lowered.kind in ("count", "groups", "stream")
        assert pretty_tree(lowered.tree)


def test_pattern_to_query_roundtrip_all_bundled():
    from repro.graph.patterns import PATTERNS
    from repro.pattern.pattern_graph import PatternGraph

    for name, graph in PATTERNS.items():
        pattern = PatternGraph(graph, name)
        lowered = lower_query(pattern_to_query(pattern))
        assert sorted(lowered.pattern.graph.edges()) == sorted(graph.edges())
