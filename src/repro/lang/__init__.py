"""BENU-QL: the declarative query front-end.

A small declarative language over the BENU engine::

    MATCH (a)-(b), (b)-(c), (a)-(c)
    WHERE a.label = 'A'
    RETURN COUNT(*) GROUP BY a

Text parses (hand-written tokenizer + recursive descent,
:mod:`.parser`) into a logical algebra (:mod:`.algebra`), a rule-based
optimizer fires rewrites to fixpoint (:mod:`.rules` — label pushdown,
constant folding, projection elimination, count-only detection), and
:mod:`.lowering` emits the engine's ``PatternGraph`` /
``LabeledPatternGraph`` objects so execution runs through the exact
same plan pipeline as the programmatic API.
"""

from .algebra import (
    Aggregate,
    ConstPredicate,
    Filter,
    LabelPredicate,
    MatchPattern,
    Node,
    Project,
    pretty_query,
    pretty_tree,
)
from .errors import QueryError, QuerySemanticError, QuerySyntaxError
from .lowering import (
    LoweredQuery,
    lower_query,
    pattern_to_query,
    variable_name,
)
from .parser import Token, parse_query, tokenize
from .rules import RULES, Rule, apply_everywhere, fire_rules
from .run import QueryResult, run_query

__all__ = [
    "Aggregate",
    "ConstPredicate",
    "Filter",
    "LabelPredicate",
    "MatchPattern",
    "Node",
    "Project",
    "pretty_query",
    "pretty_tree",
    "QueryError",
    "QuerySemanticError",
    "QuerySyntaxError",
    "LoweredQuery",
    "lower_query",
    "pattern_to_query",
    "variable_name",
    "Token",
    "parse_query",
    "tokenize",
    "RULES",
    "Rule",
    "apply_everywhere",
    "fire_rules",
    "QueryResult",
    "run_query",
]
