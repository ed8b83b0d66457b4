"""Property-graph extension: labeled subgraph enumeration (paper §VIII)."""

from .enumerate import (
    count_labeled_subgraphs,
    enumerate_labeled_subgraphs,
    run_labeled_benu,
)
from .graphs import Label, LabeledGraph
from .oracle import count_labeled_matches, enumerate_labeled_matches
from .pattern import LabeledPatternGraph
from .plans import label_constant_name, label_pools, labelize_plan

__all__ = [
    "count_labeled_subgraphs",
    "enumerate_labeled_subgraphs",
    "run_labeled_benu",
    "Label",
    "LabeledGraph",
    "count_labeled_matches",
    "enumerate_labeled_matches",
    "LabeledPatternGraph",
    "label_constant_name",
    "label_pools",
    "labelize_plan",
]
