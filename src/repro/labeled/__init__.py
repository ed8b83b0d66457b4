"""Property-graph extension: labeled subgraph enumeration (paper §VIII).

A :class:`LabeledPatternGraph` on a :class:`LabeledGraph` runs through
the ordinary pipeline (``count_subgraphs`` / ``enumerate_subgraphs`` /
``run_benu``, or a BENU-QL ``WHERE`` clause): ``prepare_data`` maps the
labels into execution space and ``execute_plan`` binds them as candidate
pools.
"""

from .graphs import Label, LabeledGraph
from .oracle import count_labeled_matches, enumerate_labeled_matches
from .pattern import LabeledPatternGraph

__all__ = [
    "Label",
    "LabeledGraph",
    "count_labeled_matches",
    "enumerate_labeled_matches",
    "LabeledPatternGraph",
]
