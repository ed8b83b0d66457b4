"""BENU: distributed subgraph enumeration with a backtracking-based framework.

A production-quality reproduction of *BENU: Distributed Subgraph Enumeration
with Backtracking-based Framework* (Wang et al., ICDE 2019).

Quick start::

    from repro import Graph, count_subgraphs, get_pattern

    data = Graph([(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)])
    count_subgraphs(get_pattern("triangle"), data)

See the README for the full API tour and DESIGN.md for the system map.
"""

from .graph import (
    CSRAdjacency,
    Graph,
    get_pattern,
    load_dataset,
    relabel_by_degree_order,
)
from .pattern import PatternGraph
from .plan import (
    GraphStats,
    compile_plan,
    compress_plan,
    generate_best_plan,
    generate_raw_plan,
    optimize,
)
from .engine import (
    BenuConfig,
    BenuResult,
    count_subgraphs,
    enumerate_subgraphs,
    run_benu,
)
from .faults import FaultConfig, InjectedFault
from .telemetry import (
    MetricsRegistry,
    TelemetryConfig,
    TelemetrySnapshot,
    Tracer,
    validate_chrome_trace,
)

__version__ = "1.6.0"

__all__ = [
    "CSRAdjacency",
    "Graph",
    "get_pattern",
    "load_dataset",
    "relabel_by_degree_order",
    "PatternGraph",
    "GraphStats",
    "compile_plan",
    "compress_plan",
    "generate_best_plan",
    "generate_raw_plan",
    "optimize",
    "BenuConfig",
    "BenuResult",
    "count_subgraphs",
    "enumerate_subgraphs",
    "run_benu",
    "FaultConfig",
    "InjectedFault",
    "MetricsRegistry",
    "TelemetryConfig",
    "TelemetrySnapshot",
    "Tracer",
    "validate_chrome_trace",
    "__version__",
]
