"""Execution plans: generation, optimization, cost model, search, codegen."""

from .codegen import CompiledPlan, TaskCounters, compile_plan, generate_source
from .compression import CompressedCode, compress_plan, expand_code
from .cost import (
    DEFAULT_STATS,
    GraphStats,
    PlanCost,
    estimate_communication_cost,
    estimate_computation_cost,
    estimate_matches,
    estimate_plan_cost,
    order_communication_cost,
)
from .dependency import build_dependency_edges, ranked_topological_sort
from .dot import dependency_graph_dot, plan_dot
from .estimators import EmpiricalGraphStats, falling_factorial_moments
from .generation import ExecutionPlan, eliminate_uni_operand, generate_raw_plan
from .instructions import (
    VG,
    Filter,
    FilterKind,
    Instruction,
    InstructionType,
    format_plan,
)
from .optimizer import (
    LEVEL_CSE,
    LEVEL_RAW,
    LEVEL_REORDER,
    LEVEL_TRIANGLE,
    apply_generalized_clique_cache,
    apply_triangle_cache,
    eliminate_common_subexpressions,
    flatten_intersections,
    optimize,
    reorder_instructions,
)
from .pools import bind_pools
from .search import BestPlanResult, SearchStats, generate_best_plan
from .validate import PlanValidationError, validate_plan

__all__ = [
    "CompiledPlan",
    "TaskCounters",
    "compile_plan",
    "generate_source",
    "CompressedCode",
    "compress_plan",
    "expand_code",
    "DEFAULT_STATS",
    "GraphStats",
    "PlanCost",
    "estimate_communication_cost",
    "estimate_computation_cost",
    "estimate_matches",
    "estimate_plan_cost",
    "order_communication_cost",
    "build_dependency_edges",
    "dependency_graph_dot",
    "plan_dot",
    "EmpiricalGraphStats",
    "falling_factorial_moments",
    "ranked_topological_sort",
    "ExecutionPlan",
    "eliminate_uni_operand",
    "generate_raw_plan",
    "VG",
    "Filter",
    "FilterKind",
    "Instruction",
    "InstructionType",
    "format_plan",
    "LEVEL_CSE",
    "LEVEL_RAW",
    "LEVEL_REORDER",
    "LEVEL_TRIANGLE",
    "apply_generalized_clique_cache",
    "apply_triangle_cache",
    "eliminate_common_subexpressions",
    "flatten_intersections",
    "optimize",
    "reorder_instructions",
    "bind_pools",
    "BestPlanResult",
    "SearchStats",
    "generate_best_plan",
    "PlanValidationError",
    "validate_plan",
]
