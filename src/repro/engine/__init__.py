"""The BENU runtime: config, tasks, workers, cluster, public API."""

from .benu import (
    PreparedData,
    build_plan,
    count_subgraphs,
    enumerate_subgraphs,
    execute_plan,
    prepare_data,
    prepare_plan,
    run_benu,
)
from .backends import (
    EXECUTION_BACKENDS,
    ExecutionBackend,
    ExecutionRequest,
    InlineBackend,
    ProcessBackend,
    SimulatedBackend,
    get_backend,
)
from .cluster import SimulatedCluster
from .config import BenuConfig, SimulationCostModel
from .control import (
    DeadlineExpired,
    ExecutionControl,
    ExecutionInterrupted,
    QueryCancelled,
)
from .interpreter import interpret_all, interpret_plan
from .local_task import LocalSearchTask
from .results import BenuResult
from .sinks import (
    CallbackSink,
    CollectSink,
    CountSink,
    FileSink,
    GroupCountSink,
    JsonlSink,
    LimitSink,
    ProjectingSink,
    ReservoirSink,
    RowBlock,
    TranslatingSink,
    block_emitter,
)
from .task_split import generate_tasks, plan_supports_splitting, split_slices
from .worker import TaskReport, Worker


def __getattr__(name: str):
    # Deprecated pre-ExecutionBackend shims; imported lazily so merely
    # importing repro.engine doesn't pull them in (and so nothing under
    # src/repro/ depends on them anymore).
    if name in ("ParallelRunner", "parallel_count"):
        from . import parallel

        return getattr(parallel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "PreparedData",
    "build_plan",
    "count_subgraphs",
    "enumerate_subgraphs",
    "execute_plan",
    "prepare_data",
    "prepare_plan",
    "run_benu",
    "DeadlineExpired",
    "ExecutionControl",
    "ExecutionInterrupted",
    "QueryCancelled",
    "SimulatedCluster",
    "BenuConfig",
    "SimulationCostModel",
    "interpret_all",
    "interpret_plan",
    "LocalSearchTask",
    "EXECUTION_BACKENDS",
    "ExecutionBackend",
    "ExecutionRequest",
    "InlineBackend",
    "ProcessBackend",
    "SimulatedBackend",
    "get_backend",
    "ParallelRunner",
    "parallel_count",
    "BenuResult",
    "CallbackSink",
    "CollectSink",
    "CountSink",
    "FileSink",
    "GroupCountSink",
    "JsonlSink",
    "LimitSink",
    "ProjectingSink",
    "ReservoirSink",
    "RowBlock",
    "TranslatingSink",
    "block_emitter",
    "generate_tasks",
    "plan_supports_splitting",
    "split_slices",
    "TaskReport",
    "Worker",
]
