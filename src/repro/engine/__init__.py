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
