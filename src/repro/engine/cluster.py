"""The simulated shared-nothing cluster (Fig. 2's architecture).

:class:`SimulatedCluster` is the façade experiments, benchmarks and the
query service drive: it owns the distributed KV store for one data
graph, and :meth:`~SimulatedCluster.run_plan` runs a plan on that store
through :func:`~repro.engine.benu.execute_plan`, the one run path.
"""

from __future__ import annotations

from typing import List, Optional

from ..graph.graph import Graph
from ..plan.generation import ExecutionPlan
from ..storage.kvstore import DistributedKVStore
from ..telemetry.runtime import Telemetry
from .benu import PreparedData, execute_plan
from .config import BenuConfig, build_store
from .control import ExecutionControl
from .local_task import LocalSearchTask
from .results import BenuResult


class SimulatedCluster:
    """Master + workers over one distributed KV store.

    ``store`` lets a long-lived owner (the query service's graph catalog)
    hand in an already-built distributed store so repeated queries over
    the same data graph skip the rebuild; it must have been built from
    ``data`` with a compatible backend.
    """

    def __init__(
        self,
        data: Graph,
        config: Optional[BenuConfig] = None,
        telemetry: Optional[Telemetry] = None,
        store: Optional[DistributedKVStore] = None,
    ) -> None:
        self.config = config or BenuConfig()
        #: ``data`` as it runs (no relabeling): its degree pools are built
        #: once per cluster.
        self.prepared = PreparedData(data)
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(self.config.telemetry)
        )
        self.store = build_store(data, self.config) if store is None else store

    # ------------------------------------------------------------------
    def run_plan(
        self,
        plan: ExecutionPlan,
        tasks: Optional[List[LocalSearchTask]] = None,
        sink=None,
        control: Optional[ExecutionControl] = None,
        worker_caches: Optional[List] = None,
        progress=None,
        start_vertices=None,
    ) -> BenuResult:
        """Execute one plan over the whole data graph under the cluster's
        config: :func:`~repro.engine.benu.execute_plan` with ``cluster=self``,
        which documents the arguments."""
        return execute_plan(
            plan,
            self.prepared,
            self.config,
            cluster=self,
            sink=sink,
            control=control,
            tasks=tasks,
            worker_caches=worker_caches,
            progress=progress,
            start_vertices=start_vertices,
        )
