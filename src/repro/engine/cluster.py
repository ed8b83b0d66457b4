"""The simulated shared-nothing cluster (Fig. 2's architecture).

The task loop lives in :mod:`repro.engine.backends`;
:class:`SimulatedCluster` is the façade the rest of the repo —
experiments, benchmarks, the labeled-matching layer, the query service —
drives: it owns the distributed KV store for one data graph
and runs plans through whichever in-process backend the config selects.
"""

from __future__ import annotations

from typing import List, Optional

from ..graph.graph import Graph
from ..plan.generation import ExecutionPlan
from ..storage.kvstore import DistributedKVStore
from ..telemetry.runtime import Telemetry
from .backends import ExecutionRequest, get_backend
from .config import BenuConfig
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
        self.data = data
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(self.config.telemetry)
        )
        self.store = store if store is not None else DistributedKVStore.from_graph(
            data,
            num_partitions=self.config.num_partitions,
            latency=self.config.latency,
            backend=self.config.adjacency_backend,
        )

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
        """Execute one plan over the whole data graph.

        ``tasks`` overrides task generation (Exp-4 uses this to compare
        splitting on/off over identical plans).  ``sink`` (see
        :mod:`repro.engine.sinks`) is handed the results as row blocks
        instead of collecting them in memory; when given, the result's
        ``matches``/``codes`` stay None regardless of ``config.collect``
        (which is itself a :class:`~repro.engine.sinks.CollectSink`).

        ``control`` is checked once per chunk of tasks (see
        :data:`repro.engine.backends.simulated.CHUNK_WORK`): a cancel or an
        expired deadline raises the corresponding typed
        :class:`~repro.engine.control.ExecutionInterrupted` out of this
        method (no partial result is returned).  ``worker_caches`` hands
        each worker an existing database cache to keep warm across runs
        (one per worker, see :class:`~repro.storage.cache.CachePool`).
        """
        name = self.config.execution_backend
        if name == "process":
            raise ValueError(
                "the process backend runs against the raw graph, not a "
                "simulated store — use run_benu/execute_plan, which "
                "dispatch on config.execution_backend"
            )
        backend = get_backend(name)
        request = ExecutionRequest(
            plan=plan,
            graph=self.data,
            config=self.config,
            telemetry=self.telemetry,
            tasks=tasks,
            sink=sink,
            control=control,
            store=self.store,
            worker_caches=worker_caches,
            start_vertices=start_vertices,
        )
        if progress is not None:
            request.progress = progress
        return backend.execute(request)
