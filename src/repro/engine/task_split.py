"""Task splitting for skewed workloads (Section V-B).

Real-world graphs are power-law: a local search task rooted at a hub
vertex can be orders of magnitude heavier than the median task, turning a
few workers into stragglers.  Tasks for start vertices with
``d(start) ≥ τ`` are split into ``⌈|C_{k2}| / τ⌉`` subtasks, each
enumerating a disjoint, equal-sized slice of the second-level candidate
set:

* if u_{k1} and u_{k2} are adjacent in P, C_{k2} ⊆ Γ(start), so the slices
  partition the start vertex's adjacency set;
* otherwise C_{k2} ⊆ V(G) and the slices partition the whole vertex set.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Optional, Sequence

from ..graph.graph import Graph, Vertex
from ..plan.generation import ExecutionPlan
from ..plan.instructions import InstructionType, fvar
from .local_task import LocalSearchTask


def plan_supports_splitting(plan: ExecutionPlan) -> bool:
    """True when the plan still enumerates the second matching-order vertex.

    VCBC compression can delete that ENU (e.g. star patterns whose cover is
    just the hub); slicing a reported candidate *set* would duplicate codes,
    so such plans fall back to unsplit tasks.
    """
    if len(plan.order) < 2:
        return False
    target = fvar(plan.order[1])
    return any(
        inst.type is InstructionType.ENU and inst.target == target
        for inst in plan.instructions
    )


def split_slices(
    candidates: Sequence[Vertex], num_slices: int
) -> List[FrozenSet[Vertex]]:
    """Partition ``candidates`` into ``num_slices`` near-equal frozensets.

    Slices are strided (round-robin over the id-sorted candidates) rather
    than contiguous: ids correlate with degree under the (degree, id)
    total order, so contiguous ranges would concentrate every hub neighbor
    — and most of the subtask cost — in the last slice.
    """
    if num_slices < 1:
        raise ValueError("need at least one slice")
    ordered = sorted(candidates)
    return [frozenset(ordered[i::num_slices]) for i in range(num_slices)]


def generate_tasks(
    plan: ExecutionPlan,
    data: Graph,
    split_threshold: int = None,
    start_vertices: Optional[Sequence[Vertex]] = None,
) -> Iterator[LocalSearchTask]:
    """All local search tasks of a BENU job, split where the threshold asks.

    With ``split_threshold=None`` every data vertex yields exactly one task
    (Algorithm 2 line 4).  ``start_vertices`` restricts task generation to
    a slice of the start-vertex space (a shard's owned vertices — see
    :meth:`repro.storage.partition.PartitionInfo.owned_vertices`);
    splitting decisions depend only on each start vertex's degree, so a
    sliced run yields exactly the tasks the full run would for those
    vertices.
    """
    starts = data.vertices if start_vertices is None else start_vertices
    if split_threshold is None or not plan_supports_splitting(plan):
        # Nothing can split: no start vertex's degree is looked at.
        for v in starts:
            yield LocalSearchTask(v)
        return
    first, second = plan.order[0], plan.order[1]
    adjacent = plan.pattern.graph.has_edge(first, second)

    for v in starts:
        if data.degree(v) < split_threshold:
            yield LocalSearchTask(v)
            continue
        pool: Sequence[Vertex] = (
            sorted(data.neighbors(v)) if adjacent else data.vertices
        )
        num_slices = -(-len(pool) // split_threshold)  # ceil division
        if num_slices <= 1:
            yield LocalSearchTask(v)
            continue
        for i, chunk in enumerate(split_slices(pool, num_slices)):
            yield LocalSearchTask(v, chunk, split_index=i, split_total=num_slices)
