"""One shard's slot in a partitioned deployment, and the rule it owns by.

The sharded serving tier splits BENU's task space by a hash of the start
vertex:

* :func:`partition_of` — the canonical ``key → partition`` hash;
* :class:`PartitionInfo` — the one description of "shard *i* of *N*",
  JSON round-trippable so it travels in the ``register`` op and lives on
  the catalog entry; its :meth:`~PartitionInfo.owned_vertices` is the
  one ownership rule.

A shard *owns* the vertices the hash rule assigns to it; ownership
partitions the BENU task space (one local search task per owned start
vertex — Algorithm 2 line 4), so N shards running their owned slices
enumerate exactly the single-node match set, disjointly.  Every shard
stores the full row set: a task rooted at an owned vertex reads rows it
does not own, as BENU's workers all read one shared store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..graph.graph import Graph, Vertex


def partition_of(key: Vertex, shards: int) -> int:
    """The canonical hash assignment of a key to one of ``shards`` shards.

    >>> [partition_of(v, 3) for v in range(6)]
    [0, 1, 2, 0, 1, 2]
    """
    return hash(key) % shards


@dataclass(frozen=True)
class PartitionInfo:
    """One shard's slot in a partitioned deployment: shard ``index`` of
    ``of``.

    The owned set is *derived*, never stored: :meth:`owned_vertices`
    applies :func:`partition_of` to execution-space vertex ids, so any
    two nodes holding the same graph under the same info agree on
    ownership without exchanging vertex lists.

    >>> from repro.graph.graph import complete_graph
    >>> [PartitionInfo(i, 2).owned_vertices(complete_graph(4)) for i in (0, 1)]
    [(2, 4), (1, 3)]
    """

    index: int
    of: int

    def __post_init__(self) -> None:
        if self.of < 1:
            raise ValueError("a partitioned deployment needs at least one shard")
        if not 0 <= self.index < self.of:
            raise ValueError(
                f"shard index {self.index} out of range for {self.of} shards"
            )

    def owned_vertices(self, graph: Graph) -> Tuple[Vertex, ...]:
        """This shard's start-vertex slice of ``graph``, in vertex order."""
        return tuple(
            v for v in graph.vertices if partition_of(v, self.of) == self.index
        )

    # ------------------------------------------------------------- wire
    def to_dict(self) -> dict:
        return {"index": self.index, "of": self.of}

    @classmethod
    def from_dict(cls, d: dict) -> "PartitionInfo":
        if set(d) != {"index", "of"}:
            raise ValueError(
                'partition metadata must be {"index": i, "of": N}; got keys '
                f"{sorted(d)}"
            )
        return cls(index=int(d["index"]), of=int(d["of"]))
