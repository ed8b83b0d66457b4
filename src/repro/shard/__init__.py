"""Sharded serving: partitioned shard nodes and a fan-out/merge router.

BENU's execution model is one independent local-search task per data
vertex, which makes the serving tier embarrassingly shardable: partition
the *task space* by a hash rule over start vertices and every shard runs
the unchanged plan/engine over its slice.  This package provides the
three layers of that deployment:

* :class:`ShardNode` — a full query service wearing one shard's
  identity; registration keeps only the owned start-vertex slice
  (:meth:`~repro.storage.partition.PartitionInfo.owned_vertices`).
* :class:`ShardRouter` + :class:`RouterQuery` — the front-end: fans a
  query out to one replica per partition, merges the backpressured
  result streams into one deterministic client stream, enforces a
  single global deadline budget across all hops, retries a dead shard's
  slice once on a live replica, and aggregates telemetry.
* :class:`RouterProtocol` — the ``route`` dialect of the one op table
  (:data:`repro.service.protocol.OPS`), so clients point at
  ``benu route`` unchanged.

Correctness contract: shard match sets are disjoint and union to the
single-node match set; instruction/kernel counters sum exactly to the
single-node totals (per-task instruction execution is deterministic).
"""

from .client import (
    LocalShardClient,
    RetryPolicy,
    ShardClient,
    ShardError,
    ShardUnavailable,
    TCPShardClient,
)
from .node import ShardNode
from .protocol import RouterProtocol
from .router import (
    RouterError,
    RouterFetchResult,
    RouterQuery,
    ShardRouter,
)

__all__ = [
    "LocalShardClient",
    "RetryPolicy",
    "RouterError",
    "RouterFetchResult",
    "RouterProtocol",
    "RouterQuery",
    "ShardClient",
    "ShardError",
    "ShardNode",
    "ShardRouter",
    "ShardUnavailable",
    "TCPShardClient",
]
