"""Storage substrate: distributed KV store, caches, serialization."""

from .cache import CacheStats, LRUDatabaseCache
from .policies import (
    POLICIES,
    FIFOPolicy,
    LFUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from .kvstore import DistributedKVStore, LatencyModel, QueryStats
from .partition import PartitionInfo
from .serialization import (
    adjacency_size_bytes,
    decode_adjacency,
    decode_varint,
    encode_adjacency,
    encode_varint,
    graph_size_bytes,
    varint_size,
)

__all__ = [
    "CacheStats",
    "POLICIES",
    "FIFOPolicy",
    "LFUPolicy",
    "RandomPolicy",
    "ReplacementPolicy",
    "make_policy",
    "LRUDatabaseCache",
    "DistributedKVStore",
    "LatencyModel",
    "QueryStats",
    "PartitionInfo",
    "adjacency_size_bytes",
    "decode_adjacency",
    "decode_varint",
    "encode_adjacency",
    "encode_varint",
    "graph_size_bytes",
    "varint_size",
]
