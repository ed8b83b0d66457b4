"""Adjacency-set serialization — the byte costs behind communication accounting.

The paper reports cumulative communication in bytes (Table V).  We price
every database answer by the serialized size of the adjacency set it
carries, using the same delta+varint encoding production KV stores use for
posting lists, so cache-capacity numbers (Fig. 8 measures capacity as a
fraction of the data-graph size) are meaningful.
"""

from __future__ import annotations

from typing import Collection, FrozenSet, Iterable, List, Tuple

from ..graph.graph import Graph


def varint_size(value: int) -> int:
    """Bytes a non-negative int occupies in LEB128 varint encoding."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise ValueError("varints encode non-negative integers only")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one varint; returns (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7


def encode_adjacency(neighbors: Iterable[int]) -> bytes:
    """Delta+varint encode a sorted adjacency set.

    Layout: varint count, then varint first id, then varint gaps.
    """
    ordered = sorted(neighbors)
    out = bytearray(encode_varint(len(ordered)))
    prev = 0
    for i, v in enumerate(ordered):
        out.extend(encode_varint(v if i == 0 else v - prev))
        prev = v
    return bytes(out)


def decode_adjacency(data: bytes) -> FrozenSet[int]:
    """Inverse of :func:`encode_adjacency`."""
    count, offset = decode_varint(data, 0)
    values: List[int] = []
    prev = 0
    for i in range(count):
        delta, offset = decode_varint(data, offset)
        prev = delta if i == 0 else prev + delta
        values.append(prev)
    return frozenset(values)


def adjacency_size_bytes(neighbors: Iterable[int]) -> int:
    """Serialized size without materializing the encoding."""
    ordered = sorted(neighbors)
    size = varint_size(len(ordered))
    prev = 0
    for i, v in enumerate(ordered):
        size += varint_size(v if i == 0 else v - prev)
        prev = v
    return size


def packed_size_bytes(neighbors: Collection[int]) -> int:
    """Size as a raw int64 posting list: 8 bytes per id."""
    return 8 * len(neighbors)


def graph_size_bytes(graph: Graph) -> int:
    """Total serialized size of a data graph's adjacency sets.

    This is the "size of the data graph" that Fig. 8's relative cache
    capacities divide by.
    """
    return sum(
        adjacency_size_bytes(graph.neighbors(v)) + varint_size(v)
        for v in graph.vertices
    )
