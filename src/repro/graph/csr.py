"""CSR (compressed-sparse-row) adjacency: a packed copy for measurement.

The engine computes on the graph's neighbour frozensets alone (DESIGN.md
§7).  This module packs the same adjacency HUGE-style into two flat
``array('q')`` buffers — a concatenation of all adjacency lists, each
sorted ascending, plus an offset index — at exactly 8 bytes per stored
id, and is kept for what measures that layout:

* ``neighbors[offsets[i]:offsets[i+1]]`` is Γ(v) for the i-th vertex,
  served as an :class:`AdjacencyView` (``len``, ``nbytes`` and a cached
  ``fset``) — the rows the benchmark ledger's intersection probe times;
* the flat buffers can be placed in ``multiprocessing.shared_memory`` and
  re-attached without copying a neighbour id — the ledger's attach-time
  probe;
* :meth:`CSRAdjacency.memory_bytes` is the packed footprint
  :meth:`Graph.memory_bytes` reports for ``"csr"``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .graph import Graph, Vertex

__all__ = [
    "AdjacencyView",
    "CSRAdjacency",
    "CSRShmHandle",
]

_ITEM_BYTES = 8  # array('q') / int64


class AdjacencyView:
    """One sorted adjacency row over a packed buffer.

    >>> v = AdjacencyView(array("q", [2, 5, 9, 11]))
    >>> len(v), v.nbytes(), sorted(v.fset())
    (4, 32, [2, 5, 9, 11])
    """

    __slots__ = ("ids", "_fset")

    def __init__(self, ids: Sequence[int]) -> None:
        self.ids = ids
        self._fset: Optional[frozenset] = None

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"AdjacencyView(n={len(self.ids)})"

    def fset(self) -> frozenset:
        """The row as a frozenset (cached)."""
        s = self._fset
        if s is None:
            s = self._fset = frozenset(self.ids)
        return s

    def nbytes(self) -> int:
        """Exact packed size of this row: ``len(view) * 8``."""
        return len(self.ids) * _ITEM_BYTES


@dataclass(frozen=True)
class CSRShmHandle:
    """A picklable descriptor of a CSR adjacency living in shared memory.

    Layout inside the block (all int64): ``vertex_ids[n] · offsets[n+1] ·
    neighbors[m]``.  An attacher maps it by name and wraps zero-copy
    memoryviews around the three regions — no adjacency data crosses the
    process boundary.
    """

    name: str
    num_vertices: int
    num_neighbors: int

    @property
    def nbytes(self) -> int:
        return (2 * self.num_vertices + 1 + self.num_neighbors) * _ITEM_BYTES


def _attach_untracked(name: str):
    """Attach to an existing shared block without tracker registration.

    The creating process already registered the block; attachers must
    not, or N attachers produce N-1 spurious tracker unregisters (the
    tracker's cache is a set) and noisy KeyErrors at shutdown.  Python
    3.13 grew ``SharedMemory(track=False)`` for exactly this; on earlier
    versions the documented workaround is suppressing the register call.
    """
    from multiprocessing import resource_tracker, shared_memory

    orig_register = resource_tracker.register

    def _skip_shm(name_, rtype):  # pragma: no cover - trivial shim
        if rtype != "shared_memory":
            orig_register(name_, rtype)

    resource_tracker.register = _skip_shm
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


class CSRAdjacency:
    """A whole graph's adjacency in CSR form.

    >>> from repro.graph.graph import complete_graph
    >>> csr = CSRAdjacency.from_graph(complete_graph(3))
    >>> sorted(csr.row(1).fset())
    [2, 3]
    >>> csr.degree(2)
    2
    """

    __slots__ = (
        "vertex_ids",
        "offsets",
        "neighbors",
        "_row_of",
        "_views",
        "_shm",
    )

    def __init__(
        self,
        vertex_ids: Sequence[int],
        offsets: Sequence[int],
        neighbors: Sequence[int],
    ) -> None:
        if len(offsets) != len(vertex_ids) + 1:
            raise ValueError("offsets must have exactly num_vertices + 1 entries")
        self.vertex_ids = vertex_ids
        self.offsets = offsets
        self.neighbors = neighbors
        self._row_of: Dict[Vertex, int] = {
            v: i for i, v in enumerate(vertex_ids)
        }
        self._views: Dict[Vertex, AdjacencyView] = {}
        self._shm = None  # keeps an attached shared-memory block alive

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRAdjacency":
        """Pack a :class:`Graph` (vertices already sorted ascending)."""
        vertex_ids = array("q", graph.vertices)
        offsets = array("q", [0])
        neighbors = array("q")
        for v in graph.vertices:
            neighbors.extend(graph.sorted_neighbors(v))
            offsets.append(len(neighbors))
        return cls(vertex_ids, offsets, neighbors)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.vertex_ids)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._row_of

    def row(self, v: Vertex) -> AdjacencyView:
        """The sorted adjacency view of ``v`` (views are memoized)."""
        view = self._views.get(v)
        if view is None:
            i = self._row_of[v]
            lo, hi = self.offsets[i], self.offsets[i + 1]
            view = AdjacencyView(self.neighbors[lo:hi])
            self._views[v] = view
        return view

    def degree(self, v: Vertex) -> int:
        i = self._row_of[v]
        return self.offsets[i + 1] - self.offsets[i]

    def memory_bytes(self) -> int:
        """Exact packed footprint of the three flat arrays."""
        return (
            len(self.vertex_ids) + len(self.offsets) + len(self.neighbors)
        ) * _ITEM_BYTES

    # -- shared memory --------------------------------------------------
    def to_shared(self) -> Tuple[CSRShmHandle, object]:
        """Copy the arrays into one shared-memory block.

        Returns ``(handle, shm)``; the caller owns the block and must
        ``close()`` + ``unlink()`` it when every worker is done.
        """
        from multiprocessing import shared_memory

        n, m = len(self.vertex_ids), len(self.neighbors)
        handle_size = (2 * n + 1 + m) * _ITEM_BYTES
        shm = shared_memory.SharedMemory(create=True, size=handle_size)
        mv = memoryview(shm.buf).cast("q")
        mv[0:n] = memoryview(array("q", self.vertex_ids))
        mv[n : 2 * n + 1] = memoryview(array("q", self.offsets))
        if m:
            mv[2 * n + 1 : 2 * n + 1 + m] = memoryview(array("q", self.neighbors))
        mv.release()
        return CSRShmHandle(shm.name, n, m), shm

    @classmethod
    def from_shared(cls, handle: CSRShmHandle) -> "CSRAdjacency":
        """Attach to a shared block — zero adjacency bytes are copied.

        The returned object keeps the mapping alive for its own lifetime
        and unregisters it from the resource tracker (the creator owns
        unlinking).
        """
        shm = _attach_untracked(handle.name)
        n, m = handle.num_vertices, handle.num_neighbors
        mv = memoryview(shm.buf).cast("q")
        csr = cls(
            mv[0:n],
            mv[n : 2 * n + 1],
            mv[2 * n + 1 : 2 * n + 1 + m],
        )
        csr._shm = shm
        return csr

    def detach(self) -> None:
        """Release an attached mapping (no-op for non-shared instances).

        Drops every buffer-backed reference this object holds (views,
        arrays) so the exported memoryviews die, then closes the mapping.
        Callers must drop their own row views first.
        """
        shm, self._shm = self._shm, None
        if shm is None:
            return
        self._views.clear()
        self.vertex_ids = ()
        self.offsets = ()
        self.neighbors = ()
        self._row_of = {}
        shm.close()
