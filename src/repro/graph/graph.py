"""Undirected, unlabeled simple graphs.

The :class:`Graph` class is the shared substrate for both data graphs and
pattern graphs.  It stores the adjacency structure as a dictionary mapping
each vertex id to a ``frozenset`` of neighbor ids.  Frozensets give the two
operations the BENU hot loop lives on — membership tests and intersections —
their C-level speed, and make adjacency sets safe to share between caches,
workers and plans without defensive copying.

Vertices are arbitrary hashable integers.  The module enforces the paper's
graph model (Section II-A): undirected, no self loops, no parallel edges.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

Vertex = int
Edge = Tuple[int, int]


class GraphError(ValueError):
    """Raised when an operation would violate the simple-graph model."""


def normalize_edge(u: Vertex, v: Vertex) -> Edge:
    """Return the canonical (min, max) form of an undirected edge.

    >>> normalize_edge(3, 1)
    (1, 3)
    """
    if u == v:
        raise GraphError(f"self loop ({u}, {v}) is not allowed in a simple graph")
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable undirected simple graph.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` pairs.  Duplicates (in either orientation)
        collapse to a single edge.
    vertices:
        Optional extra vertices to include even if isolated.

    Examples
    --------
    >>> g = Graph([(1, 2), (2, 3), (1, 3)])
    >>> g.num_vertices, g.num_edges
    (3, 3)
    >>> sorted(g.neighbors(2))
    [1, 3]
    """

    __slots__ = (
        "_adj",
        "_num_edges",
        "_vertices",
        "_sorted_adj",
        "_degree_seq",
        "_csr",
    )

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        vertices: Iterable[Vertex] = (),
    ) -> None:
        adj: Dict[Vertex, set] = {v: set() for v in vertices}
        num_edges = 0
        for u, v in edges:
            u, v = normalize_edge(u, v)
            if u not in adj:
                adj[u] = set()
            if v not in adj:
                adj[v] = set()
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                num_edges += 1
        self._adj: Dict[Vertex, FrozenSet[Vertex]] = {
            v: frozenset(nbrs) for v, nbrs in adj.items()
        }
        self._num_edges = num_edges
        self._vertices: Tuple[Vertex, ...] = tuple(sorted(self._adj))
        # Lazily built, immutable-graph caches (the class never mutates
        # after __init__): sorted adjacency rows, the degree sequence, and
        # the packed CSR form.
        self._sorted_adj: Dict[Vertex, Tuple[Vertex, ...]] = {}
        self._degree_seq: Optional[List[int]] = None
        self._csr = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``N = |V(G)|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """``M = |E(G)|``."""
        return self._num_edges

    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """All vertices, sorted ascending."""
        return self._vertices

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        """The adjacency set Γ(v).  Raises ``KeyError`` for unknown vertices."""
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        """``d(v) = |Γ(v)|``."""
        return len(self._adj[v])

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def sorted_neighbors(self, v: Vertex) -> Tuple[Vertex, ...]:
        """Γ(v) sorted ascending, cached (the graph is immutable)."""
        cached = self._sorted_adj.get(v)
        if cached is None:
            cached = tuple(sorted(self._adj[v]))
            self._sorted_adj[v] = cached
        return cached

    def edges(self) -> Iterator[Edge]:
        """Iterate edges in canonical (min, max) orientation, sorted."""
        for u in self._vertices:
            for v in self.sorted_neighbors(u):
                if u < v:
                    yield (u, v)

    def adjacency(self) -> Dict[Vertex, FrozenSet[Vertex]]:
        """The underlying adjacency mapping (shared, not copied)."""
        return self._adj

    def csr(self):
        """The packed CSR form of this graph's adjacency, built once.

        Returns a :class:`repro.graph.csr.CSRAdjacency`; see that module
        for the layout.  Nothing computes on it: compiled plans read
        :meth:`neighbors`.
        """
        if self._csr is None:
            from .csr import CSRAdjacency

            self._csr = CSRAdjacency.from_graph(self)
        return self._csr

    def memory_bytes(self, backend: str = "frozenset") -> int:
        """Estimated adjacency footprint under the given backend.

        ``csr`` is exact (8 bytes per stored id plus the offset index);
        ``frozenset`` approximates CPython's per-object costs: a dict slot
        plus a frozenset header per vertex and a hash slot plus a boxed
        int per neighbor entry.
        """
        if backend == "csr":
            n, m2 = self.num_vertices, 2 * self._num_edges
            return 8 * (n + (n + 1) + m2)
        if backend == "frozenset":
            # 64B frozenset header + dict entry per vertex; 8B hash slot
            # (at ~3x load-factor headroom) + 28B boxed int per endpoint.
            n, m2 = self.num_vertices, 2 * self._num_edges
            return 104 * n + 52 * m2
        raise GraphError(f"unknown adjacency backend {backend!r}")

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertex_set: Iterable[Vertex]) -> "Graph":
        """The induced subgraph g(V') of Definition in Section II-A."""
        keep = {v for v in vertex_set if v in self._adj}
        edges = [
            (u, v)
            for u in keep
            for v in self._adj[u]
            if v in keep and u < v
        ]
        return Graph(edges, vertices=keep)

    def relabel(self, mapping: Dict[Vertex, Vertex]) -> "Graph":
        """Return a copy with every vertex ``v`` renamed to ``mapping[v]``.

        The mapping must be injective over ``self.vertices``.
        """
        image = [mapping[v] for v in self._vertices]
        if len(set(image)) != len(image):
            raise GraphError("relabel mapping is not injective")
        edges = [(mapping[u], mapping[v]) for u, v in self.edges()]
        return Graph(edges, vertices=image)

    def degree_sequence(self) -> List[int]:
        """Degrees sorted descending (graph invariant, computed once)."""
        if self._degree_seq is None:
            self._degree_seq = sorted(
                (len(n) for n in self._adj.values()), reverse=True
            )
        return list(self._degree_seq)

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------
    def connected_components(self) -> List[FrozenSet[Vertex]]:
        """All connected components as frozensets of vertices."""
        seen: set = set()
        components: List[FrozenSet[Vertex]] = []
        for start in self._vertices:
            if start in seen:
                continue
            stack = [start]
            comp = {start}
            seen.add(start)
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if w not in comp:
                        comp.add(w)
                        seen.add(w)
                        stack.append(w)
            components.append(frozenset(comp))
        return components

    def is_connected(self) -> bool:
        """True iff the graph has exactly one connected component."""
        return len(self.connected_components()) == 1 if self._adj else True

    def bfs_hops(self, source: Vertex) -> Dict[Vertex, int]:
        """Hop distances from ``source`` to every reachable vertex."""
        dist = {source: 0}
        frontier = [source]
        hops = 0
        while frontier:
            hops += 1
            nxt: List[Vertex] = []
            for u in frontier:
                for w in self._adj[u]:
                    if w not in dist:
                        dist[w] = hops
                        nxt.append(w)
            frontier = nxt
        return dist

    def eccentricity(self, v: Vertex) -> int:
        """Max hop distance from ``v`` (within its component)."""
        return max(self.bfs_hops(v).values(), default=0)

    def radius(self) -> int:
        """min over vertices of eccentricity — bounds BENU task locality."""
        if not self._adj:
            return 0
        return min(self.eccentricity(v) for v in self._vertices)

    def r_hop_neighborhood(self, v: Vertex, r: int) -> FrozenSet[Vertex]:
        """γ^r(v): vertices at most ``r`` hops from ``v`` (Section V-A)."""
        if r < 0:
            raise GraphError("r must be non-negative")
        return frozenset(u for u, d in self.bfs_hops(v).items() if d <= r)

    def neighborhood_size(self, v: Vertex, r: int) -> int:
        """S^r(v) = Σ_{w ∈ γ^r(v)} d(w) (Section V-A complexity bound)."""
        return sum(len(self._adj[w]) for w in self.r_hop_neighborhood(v, r))

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertices)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(frozenset((v, nbrs) for v, nbrs in self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


def complete_graph(n: int, offset: int = 1) -> Graph:
    """The n-clique on vertices ``offset .. offset+n-1``."""
    vs = range(offset, offset + n)
    return Graph([(u, v) for u in vs for v in vs if u < v], vertices=vs)


def cycle_graph(n: int, offset: int = 1) -> Graph:
    """The n-cycle C_n (n >= 3)."""
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    vs = list(range(offset, offset + n))
    return Graph([(vs[i], vs[(i + 1) % n]) for i in range(n)])


def path_graph(n: int, offset: int = 1) -> Graph:
    """The n-vertex path P_n."""
    vs = list(range(offset, offset + n))
    return Graph(
        [(vs[i], vs[i + 1]) for i in range(n - 1)],
        vertices=vs,
    )


def star_graph(leaves: int, offset: int = 1) -> Graph:
    """A star: one hub (first vertex) with ``leaves`` spokes."""
    hub = offset
    return Graph([(hub, hub + i) for i in range(1, leaves + 1)], vertices=[hub])


def union_graphs(graphs: Sequence[Graph]) -> Graph:
    """Disjoint-content union (vertex ids must already be disjoint or shared)."""
    edges: List[Edge] = []
    vertices: List[Vertex] = []
    for g in graphs:
        edges.extend(g.edges())
        vertices.extend(g.vertices)
    return Graph(edges, vertices=vertices)
