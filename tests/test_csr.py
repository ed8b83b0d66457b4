"""Tests for the packed CSR adjacency and the csr row price.

Covers construction parity with the graph's adjacency, the row view the
benchmark ledger probes, the store's 8-bytes-per-id price (its values
stay the graph's own frozensets), and the zero-copy shared-memory
round-trip — a child process attaches by *handle only* (name + two
sizes) and reads every adjacency row, proving no adjacency data needs to
cross the process boundary.
"""

import multiprocessing as mp
import os

import pytest

from repro.engine.config import ADJACENCY_BACKENDS, BenuConfig
from repro.graph.csr import CSRAdjacency, CSRShmHandle
from repro.graph.generators import chung_lu, erdos_renyi
from repro.graph.graph import Graph, star_graph
from repro.storage.kvstore import DistributedKVStore


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.15, seed=11)


class TestConstruction:
    def test_rows_match_adjacency(self, graph):
        csr = CSRAdjacency.from_graph(graph)
        for v in graph.vertices:
            assert tuple(csr.row(v).ids) == graph.sorted_neighbors(v)
            assert csr.degree(v) == graph.degree(v)

    def test_graph_csr_is_cached(self, graph):
        assert graph.csr() is graph.csr()

    def test_isolated_vertices(self):
        g = Graph([(1, 2)], vertices=[1, 2, 3])
        csr = CSRAdjacency.from_graph(g)
        assert len(csr.row(3)) == 0
        assert not csr.row(3)
        assert list(csr.vertex_ids) == [1, 2, 3]

    def test_offsets_shape_validated(self):
        with pytest.raises(ValueError):
            CSRAdjacency([1, 2], [0, 1], [2, 1])


class TestAdjacencyView:
    def test_set_protocol(self, graph):
        v = graph.vertices[0]
        view = graph.csr().row(v)
        nbrs = graph.neighbors(v)
        assert len(view) == len(nbrs)
        assert view.fset() == nbrs

    def test_fset_and_materialize_cache(self, graph):
        view = graph.csr().row(graph.vertices[0])
        s = view.fset()
        assert view.fset() is s
        assert s == frozenset(view.ids)

    def test_nbytes_exact(self, graph):
        csr = graph.csr()
        for v in graph.vertices:
            assert csr.row(v).nbytes() == 8 * graph.degree(v)


class TestMemoryAccounting:
    def test_memory_bytes_formula(self, graph):
        n, m = graph.num_vertices, graph.num_edges
        assert graph.csr().memory_bytes() == 8 * (n + (n + 1) + 2 * m)
        assert graph.memory_bytes("csr") == graph.csr().memory_bytes()
        assert graph.memory_bytes("frozenset") > graph.memory_bytes("csr")

    def test_unknown_backend_rejected(self, graph):
        with pytest.raises(Exception):
            graph.memory_bytes("btree")
        assert set(ADJACENCY_BACKENDS) == {"frozenset", "csr"}
        with pytest.raises(ValueError):
            BenuConfig(adjacency_backend="btree")


class TestStoreIntegration:
    def test_values_are_the_graphs_frozensets_priced_at_8_bytes_per_id(self, graph):
        store = DistributedKVStore.from_graph(graph, backend="csr")
        for v in graph.vertices:
            assert store.get(v) is graph.neighbors(v)
            assert store.value_bytes(v) == 8 * graph.degree(v)
        assert store.total_bytes() == 8 * 2 * graph.num_edges
        assert len(store) == graph.num_vertices
        # One compute form: the price is all the setting changes.
        plain = DistributedKVStore.from_graph(graph)
        assert all(plain.get(v) is store.get(v) for v in graph.vertices)
        assert plain.total_bytes() != store.total_bytes()

    def test_put_prices_by_the_backend(self, graph):
        store = DistributedKVStore.from_graph(graph, backend="csr")
        store.put(1, frozenset([2, 300]))
        assert store.get(1) == frozenset([2, 300])
        assert store.value_bytes(1) == 16

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            DistributedKVStore(backend="btree")


# -- shared memory ------------------------------------------------------
def _child_reads_rows(handle_tuple, vertices, conn):
    """Attach by handle ONLY — no graph object ever reaches this process."""
    handle = CSRShmHandle(*handle_tuple)
    csr = CSRAdjacency.from_shared(handle)
    try:
        conn.send({v: tuple(csr.row(v).ids) for v in vertices})
    finally:
        conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
class TestSharedMemory:
    def test_round_trip_same_process(self, graph):
        csr = graph.csr()
        handle, shm = csr.to_shared()
        try:
            attached = CSRAdjacency.from_shared(handle)
            try:
                for v in graph.vertices:
                    assert tuple(attached.row(v).ids) == graph.sorted_neighbors(v)
                assert handle.nbytes == csr.memory_bytes()
            finally:
                attached.detach()
        finally:
            shm.close()
            shm.unlink()

    def test_child_attaches_by_handle_only(self, graph):
        """The zero-copy claim: a fresh process reconstructs every row from
        the 3-field handle, so worker memory cannot scale with graph size."""
        csr = graph.csr()
        handle, shm = csr.to_shared()
        try:
            ctx = mp.get_context("fork")
            parent_conn, child_conn = ctx.Pipe()
            p = ctx.Process(
                target=_child_reads_rows,
                args=(
                    (handle.name, handle.num_vertices, handle.num_neighbors),
                    list(graph.vertices),
                    child_conn,
                ),
            )
            p.start()
            rows = parent_conn.recv()
            p.join(timeout=30)
            assert p.exitcode == 0
        finally:
            shm.close()
            shm.unlink()
        assert rows == {v: graph.sorted_neighbors(v) for v in graph.vertices}

    def test_detach_releases_mapping(self, graph):
        handle, shm = graph.csr().to_shared()
        try:
            attached = CSRAdjacency.from_shared(handle)
            attached.detach()
            attached.detach()  # idempotent
            assert attached._shm is None
        finally:
            shm.close()
            shm.unlink()

    def test_star_graph_hub_row(self):
        g = star_graph(50)
        handle, shm = g.csr().to_shared()
        try:
            attached = CSRAdjacency.from_shared(handle)
            try:
                hub = max(g.vertices, key=g.degree)
                assert tuple(attached.row(hub).ids) == g.sorted_neighbors(hub)
            finally:
                attached.detach()
        finally:
            shm.close()
            shm.unlink()
