"""Backend equivalence: every runtime × layout must be indistinguishable.

Three axes, crossed over the exhaustive connected-pattern corpus and the
bundled pattern library:

* frozenset vs csr row prices through the full pipeline — identical
  counts and identical match multisets;
* interpreter (the literal oracle) vs compiled plans under the csr price;
* the execution-backend matrix — simulated / inline / process ×
  frozenset / csr, byte-identical match sets for every bundled pattern,
  and one full row sequence across simulated, inline and process×2;
* the same matrix through the service for a streamed, a projected, a
  limited and a grouped BENU-QL query — packed row blocks end to end
  must deliver the rows list-flat blocks deliver, in their order.

Any codegen, pricing or IPC envelope bug shows up here as a mismatch on
some small pattern.
"""

import pytest

from repro.engine.benu import build_plan, count_subgraphs, run_benu
from repro.engine.config import (
    ADJACENCY_BACKENDS,
    EXECUTION_BACKENDS,
    BenuConfig,
)
from repro.engine.interpreter import interpret_all
from repro.graph.generators import chung_lu, erdos_renyi
from repro.graph.graph import Graph, star_graph
from repro.graph.order import relabel_by_degree_order
from repro.graph.patterns import PATTERNS
from repro.lang import run_query
from repro.pattern.pattern_graph import PatternGraph
from repro.service import BenuService

from tests.test_exhaustive_small import PATTERNS_3, PATTERNS_4

ALL_PATTERNS = PATTERNS_3 + PATTERNS_4


@pytest.fixture(scope="module")
def data_graphs():
    graphs = [
        erdos_renyi(22, 0.3, seed=4),
        chung_lu(50, 5.0, exponent=2.3, seed=9),
        star_graph(12),  # hub row: maximal size skew for the kernels
    ]
    return [relabel_by_degree_order(g)[0] for g in graphs]


class TestCountEquivalence:
    @pytest.mark.parametrize("idx", range(len(ALL_PATTERNS)))
    def test_identical_counts(self, idx, data_graphs):
        pg = PatternGraph(ALL_PATTERNS[idx], f"eq{idx}")
        for g in data_graphs:
            fs = count_subgraphs(
                pg, g, BenuConfig(relabel=False, adjacency_backend="frozenset")
            )
            cs = count_subgraphs(
                pg, g, BenuConfig(relabel=False, adjacency_backend="csr")
            )
            assert fs == cs, (idx, g.num_vertices)

    @pytest.mark.parametrize("idx", range(len(ALL_PATTERNS)))
    def test_identical_match_multisets(self, idx, data_graphs):
        pg = PatternGraph(ALL_PATTERNS[idx], f"eq{idx}")
        g = data_graphs[0]
        fs = run_benu(
            pg,
            g,
            BenuConfig(
                relabel=False, collect=True, adjacency_backend="frozenset"
            ),
        )
        cs = run_benu(
            pg,
            g,
            BenuConfig(relabel=False, collect=True, adjacency_backend="csr"),
        )
        assert sorted(fs.matches) == sorted(cs.matches)


class TestExecutionBackendMatrix:
    """simulated / inline / process × frozenset / csr, every bundled pattern.

    The contract the backends package exists for: one logical pipeline,
    interchangeable runtimes.  Match sets are compared *byte*-identical
    (same tuples, same canonical serialization) so nothing — not an IPC
    envelope, not an id translation, not an emit-ordering quirk after
    sorting — can distinguish which runtime produced a result.
    """

    @staticmethod
    def _canonical(result):
        return b"\n".join(
            b",".join(str(v).encode() for v in match)
            for match in sorted(result.matches)
        )

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_bundled_pattern_matrix(self, name, data_graphs):
        g = data_graphs[0]
        expected_bytes = None
        expected_count = None
        for execution in EXECUTION_BACKENDS:
            for adjacency in ADJACENCY_BACKENDS:
                result = run_benu(
                    PATTERNS[name],
                    g,
                    BenuConfig(
                        relabel=False,
                        collect=True,
                        execution_backend=execution,
                        adjacency_backend=adjacency,
                        num_workers=2,
                        split_threshold=16,
                    ),
                )
                got = self._canonical(result)
                if expected_bytes is None:
                    expected_bytes = got
                    expected_count = result.count
                assert got == expected_bytes, (name, execution, adjacency)
                assert result.count == expected_count, (name, execution, adjacency)

    def test_compressed_counts_across_backends(self, data_graphs):
        """VCBC code counts agree between the simulated and process runtimes."""
        g = data_graphs[1]
        counts = {
            backend: run_benu(
                PATTERNS["clique4"],
                g,
                BenuConfig(
                    relabel=False,
                    compressed=True,
                    execution_backend=backend,
                    num_workers=2,
                ),
            ).count
            for backend in ("simulated", "process")
        }
        assert counts["simulated"] == counts["process"]


class TestOneRowSequence:
    """Simulated, inline and process×2 emit one row sequence, not only one
    row set: the interpreter meets operands in the order codegen does, and
    a copied hash set could iterate in another order."""

    @pytest.fixture(scope="class")
    def small(self):
        return chung_lu(300, 5, 2.5, seed=2019)

    @pytest.mark.parametrize("name", (
        "triangle", "square", "chordal_square", "clique4", "clique5",
        "q1", "q3", "q4", "q5", "demo",
    ))
    def test_full_rows_are_one_sequence(self, name, small):
        sequences = {
            execution: run_benu(PATTERNS[name], small, BenuConfig(
                collect=True, execution_backend=execution, num_workers=2,
            )).matches
            for execution in ("simulated", "inline", "process")
        }
        want = sequences.pop("simulated")
        assert want
        for execution, rows in sequences.items():
            first = next(
                (i for i, (a, b) in enumerate(zip(rows, want)) if a != b),
                None,
            )
            assert len(rows) == len(want) and first is None, (execution, first)


class TestStreamedQueryMatrix:
    """A streamed, projected, limited and grouped query per backend.

    Every query runs twice through the same service: once with packing
    switched off (``packs_rows`` forced False — list-flat row blocks
    through the same sink chain, the buffer compressed codes and string
    ids use) and once as shipped.  The packed stream must be byte-identical
    to the list-flat one *in order* on every backend — a process pool
    delivers chunks in task order too — and a LIMIT keeps the unlimited
    stream's prefix.  Both are also checked against ``run_query``: the
    local run into a collecting sink, with no stream buffer, pages or
    limit in its path.
    """

    STREAM = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN *"
    PROJECT = "MATCH (a)-(b), (b)-(c), (c)-(d) RETURN d, a"
    GROUPS = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN COUNT(*) GROUP BY b"
    LIMIT = 17

    @pytest.fixture(scope="class")
    def graph(self):
        # Ids far from 0..n-1, so the translation back is never the identity.
        base = chung_lu(60, 5.0, exponent=2.3, seed=11)
        return Graph((1000 + 7 * u, 1000 + 7 * v) for u, v in base.edges())

    @staticmethod
    def _bytes(rows):
        return b"\n".join(b",".join(str(v).encode() for v in r) for r in rows)

    def _answers(self, service):
        """(rows, limited rows) per streamed query, and the group counts."""
        out = {}
        for text in (self.STREAM, self.PROJECT):
            rows = list(service.submit_query(text, "g").matches())
            limited = list(
                service.submit_query(text, "g", limit=self.LIMIT).matches()
            )
            out[text] = (rows, limited)
        handle = service.submit_query(self.GROUPS, "g")
        assert handle.wait(timeout=60)
        handle.result()
        out[self.GROUPS] = handle.lang_groups
        return out

    @pytest.mark.parametrize(
        "execution, workers",
        [("simulated", 2), ("inline", 2), ("process", 1), ("process", 2)],
    )
    @pytest.mark.parametrize("adjacency", ADJACENCY_BACKENDS)
    def test_stream_project_limit_group(
        self, graph, execution, workers, adjacency, monkeypatch
    ):
        from repro.engine.backends import process, simulated

        config = BenuConfig(
            execution_backend=execution,
            adjacency_backend=adjacency,
            num_workers=workers,
            split_threshold=16,
        )
        # Small batches: every page crosses several of them.
        with BenuService(config=config, batch_size=8) as service:
            service.register_graph("g", graph)
            packed = self._answers(service)
            with monkeypatch.context() as patch:
                for module in (simulated, process):
                    patch.setattr(module, "packs_rows", lambda request: False)
                by_row = self._answers(service)

        oracle_config = BenuConfig(adjacency_backend=adjacency)
        for text in (self.STREAM, self.PROJECT):
            want = run_query(text, graph, oracle_config).matches
            rows, limited = packed[text]
            ref_rows, ref_limited = by_row[text]
            assert want and sorted(rows) == sorted(want), text
            assert len(limited) == self.LIMIT == len(set(limited))
            assert set(limited) <= set(want)
            assert self._bytes(rows) == self._bytes(ref_rows), text
            assert self._bytes(limited) == self._bytes(ref_limited), text
            assert limited == rows[: self.LIMIT], text
            assert limited == want[: self.LIMIT], text

        groups = packed[self.GROUPS]
        assert groups == run_query(self.GROUPS, graph, oracle_config).groups
        assert groups == by_row[self.GROUPS]
        assert list(groups) == list(by_row[self.GROUPS])


class TestInterpreterOracle:
    """The interpreter, fed the graph's rows, must agree with codegen run
    through a csr-priced store."""

    @pytest.mark.parametrize("idx", range(len(ALL_PATTERNS)))
    def test_interpreter_vs_compiled_on_csr_views(self, idx, data_graphs):
        pg = PatternGraph(ALL_PATTERNS[idx], f"eq{idx}")
        for g in data_graphs[:2]:
            plan = build_plan(pg, g)
            interpreted = interpret_all(plan, g.vertices, g.neighbors)
            compiled = count_subgraphs(
                pg, g, BenuConfig(relabel=False, adjacency_backend="csr")
            )
            assert interpreted.results == compiled


class TestModesUnderCsr:
    def test_compressed_and_optimization_levels(self, data_graphs):
        g = data_graphs[1]
        pg = PatternGraph(ALL_PATTERNS[-1], "dense4")
        for level in range(4):
            for compressed in (False, True):
                counts = [
                    run_benu(
                        pg,
                        g,
                        BenuConfig(
                            relabel=False,
                            adjacency_backend=backend,
                            optimization_level=level,
                            compressed=compressed,
                        ),
                    ).count
                    for backend in ("frozenset", "csr")
                ]
                assert counts[0] == counts[1], (level, compressed)
