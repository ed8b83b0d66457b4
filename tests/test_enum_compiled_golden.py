"""The ledger's enum_compiled workload in miniature, pinned.

The benchmark's count-only regime: compiled plans over the csr layout on
the simulated backend, with a bounded LRU database cache holding a
quarter of the adjacency bytes, so the cache evicts and the order in
which a plan issues its DBQs decides every storage counter.  This module
runs the seven bundled patterns of that workload on a seeded Chung–Lu
graph and pins, per pattern, the match count, the six engine counters,
the cache's hits / misses / evictions and the store's query and byte
totals — the workload's exact storage counters as a tier-1 assertion.

Regenerate the golden file (only when a counter is *meant* to change)
with ``PYTHONPATH=src python tests/test_enum_compiled_golden.py``.
"""

import json
from dataclasses import astuple
from pathlib import Path

from repro.engine.benu import execute_plan, prepare_data, prepare_plan
from repro.engine.cluster import SimulatedCluster
from repro.engine.config import BenuConfig
from repro.graph.generators import chung_lu
from repro.graph.patterns import get_pattern
from repro.pattern.pattern_graph import PatternGraph

GOLDEN = Path(__file__).parent / "golden" / "enum_compiled_mini.json"

#: The count-only patterns of the ledger's enum_compiled, in its order.
COMPILED_PATTERNS = (
    "square", "q4", "demo", "q2", "q1", "chordal_square", "clique4",
)


def _run():
    graph = chung_lu(200, 5.0, exponent=2.5, seed=7)
    config = BenuConfig(
        execution_backend="simulated",
        adjacency_backend="csr",
        cache_capacity_bytes=2 * graph.num_edges * 8 // 4,
    )
    prepared = prepare_data(graph, config)
    cluster = SimulatedCluster(prepared.graph, config)
    out = {}
    for name in COMPILED_PATTERNS:
        plan = prepare_plan(PatternGraph(get_pattern(name), name), prepared, config)
        result = execute_plan(plan, prepared, config, cluster=cluster)
        out[name] = {
            "count": result.count,
            "counters": list(astuple(result.counters)),
            "cache": [
                result.cache.hits, result.cache.misses, result.cache.evictions
            ],
            "store": [
                result.communication.queries,
                result.communication.bytes_transferred,
            ],
        }
    return out


def test_every_pattern_matches_the_golden():
    assert _run() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_run(), indent=1) + "\n", encoding="utf-8")
