#!/usr/bin/env python
"""BENU-QL end-to-end smoke: the query op over real process boundaries.

Two phases, both checked against a brute-force oracle that shares no
code with the engine (``labeled/oracle.py``'s matcher; projection and
GROUP BY done here with a ``Counter``):

1. **stdio serve** — a ``benu serve`` child process speaks the JSON-lines
   protocol over its stdin/stdout.  A labeled graph is registered over
   the wire (``labels`` field), then BENU-QL count / stream / GROUP BY
   queries are piped through the ``query`` op and polled to completion.
   A syntactically broken query must come back as a structured
   ``query_syntax`` error carrying line, column and a caret snippet.
2. **routed shards** — two real ``benu serve --shard-index`` TCP
   processes behind a :class:`~repro.shard.ShardRouter`; the same
   queries fan out through ``ShardRouter.submit_query`` and the merged
   counts / group sums / match sets must equal the oracle exactly.

Both phases also stream every full row of a square query on a seeded
Chung–Lu graph (:data:`BIG_EDGES`) in 1,024-row pages — at least
:data:`MIN_FULL_PAGES` of them full, the packed int64 pages a node
formats straight from their buffer — and compare the rows with the
oracle's.

Exit status is non-zero on any divergence — this is the deployment-level
acceptance for the declarative front-end (real processes, real sockets),
complementing the in-process equivalence sweep in
``tests/test_lang_equivalence.py``.
"""

import json
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.graph.generators import chung_lu  # noqa: E402
from repro.graph.graph import Graph  # noqa: E402
from repro.graph.order import (  # noqa: E402
    degree_order_relabeling,
    invert_mapping,
)
from repro.labeled.graphs import LabeledGraph  # noqa: E402
from repro.labeled.oracle import enumerate_labeled_matches  # noqa: E402
from repro.lang import lower_query  # noqa: E402
from repro.pattern.isomorphism import enumerate_matches  # noqa: E402
from repro.shard import ShardRouter, TCPShardClient  # noqa: E402

EPOCH = 1

#: A small labeled graph shared by both phases (two fused triangles and
#: a pendant edge; labels chosen so label predicates actually prune).
EDGES = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5), (1, 4), (5, 6)]
LABELS = {1: "A", 2: "B", 3: "A", 4: "B", 5: "A", 6: "C"}

Q_COUNT = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN COUNT(*)"
Q_STREAM = "MATCH (a)-(b), (b)-(c), (a)-(c) RETURN a, b"
Q_GROUPS = (
    "MATCH (a)-(b), (b)-(c), (a)-(c) WHERE a.label = 'A' "
    "RETURN COUNT(*) GROUP BY a"
)
Q_UNSAT = (
    "MATCH (a)-(b) WHERE a.label = 'A' AND a.label = 'B' RETURN COUNT(*)"
)
Q_BROKEN = "MATCH (a)-(b), RETURN COUNT(*)"

#: An unlabeled seeded Chung–Lu graph with 20,401 squares: a full-row
#: stream of many 1,024-row pages.
BIG_EDGES = sorted(chung_lu(400, 8.0, exponent=2.4, seed=2019).edges())
Q_FULL_ROWS = "MATCH (a)-(b), (b)-(c), (c)-(d), (a)-(d) RETURN *"
PAGE = 1024
MIN_FULL_PAGES = 5


def brute_force_rows(text, edges=EDGES, labels=LABELS):
    """Every match of a query, found by exhaustive search.

    The graph is renumbered under the degree order first, so the
    oracle's integer symmetry breaking keeps the same representative of
    each subgraph as the engine; rows come back in original ids.
    """
    lowered = lower_query(text)
    if lowered.unsatisfiable:
        return lowered, []
    graph = Graph(edges)
    mapping = degree_order_relabeling(graph)
    pattern = lowered.pattern
    if lowered.is_labeled:
        ranked = LabeledGraph(graph, labels).relabel_vertices(mapping)
        found = enumerate_labeled_matches(pattern, ranked)
    else:
        found = enumerate_matches(
            pattern.graph, graph.relabel(mapping),
            partial_order=pattern.symmetry_conditions,
        )
    inverse = invert_mapping(mapping)
    return lowered, [tuple(inverse[v] for v in match) for match in found]


def oracle():
    _, triangles = brute_force_rows(Q_COUNT)
    stream, rows = brute_force_rows(Q_STREAM)
    groups, grouped = brute_force_rows(Q_GROUPS)
    return {
        "count": len(triangles),
        "stream": sorted(
            tuple(row[i] for i in stream.projection) for row in rows
        ),
        "groups": {
            str(k): v
            for k, v in Counter(row[groups.group_by] for row in grouped).items()
        },
        "unsat": len(brute_force_rows(Q_UNSAT)[1]),
        "full_rows": sorted(brute_force_rows(Q_FULL_ROWS, BIG_EDGES)[1]),
    }


def check_full_rows(where, pages, expected):
    """The big stream's verdict: its rows equal the oracle's, and at
    least ``MIN_FULL_PAGES`` of its pages were full."""
    rows = sorted(tuple(row) for page in pages for row in page)
    full = sum(len(page) == PAGE for page in pages)
    ok = rows == expected["full_rows"] and full >= MIN_FULL_PAGES
    print(
        f"{'OK  ' if ok else 'FAIL'} full-row stream{where}: {len(rows)} rows "
        f"in {len(pages)} pages, {full} of them full",
        flush=True,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------- phase 1
class StdioService:
    """A ``benu serve`` child driven over stdin/stdout JSON lines."""

    def __init__(self):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"],
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )

    def ask(self, payload):
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("serve closed its stdout")
        return json.loads(line)

    def close(self):
        try:
            self.ask({"op": "shutdown"})
        except (RuntimeError, BrokenPipeError, OSError):
            pass
        self.process.stdin.close()
        self.process.wait(timeout=10)


def run_wire_query(ask, text, expect_kind):
    """Submit one query op and drain it; returns (count, matches, groups)."""
    submitted = ask({"op": "query", "text": text, "graph": "g"})
    assert submitted.get("ok"), submitted
    assert submitted.get("kind") == expect_kind, submitted
    query_id = submitted["query"]
    if expect_kind == "stream":
        matches, cursor = [], 0
        while True:
            page = ask(
                {"op": "poll", "query": query_id, "limit": 64,
                 "cursor": cursor}
            )
            assert page.get("ok"), page
            matches.extend(tuple(m) for m in page.get("matches", []))
            cursor = page.get("cursor", cursor)
            if page.get("done"):
                return len(matches), sorted(matches), None
            time.sleep(0.005)
    while True:
        response = ask({"op": "poll", "query": query_id, "wait": 5.0})
        assert response.get("ok"), response
        if response.get("done"):
            return (
                int(response.get("count", 0)),
                None,
                response.get("groups"),
            )


def phase_stdio(expected):
    print("phase 1: BENU-QL over `benu serve` stdio ...", flush=True)
    failures = 0
    service = StdioService()
    try:
        registered = service.ask(
            {
                "op": "register", "name": "g",
                "edges": [list(e) for e in EDGES],
                "labels": {str(v): l for v, l in LABELS.items()},
            }
        )
        assert registered.get("ok") and registered.get("labeled"), registered

        count, _, _ = run_wire_query(service.ask, Q_COUNT, "count")
        ok = count == expected["count"]
        print(f"{'OK  ' if ok else 'FAIL'} count: {count}", flush=True)
        failures += 0 if ok else 1

        _, matches, _ = run_wire_query(service.ask, Q_STREAM, "stream")
        ok = matches == expected["stream"]
        print(
            f"{'OK  ' if ok else 'FAIL'} stream: {len(matches)} rows",
            flush=True,
        )
        failures += 0 if ok else 1

        _, _, groups = run_wire_query(service.ask, Q_GROUPS, "groups")
        ok = groups == expected["groups"]
        print(f"{'OK  ' if ok else 'FAIL'} groups: {groups}", flush=True)
        failures += 0 if ok else 1

        count, _, _ = run_wire_query(service.ask, Q_UNSAT, "count")
        ok = count == expected["unsat"] == 0
        print(f"{'OK  ' if ok else 'FAIL'} unsatisfiable: {count}", flush=True)
        failures += 0 if ok else 1

        error = service.ask({"op": "query", "text": Q_BROKEN, "graph": "g"})
        ok = (
            not error.get("ok")
            and error.get("error") == "query_syntax"
            and error.get("line") == 1
            and isinstance(error.get("column"), int)
            and "^" in error.get("snippet", "")
        )
        print(
            f"{'OK  ' if ok else 'FAIL'} structured syntax error: "
            f"{error.get('error')} at {error.get('line')}:"
            f"{error.get('column')}",
            flush=True,
        )
        failures += 0 if ok else 1

        registered = service.ask({
            "op": "register", "name": "big",
            "edges": [list(e) for e in BIG_EDGES],
        })
        assert registered.get("ok"), registered
        submitted = service.ask(
            {"op": "query", "text": Q_FULL_ROWS, "graph": "big"}
        )
        assert submitted.get("ok"), submitted
        pages, cursor = [], 0
        while True:
            page = service.ask({
                "op": "poll", "query": submitted["query"], "limit": PAGE,
                "cursor": cursor, "wait": 10.0,
            })
            assert page.get("ok"), page
            pages.append(page["matches"])
            cursor = page["cursor"]
            if page["done"]:
                break
        failures += check_full_rows("", pages, expected)
    finally:
        service.close()
    return failures


# ---------------------------------------------------------------- phase 2
def _launch_shard(index, shard_count):
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--shard-index", str(index), "--shard-count", str(shard_count),
            "--epoch", str(EPOCH),
        ],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if "serving on" in line:
            port = int(re.search(r":(\d+) as", line).group(1))
            return process, port
        if process.poll() is not None:
            break
    raise RuntimeError(f"shard {index} failed to start")


def phase_routed(expected, num_shards=2):
    print(
        f"phase 2: BENU-QL routed over {num_shards} TCP shards ...",
        flush=True,
    )
    failures = 0
    shards = []
    try:
        for index in range(num_shards):
            shards.append(_launch_shard(index, num_shards))
        ports = [port for _, port in shards]
        print(f"shards up on ports {ports}", flush=True)
        router = ShardRouter(
            [TCPShardClient("127.0.0.1", port) for port in ports],
            expected_epoch=EPOCH,
        )
        router.register(
            "g",
            edges=[list(e) for e in EDGES],
            labels={str(v): l for v, l in LABELS.items()},
        )

        result = router.submit_query(Q_COUNT, "g").result()
        per_shard = [entry["count"] for entry in result["per_shard"]]
        ok = result["count"] == expected["count"]
        print(
            f"{'OK  ' if ok else 'FAIL'} count: router {result['count']} = "
            f"{' + '.join(map(str, per_shard))}",
            flush=True,
        )
        failures += 0 if ok else 1

        got = sorted(
            tuple(m) for m in router.submit_query(Q_STREAM, "g").matches()
        )
        ok = got == expected["stream"]
        print(f"{'OK  ' if ok else 'FAIL'} stream: {len(got)} rows", flush=True)
        failures += 0 if ok else 1

        result = router.submit_query(Q_GROUPS, "g").result()
        ok = result.get("groups") == expected["groups"]
        print(
            f"{'OK  ' if ok else 'FAIL'} groups: {result.get('groups')}",
            flush=True,
        )
        failures += 0 if ok else 1

        result = router.submit_query(Q_UNSAT, "g").result()
        ok = result["count"] == 0
        print(
            f"{'OK  ' if ok else 'FAIL'} unsatisfiable: {result['count']}",
            flush=True,
        )
        failures += 0 if ok else 1

        router.register("big", edges=[list(e) for e in BIG_EDGES])
        query = router.submit_query(Q_FULL_ROWS, "big")
        pages = []
        while True:
            page = query.fetch(limit=PAGE)
            pages.append(list(page.matches))
            if page.done:
                break
        failures += check_full_rows(" (routed)", pages, expected)

        router.shutdown()
        router.close()
    finally:
        for process, _ in shards:
            process.terminate()
        for process, _ in shards:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
    return failures


def main():
    expected = oracle()
    print(
        f"oracle: count={expected['count']} "
        f"stream={len(expected['stream'])} groups={expected['groups']}",
        flush=True,
    )
    failures = phase_stdio(expected)
    failures += phase_routed(expected)
    if failures:
        print(f"{failures} query-smoke check(s) failed", file=sys.stderr)
        return 1
    print("query smoke passed: wire results equal the brute-force oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
