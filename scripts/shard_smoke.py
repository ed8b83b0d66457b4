#!/usr/bin/env python
"""Multi-shard smoke: 3 ``benu serve`` shard processes + a router, over
real localhost TCP.

Launches three shard nodes (``--shard-index i --shard-count 3``), routes
the Table-1 pattern suite through a :class:`~repro.shard.ShardRouter`,
and checks every count against a single-node run of the same dataset.
Then a real ``benu route --port`` process in front of the same shards
takes the suite from two client connections at once — the router's
handler threads share its shard clients — and every count must again be
exact.  Writes the cluster's stitched event log (every shard's lifecycle
events merged into one globally-ordered JSONL timeline) to the path given
by ``--event-log`` so CI can upload it as an artifact.

``--chaos`` runs the fault-tolerance acceptance instead: a 3-partition
deployment with a replica for partition 0 gets its partition-0 primary
``kill -9``'d mid-stream (the router must fail over and still deliver
the byte-identical match set), and an in-process process-backend service
has one pool worker SIGKILLed mid-query — plus a deterministic
``worker.task:crash`` schedule as a backstop — and must still report the
exact single-node count, with ``worker_crashed`` / ``task_retried``
events in the log.

Exit status is non-zero on any divergence — this is the deployment-level
acceptance check that the in-process test matrix cannot cover (real
sockets, real processes, real kill -9).
"""

import argparse
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")
sys.path.insert(0, SRC)

from repro.service import BenuService  # noqa: E402
from repro.graph.datasets import load_dataset  # noqa: E402
from repro.shard import ShardRouter, TCPShardClient  # noqa: E402

#: The Table-1 suite the smoke routes (small enough for CI wall clock).
SUITE = ("triangle", "square", "chordal_square", "clique4", "q1", "q3")
DATASET = "as_sim"
NUM_SHARDS = 3
EPOCH = 1


def _launch(args, banner: str) -> tuple:
    """Start ``python -m repro <args>``; (process, the port its stderr
    ``banner`` line announces)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if banner in line:
            port = re.search(r":(\d+)", line.split(banner, 1)[1]).group(1)
            return process, int(port)
        if process.poll() is not None:
            break
    raise RuntimeError(f"`repro {args[0]}` failed to start")


def _launch_shard(index: int, shard_count: int = NUM_SHARDS) -> tuple:
    return _launch(
        [
            "serve", "--port", "0",
            "--shard-index", str(index), "--shard-count", str(shard_count),
            "--epoch", str(EPOCH), "--graph", f"g={DATASET}",
        ],
        "serving on",
    )


def _launch_router(ports) -> tuple:
    shards = [opt for port in ports for opt in ("--shard", f"127.0.0.1:{port}")]
    return _launch(
        ["route", "--port", "0", "--epoch", str(EPOCH), *shards],
        "router listening on",
    )


def _suite_over_one_connection(port: int, budget: float, out: dict) -> None:
    """The whole suite over one client connection; counts into ``out``."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=budget) as sock:
            reader = sock.makefile("rb")

            def ask(request: dict) -> dict:
                sock.sendall(json.dumps(request).encode() + b"\n")
                reply = json.loads(reader.readline())
                if not reply.get("ok"):
                    raise RuntimeError(f"{request['op']}: {reply}")
                return reply

            for name in SUITE:
                query = ask({
                    "op": "submit", "pattern": name, "graph": "g",
                    "stream": False, "deadline": budget,
                })["query"]
                out[name] = ask({"op": "poll", "query": query})["count"]
    except Exception as exc:  # noqa: BLE001 - reported as a failed check
        out["error"] = repr(exc)


def concurrent_clients(ports, reference: dict, budget: float) -> int:
    """Two clients at once through a real ``benu route`` process."""
    process, port = _launch_router(ports)
    try:
        answers = [{}, {}]
        threads = [
            threading.Thread(
                target=_suite_over_one_connection, args=(port, budget, out)
            )
            for out in answers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=budget * len(SUITE))
        failures = 0
        for i, out in enumerate(answers):
            ok = out == reference
            print(
                f"{'OK  ' if ok else 'FAIL'} client {i} of 2 through "
                f"benu route: {out if not ok else 'every count exact'}",
                flush=True,
            )
            failures += 0 if ok else 1
        return failures
    finally:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


def _write_event_log(rows, path_text: str) -> None:
    path = Path(path_text)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    stamps = [row["ts"] for row in rows]
    assert stamps == sorted(stamps), "stitched log must be ordered"
    print(
        f"stitched event log: {len(rows)} events from "
        f"{len({row['shard'] for row in rows})} sources -> {path}",
        flush=True,
    )


def chaos(args) -> int:
    """Fault-tolerance acceptance: kill -9 a shard and a pool worker."""
    from repro.engine.config import BenuConfig

    pattern = "triangle"
    print(f"single-node reference over {DATASET} ...", flush=True)
    with BenuService() as service:
        service.register_graph("g", load_dataset(DATASET), relabel=False)
        handle = service.submit(pattern, "g", stream=True)
        ref_matches = sorted(tuple(m) for m in handle.matches())
    ref_count = len(ref_matches)
    failures = 0

    # -- phase A: kill -9 the partition-0 primary mid-stream ------------
    # 3 partitions plus one extra replica of partition 0 (4 processes).
    shards = []
    try:
        for index in [0, 0, 1, 2]:
            shards.append(_launch_shard(index))
        by_port = {port: process for process, port in shards}
        print(f"shards up on ports {sorted(by_port)}", flush=True)
        router = ShardRouter(
            [TCPShardClient("127.0.0.1", port) for port in by_port],
            expected_epoch=EPOCH,
        )
        query = router.submit(pattern, "g", stream=True)
        got = []
        page = query.fetch(limit=32)  # a prefix lands before the kill
        got.extend(tuple(m) for m in page.matches)
        victim = query._slices[0].client
        victim_port = int(victim.endpoint.rsplit(":", 1)[1])
        print(
            f"kill -9 partition-0 primary on port {victim_port} "
            f"after {len(got)} matches",
            flush=True,
        )
        os.kill(by_port[victim_port].pid, signal.SIGKILL)
        for m in query.matches():
            got.append(tuple(m))
        ok = sorted(got) == ref_matches
        print(
            f"{'OK  ' if ok else 'FAIL'} shard-kill: {len(got)} matches "
            f"streamed across the failover (single-node {ref_count})",
            flush=True,
        )
        failures += 0 if ok else 1
        dead = [
            ep for ep, state in router.stats()["replicas"].items()
            if state == "dead"
        ]
        print(f"replicas marked dead: {dead}", flush=True)
        rows = router.events()
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

    # -- phase B: SIGKILL a pool worker mid-query ------------------------
    # A real kill -9 lands opportunistically; the deterministic
    # worker.task:crash schedule guarantees at least one worker death
    # even if the query outruns the killer thread.
    import multiprocessing as mp

    service = BenuService(
        config=BenuConfig(
            execution_backend="process",
            num_workers=2,
            relabel=False,
            task_retries=3,
            faults="seed=7,worker.task:crash@5",
        ),
        # Big enough that the handful of worker_crashed events is not
        # evicted from the ring by the per-task dispatch/finish flood.
        event_log_capacity=200_000,
    )
    try:
        service.register_graph("g", load_dataset(DATASET), relabel=False)
        stop = threading.Event()

        def killer():
            while not stop.is_set():
                children = mp.active_children()
                if children:
                    try:
                        os.kill(children[0].pid, signal.SIGKILL)
                        print(
                            f"kill -9 pool worker {children[0].pid}",
                            flush=True,
                        )
                    except (OSError, ProcessLookupError):
                        pass
                    return
                time.sleep(0.02)

        thread = threading.Thread(target=killer, daemon=True)
        thread.start()
        handle = service.submit(pattern, "g", stream=False)
        handle.wait(timeout=600)
        stop.set()
        thread.join(timeout=5)
        result = handle.result()
        ok = result.count == ref_count
        print(
            f"{'OK  ' if ok else 'FAIL'} worker-kill: count {result.count} "
            f"(single-node {ref_count}), {result.worker_crashes} worker "
            f"crash(es), {result.tasks_retried} task(s) retried",
            flush=True,
        )
        failures += 0 if ok else 1
        types = {e["type"] for e in service.events.as_dicts()}
        for required in ("worker_crashed", "task_retried"):
            if required not in types:
                print(f"FAIL missing event {required}", flush=True)
                failures += 1
        # The pool-recovery events join the stitched timeline.
        rows.extend(
            dict(e, shard="pool") for e in service.events.as_dicts()
        )
    finally:
        service.close()

    if args.event_log:
        _write_event_log(sorted(rows, key=lambda r: r["ts"]), args.event_log)
    if failures:
        print(f"{failures} chaos check(s) failed", file=sys.stderr)
        return 1
    print("chaos smoke passed: both kills recovered with exact results")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--event-log", default=None,
        help="write the stitched cluster event log here (JSON lines)",
    )
    parser.add_argument(
        "--deadline-budget", type=float, default=120.0,
        help="global wall budget per routed query (seconds)",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="run the fault-tolerance acceptance (kill -9 a shard "
             "mid-stream and a pool worker mid-query) instead",
    )
    args = parser.parse_args()
    if args.chaos:
        return chaos(args)

    print(f"single-node reference over {DATASET} ...", flush=True)
    reference = {}
    with BenuService() as service:
        service.register_graph("g", load_dataset(DATASET), relabel=False)
        for name in SUITE:
            handle = service.submit(name, "g", stream=False)
            handle.wait(timeout=600)
            reference[name] = handle.result().count

    shards = []
    try:
        for index in range(NUM_SHARDS):
            shards.append(_launch_shard(index))
        ports = [port for _, port in shards]
        print(f"shards up on ports {ports}", flush=True)

        router = ShardRouter(
            [TCPShardClient("127.0.0.1", port) for port in ports],
            expected_epoch=EPOCH,
        )
        failures = 0
        for name in SUITE:
            result = router.submit(
                name, "g", stream=False, deadline=args.deadline_budget
            ).result()
            per_shard = [entry["count"] for entry in result["per_shard"]]
            ok = result["count"] == reference[name]
            print(
                f"{'OK  ' if ok else 'FAIL'} {name}: router "
                f"{result['count']} = {' + '.join(map(str, per_shard))}"
                f" (single-node {reference[name]})",
                flush=True,
            )
            failures += 0 if ok else 1

        failures += concurrent_clients(ports, reference, args.deadline_budget)

        if args.event_log:
            rows = router.events()
            path = Path(args.event_log)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
            stamps = [row["ts"] for row in rows]
            assert stamps == sorted(stamps), "stitched log must be ordered"
            print(
                f"stitched event log: {len(rows)} events from "
                f"{len({row['shard'] for row in rows})} shards -> {path}",
                flush=True,
            )

        router.shutdown()
        router.close()
        if failures:
            print(f"{failures} pattern(s) diverged", file=sys.stderr)
            return 1
        print(f"all {len(SUITE)} routed patterns match single-node counts")
        return 0
    finally:
        for process, _ in shards:
            process.terminate()
        for process, _ in shards:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
