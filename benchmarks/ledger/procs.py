"""The system under test as real processes, and what they cost.

``Deployment`` boots ``benu serve`` / ``benu route`` children on port 0,
learns each port from the child's stderr banner, reads CPU seconds and
peak RSS of the whole child tree from ``/proc``, and tears everything down
in ``close()`` - terminate, wait, then assert nothing is left behind.
``LineClient`` is one closed-loop client connection: a request is sent only
after the previous reply arrived.
"""

from __future__ import annotations

import json
import os
import re
import resource
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
_TICK = os.sysconf("SC_CLK_TCK")
_PAGE_KB = 1024

READY_TIMEOUT = 30.0
_BANNER = re.compile(r"(?:serving|listening) on [^\s:]+:(\d+)")


class DeploymentError(RuntimeError):
    """A child process did not come up, or did not go away."""


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces; everything after the closing paren is fixed.
    return text[text.rindex(")") + 2:].split()


def _descendants(roots: Sequence[int]) -> Set[int]:
    parent: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent[int(entry)] = int(fields[1])
    out = set(roots)
    grew = True
    while grew:
        grew = False
        for pid, ppid in parent.items():
            if ppid in out and pid not in out:
                out.add(pid)
                grew = True
    return out


def child_pids() -> Set[int]:
    """Descendants of this process, zombies included, but for
    multiprocessing's resource tracker: the first shared-memory segment
    (the process backend's CSR) starts that one helper, and the
    interpreter keeps it for as long as it lives."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker._pid
    return _descendants([os.getpid()]) - {os.getpid(), tracker}


def leave_nothing_behind() -> Set[int]:
    """Last thing a run does, on every way out of it: kill what still
    descends from this process, then end the resource tracker and wait for
    it.  Left alone the tracker ends only once this process is gone, so it
    would outlive the run with nobody to reap it.  Returns the pids that
    had to be killed (none after a clean run)."""
    from multiprocessing import resource_tracker

    left = child_pids()
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)  # its pipe closed, the tracker's main() returns
        tracker._fd = tracker._pid = None
    try:
        while True:
            os.wait()  # own children; an orphaned grandchild is init's
    except ChildProcessError:
        pass
    return left


def tree_cpu_seconds(roots: Sequence[int]) -> float:
    """user+sys seconds of ``roots`` and everything below them, including
    children they have already reaped."""
    ticks = 0
    for pid in _descendants(roots):
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += sum(int(fields[i]) for i in (11, 12, 13, 14))
    return ticks / _TICK


def tree_peak_rss_mb(roots: Sequence[int]) -> float:
    """Largest VmHWM over the tree, in MiB."""
    peak = 0
    for pid in _descendants(roots):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"VmHWM:\s+(\d+) kB", status)
        if match:
            peak = max(peak, int(match.group(1)))
    return peak / _PAGE_KB


def self_cpu_seconds() -> float:
    """This process and its reaped children (in-process workloads)."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def self_peak_rss_mb() -> float:
    own = tree_peak_rss_mb([os.getpid()])
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / _PAGE_KB
    return max(own, reaped)


def shm_segments() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class Deployment:
    """The child processes of one workload run."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.procs: List[subprocess.Popen] = []
        self._shm_before = shm_segments()
        OUT_DIR.mkdir(exist_ok=True)

    # ------------------------------------------------------------------
    def _spawn(self, args: Sequence[str]) -> int:
        log = OUT_DIR / f"{self.tag}.{len(self.procs)}.stderr"
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("BENU_FAULTS", None)
        with log.open("w") as sink:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=sink,
                cwd=str(REPO_ROOT),
            )
        self.procs.append(proc)
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            match = _BANNER.search(log.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        raise DeploymentError(
            f"`repro {' '.join(args)}` not ready after {READY_TIMEOUT}s "
            f"(exit {proc.poll()}): {log.read_text(errors='replace')[-400:]}"
        )

    def serve(self, *options: str) -> int:
        return self._spawn(["serve", "--port", "0", *options])

    def route(self, shard_ports: Sequence[int]) -> int:
        shards = [
            opt for port in shard_ports
            for opt in ("--shard", f"127.0.0.1:{port}")
        ]
        return self._spawn(["route", "--port", "0", *shards])

    # ------------------------------------------------------------------
    @property
    def pids(self) -> List[int]:
        return [p.pid for p in self.procs]

    def alive(self) -> bool:
        return all(p.poll() is None for p in self.procs)

    def cpu_seconds(self) -> float:
        return tree_cpu_seconds(self.pids)

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.pids)

    def close(self) -> None:
        """Stop every child, wait for it, and check nothing is left."""
        tree = _descendants(self.pids) if self.procs else set()
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        self.procs = []
        leftover = {
            pid for pid in tree
            if (fields := _stat_fields(pid)) is not None and fields[0] != "Z"
        }
        if leftover:
            raise DeploymentError(f"{self.tag}: processes left: {leftover}")
        leaked = shm_segments() - self._shm_before
        if leaked:
            raise DeploymentError(f"{self.tag}: /dev/shm left: {leaked}")


class LineClient:
    """One TCP connection speaking the JSON-lines protocol."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self.sock.makefile("rb", buffering=1 << 16)
        self.bytes_in = 0

    def ask(self, request: dict) -> dict:
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        self.bytes_in += len(line)
        return json.loads(line)

    def close(self) -> None:
        for closer in (self._rfile, self.sock):
            try:
                closer.close()
            except OSError:
                pass
