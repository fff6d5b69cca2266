"""Shared plumbing: paths, child processes, the HTTP client, statistics.

Everything here is benchmark-side.  The program under test is imported
from ``src/`` of the checkout the benchmark sits in and is started as
child processes with every ``REPRO_*`` variable removed, so only the
seed decides what a run measures.
"""

from __future__ import annotations

import hashlib
import http.client
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Per-request client timeout; a request slower than this counts as failed.
REQUEST_TIMEOUT_S = 60.0


class BenchError(Exception):
    """A run that cannot produce a valid result (no result line is printed)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")


def scrubbed_environment() -> dict[str, str]:
    """This process's environment without ``REPRO_*``, for children too.

    Removing the variables here as well keeps in-process database builds
    from honouring, say, ``REPRO_SHARDS=on`` left over from a CI leg.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def stop_process(proc: subprocess.Popen, grace_s: float = 20.0) -> None:
    """Interrupt a child, then kill it if it does not exit; always reap."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


class Server:
    """``python -m repro.web`` on a loopback port, in its own process.

    With ``spans_out`` the server starts through ``launch.py``, which
    installs the benchmark's timing wrappers first and writes the spans
    to that file when the server is interrupted.
    """

    def __init__(
        self, db: Path, env: dict, log: Path, spans_out: Path | None = None
    ) -> None:
        self.port = free_port()
        args = ["--db", str(db), "--port", str(self.port)]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.web", *args]
        else:
            cmd = [
                sys.executable, str(BENCH_DIR / "launch.py"), "server",
                "--spans-out", str(spans_out), "--", *args,
            ]
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=str(ROOT), stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early ({self.proc.returncode})")
            try:
                status, __ = request(self.port, "GET", "/health", timeout=2.0)
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.05)
        raise BenchError("server did not become ready")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        stop_process(self.proc)
        self._log.close()


def request(
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    request_id: str | None = None,
    timeout: float = REQUEST_TIMEOUT_S,
) -> tuple[int, bytes]:
    """One HTTP exchange on a fresh connection; returns status and body."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {}
        if request_id is not None:
            headers["X-Request-ID"] = request_id
        if body is not None:
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of ``values``."""
    if not values:
        raise BenchError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supports_percentile(samples: int, q: float, beyond: int = 10) -> bool:
    """True when at least ``beyond`` of ``samples`` lie above the ``q``-th
    percentile, the condition for reporting it."""
    return samples * (100.0 - q) / 100.0 >= beyond - 1e-9


def tail(values: list[float], q: float) -> float:
    """The ``q``-th percentile, refused when the sample cannot support it."""
    if not supports_percentile(len(values), q):
        raise BenchError(
            f"p{q:g} needs >= 10 samples beyond it; only {len(values)} taken"
        )
    return percentile(values, q)


class Digest:
    """An incremental SHA-256 over the pieces of a workload's inputs."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts: object) -> None:
        for part in parts:
            data = part if isinstance(part, bytes) else repr(part).encode()
            self._hash.update(len(data).to_bytes(8, "little"))
            self._hash.update(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


class Counter:
    """A thread-safe tally of attempted and failed operations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += not ok
