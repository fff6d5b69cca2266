"""Closed-loop HTTP load from one process (at most 2 threads).

Requests are built before timing starts; each connection sends its next
request as soon as the previous one completes.
"""

from __future__ import annotations

import dataclasses
import threading
import time

from common import BenchError, Counter, request


@dataclasses.dataclass(frozen=True)
class Req:
    """One pre-built request."""

    method: str
    path: str
    body: bytes | None
    kind: str


@dataclasses.dataclass
class Outcome:
    index: int
    kind: str
    latency: float
    status: int
    body: bytes | None


def _send(port: int, req: Req, rid: str) -> tuple[int, bytes]:
    try:
        return request(port, req.method, req.path, req.body, request_id=rid)
    except OSError:  # refused, reset or timed out
        return 0, b""


def closed_loop(
    port: int,
    reqs: list[Req],
    seconds: float,
    keep: set[int],
    counter: Counter,
    connections: int,
    tag: str = "b",
    on_body=None,
    at_least: int = 0,
    whole: int = 1,
) -> tuple[list[Outcome], float]:
    """Back-to-back requests on each connection for ``seconds``, and on
    until ``at_least`` requests have been sent; the last request sent
    ends a block of ``whole`` requests.

    ``on_body(outcome, body)`` runs after each request is timed.  Returns
    the outcomes and the elapsed time up to the last completion.
    """
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    cursor = [0]
    started = time.perf_counter()
    deadline = started + seconds
    last_done = [started]

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                if (
                    i >= at_least and i % whole == 0
                    and time.perf_counter() >= deadline
                ):
                    return
                cursor[0] += 1
            if i >= len(reqs):
                raise BenchError("closed-loop request stream exhausted")
            sent = time.perf_counter()
            status, body = _send(port, reqs[i], f"{tag}{i}")
            done = time.perf_counter()
            counter.record(status == 200)
            outcome = Outcome(
                index=i, kind=reqs[i].kind, latency=done - sent, status=status,
                body=body if i in keep else None,
            )
            if on_body is not None:
                on_body(outcome, body)
            with lock:
                last_done[0] = max(last_done[0], done)
                outcomes.append(outcome)

    _run_threads(worker, connections)
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes, last_done[0] - started


def _run_threads(worker, count: int) -> None:
    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            worker()
        except BaseException as exc:  # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, daemon=True) for __ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
