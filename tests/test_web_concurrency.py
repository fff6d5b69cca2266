"""Concurrent web smoke test — the regression net for the pooled storage
layer: a threaded server over an on-disk WAL database must serve
overlapping read requests correctly from many client threads."""

import contextlib
import json
import socket
import sys
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.genmapper import GenMapper
from repro.web.app import create_app
from repro.web.server import ThreadingWSGIServer, make_threading_server

N_CLIENT_THREADS = 6
REQUESTS_PER_THREAD = 4


@pytest.fixture(scope="module")
def disk_genmapper(tmp_path_factory, universe_dir):
    """The synthetic universe on disk (WAL), shared by the whole module."""
    path = tmp_path_factory.mktemp("webconc") / "gam.db"
    gm = GenMapper(path, pool_size=4)
    gm.integrate_directory(universe_dir)
    yield gm
    gm.close()


@pytest.fixture()
def server(disk_genmapper):
    with serving(create_app(disk_genmapper)) as (srv, base):
        assert isinstance(srv, ThreadingWSGIServer)
        yield base


@contextlib.contextmanager
def serving(app):
    """Serve ``app`` on a free port until the block ends."""
    srv = make_threading_server("127.0.0.1", 0, app, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv, f"http://127.0.0.1:{srv.server_address[1]}"
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(5)


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _post(base, path, body):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _upload(genmapper: GenMapper) -> dict:
    """A Figure 6 upload: 200 LocusLink genes, two targets, OR."""
    accessions = sorted(genmapper.repository.accessions_of("LocusLink"))[:200]
    return {
        "source": "LocusLink",
        "accessions": accessions,
        "targets": [{"name": "Hugo"}, {"name": "GO"}],
        "combine": "OR",
    }


def test_overlapping_query_and_map_requests(server):
    """N threads firing mixed /query + /map + /sources requests: every
    response is a 200 and repeated queries return identical row counts."""
    base = server
    __, reference_map = _get(base, "/map?source=LocusLink&target=GO")
    __, reference_query = _post(
        base, "/query", {"query": "ANNOTATE LocusLink WITH Hugo AND GO"}
    )
    assert reference_query["row_count"] > 0
    assert len(reference_map["associations"]) > 0

    def client(worker_id):
        outcomes = []
        for i in range(REQUESTS_PER_THREAD):
            if (worker_id + i) % 3 == 0:
                status, payload = _get(base, "/map?source=LocusLink&target=GO")
                outcomes.append(
                    (status, ("map", len(payload["associations"])))
                )
            elif (worker_id + i) % 3 == 1:
                status, payload = _post(
                    base,
                    "/query",
                    {"query": "ANNOTATE LocusLink WITH Hugo AND GO"},
                )
                outcomes.append((status, ("query", payload["row_count"])))
            else:
                status, payload = _get(base, "/sources")
                outcomes.append(
                    (status, ("sources", len(payload["sources"])))
                )
        return outcomes

    with ThreadPoolExecutor(max_workers=N_CLIENT_THREADS) as executor:
        all_outcomes = [
            outcome
            for future in [
                executor.submit(client, n) for n in range(N_CLIENT_THREADS)
            ]
            for outcome in future.result()
        ]

    assert len(all_outcomes) == N_CLIENT_THREADS * REQUESTS_PER_THREAD
    assert {status for status, _ in all_outcomes} == {200}
    # Consistent results across all threads: every map saw the same
    # association count, every query the same row count.
    map_counts = {v for s, (kind, v) in all_outcomes if kind == "map"}
    query_counts = {v for s, (kind, v) in all_outcomes if kind == "query"}
    assert map_counts == {len(reference_map["associations"])}
    assert query_counts == {reference_query["row_count"]}


def test_cold_cache_stampede_loads_once(tmp_path, universe_dir):
    """Concurrent identical /map requests against a cold cache must run
    the underlying database load exactly once (single-flight) and return
    identical payloads.  Builds its own cache-enabled server so the test
    also holds under the CI ``REPRO_CACHE=off`` guard run."""
    gm = GenMapper(tmp_path / "gam.db", pool_size=4, enable_cache=True)
    gm.integrate_directory(universe_dir)
    calls = []
    original = gm._map_uncached

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    gm._map_uncached = counting
    app = create_app(gm)
    try:
        with serving(app) as (__, base):
            with ThreadPoolExecutor(max_workers=N_CLIENT_THREADS) as executor:
                results = list(
                    executor.map(
                        lambda _: _get(base, "/map?source=NetAffx&target=GO"),
                        range(N_CLIENT_THREADS),
                    )
                )
        stats = gm.cache_stats()
    finally:
        gm.close()
    assert {status for status, __ in results} == {200}
    counts = {len(payload["associations"]) for __, payload in results}
    assert len(counts) == 1
    assert len(calls) == 1
    assert stats["hits"] >= N_CLIENT_THREADS - 1


def test_health_under_concurrent_load(server):
    base = server

    def probe(_):
        status, payload = _get(base, "/health")
        return status, payload["status"]

    with ThreadPoolExecutor(max_workers=4) as executor:
        results = list(executor.map(probe, range(12)))
    assert results == [(200, "ok")] * 12


def test_uploads_under_stress(disk_genmapper):
    """16 clients x 25 uploads over a 4-connection pool, with a tiny
    switch interval: every upload is answered in full, and the pool never
    opens more connections than its bound."""
    clients, uploads, timeout_s = 16, 25, 120.0
    upload = _upload(disk_genmapper)
    failures: list[str] = []
    with serving(create_app(disk_genmapper)) as (__, base):
        status, reference = _post(base, "/query", upload)
        assert status == 200 and reference["row_count"] > 0

        def client(k: int) -> None:
            try:
                for i in range(uploads):
                    status, payload = _post(base, "/query", upload)
                    if status != 200 or payload["rows"] != reference["rows"]:
                        failures.append(f"client {k} upload {i}: {status}")
            except Exception as exc:
                failures.append(f"client {k}: {exc!r}")

        threads = [
            threading.Thread(target=client, args=(k,), daemon=True)
            for k in range(clients)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=timeout_s)
        finally:
            sys.setswitchinterval(interval)
        assert not [thread for thread in threads if thread.is_alive()]
        assert failures == []
        assert disk_genmapper.db.pool.size <= 4


def test_stalled_client_delays_no_upload(disk_genmapper):
    """A client that connects and sends nothing holds one request thread;
    uploads are served beside it, and the server shuts down and closes
    without waiting for it."""
    upload = _upload(disk_genmapper)
    with serving(create_app(disk_genmapper)) as (srv, base):
        with socket.create_connection(srv.server_address, timeout=10):
            for __ in range(3):
                started = time.monotonic()
                assert _post(base, "/query", upload)[0] == 200
                assert time.monotonic() - started < 5
            closer = threading.Thread(
                target=lambda: (srv.shutdown(), srv.server_close()), daemon=True
            )
            closer.start()
            closer.join(5)
            assert not closer.is_alive()
