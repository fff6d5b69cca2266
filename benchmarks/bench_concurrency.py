"""Ablation: threaded read throughput of the pooled storage layer.

The storage layer hands every thread its own SQLite connection from a
pool and keeps on-disk databases in WAL mode, so concurrent readers never
serialize behind a shared connection (see ``docs/storage.md``).  This
bench runs the same mixed read workload — annotation views, map lookups
and count queries — from N threads against two configurations of the
*same* on-disk database:

* ``pooled``: the default pool (one connection per worker thread);
* ``shared``: ``pool_size=1``, which degrades every thread to one shared
  connection — the pre-pool seed behaviour.

Shape expectation: with WAL and per-thread connections the threaded
workload completes faster than on the single shared connection, and the
gap widens with thread count.
"""

import threading

import pytest

from repro.core.genmapper import GenMapper

N_THREADS = 4
READS_PER_THREAD = 6


@pytest.fixture(scope="module")
def bench_db_path(bench_universe_dir, tmp_path_factory):
    """The benchmark universe integrated once into an on-disk database."""
    path = tmp_path_factory.mktemp("bench_concurrency") / "gam.db"
    gm = GenMapper(path)
    try:
        gm.integrate_directory(bench_universe_dir)
    finally:
        gm.close()
    return path


@pytest.fixture(
    scope="module",
    params=["pooled", "shared connection (pool_size=1)"],
    ids=["pooled", "shared"],
)
def configured_genmapper(request, bench_db_path):
    pool_size = None if request.param == "pooled" else 1
    gm = GenMapper(bench_db_path, pool_size=pool_size)
    yield request.param, gm
    gm.close()


def _mixed_reads(genmapper, worker_id):
    for i in range(READS_PER_THREAD):
        which = (worker_id + i) % 3
        if which == 0:
            genmapper.generate_view(
                "LocusLink", ["Hugo", "GO"], combine="AND", engine="sql"
            )
        elif which == 1:
            genmapper.map("LocusLink", "GO")
        else:
            genmapper.db.counts()


def _threaded_workload(genmapper):
    threads = [
        threading.Thread(target=_mixed_reads, args=(genmapper, n))
        for n in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def test_bench_threaded_reads(benchmark, configured_genmapper):
    name, genmapper = configured_genmapper
    benchmark(_threaded_workload, genmapper)
    benchmark.extra_info["experiment"] = (
        f"Concurrent read throughput ({name}): "
        f"{N_THREADS} threads x {READS_PER_THREAD} mixed reads, on-disk WAL"
    )
    benchmark.extra_info["threads"] = N_THREADS
