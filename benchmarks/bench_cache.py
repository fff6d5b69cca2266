"""Experiment: the query acceleration layer (docs/performance.md).

Two claims are measured and enforced here:

1. **Warm cache wins big** — a warm ``Map``/``Compose`` call served
   from the generation-aware mapping cache must be at least 5x faster
   than the cold database load (in practice it is orders of magnitude:
   a dict probe versus a multi-join load).  Views are not cached; a
   warm ``GenerateView`` joins over cached mappings
   (``test_bench_view_warm`` times it).
2. **SQL pushdown beats the Python fold** — composing a multi-hop path
   as one grouped aggregation inside SQLite must not lose to loading
   every leg and joining in Python dicts (the oracle in
   ``tests/oracle.py``).

The bench bodies run through pytest-benchmark so CI snapshots land in the
combined ``BENCH_*.json`` artifact next to ``bench_compose.py``'s numbers.
"""

from __future__ import annotations

import time

import pytest

from repro.core.genmapper import GenMapper
from repro.operators.compose import compose
from tests import oracle

#: The multi-hop composition path of the pushdown experiment.
PUSHDOWN_PATH = ["NetAffx", "Unigene", "LocusLink", "GO"]

#: Minimum warm/cold speedup the cache must deliver (conservative: the
#: observed ratio is in the hundreds).
MIN_WARM_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def nocache_genmapper(bench_universe_dir):
    """The benchmark universe with the mapping cache switched off —
    every call pays the full load, like the pre-cache seed."""
    gm = GenMapper(enable_cache=False)
    gm.integrate_directory(bench_universe_dir)
    yield gm
    gm.close()


@pytest.fixture(scope="module")
def cached_genmapper(bench_universe_dir):
    """The benchmark universe with the cache force-enabled, so the warm
    benches hold even when the suite runs under ``REPRO_CACHE=off``."""
    gm = GenMapper(enable_cache=True)
    gm.integrate_directory(bench_universe_dir)
    yield gm
    gm.close()


def _best_of(fn, repetitions: int = 7) -> float:
    best = float("inf")
    for __ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- claim 1: warm cache speedup ------------------------------------------


def test_warm_map_speedup(cached_genmapper, nocache_genmapper):
    cold = _best_of(lambda: nocache_genmapper.map("NetAffx", "GO"))
    cached_genmapper.map("NetAffx", "GO")  # prime
    warm = _best_of(lambda: cached_genmapper.map("NetAffx", "GO"), 20)
    assert cold / warm >= MIN_WARM_SPEEDUP


def test_warm_compose_speedup(cached_genmapper, nocache_genmapper):
    cold = _best_of(lambda: nocache_genmapper.compose(PUSHDOWN_PATH))
    cached_genmapper.compose(PUSHDOWN_PATH)  # prime
    warm = _best_of(lambda: cached_genmapper.compose(PUSHDOWN_PATH), 20)
    assert cold / warm >= MIN_WARM_SPEEDUP


def test_bench_map_cold(benchmark, nocache_genmapper):
    mapping = benchmark(nocache_genmapper.map, "NetAffx", "GO")
    benchmark.extra_info["experiment"] = "Cache: Map cold (cache off)"
    benchmark.extra_info["associations"] = len(mapping)


def test_bench_map_warm(benchmark, cached_genmapper):
    cached_genmapper.map("NetAffx", "GO")
    mapping = benchmark(cached_genmapper.map, "NetAffx", "GO")
    benchmark.extra_info["experiment"] = "Cache: Map warm (generation hit)"
    benchmark.extra_info["associations"] = len(mapping)
    stats = cached_genmapper.cache_stats()
    benchmark.extra_info["cache_hit_ratio"] = stats["hit_ratio"]


def test_bench_view_warm(benchmark, cached_genmapper):
    targets = ["LocusLink", "GO"]
    cached_genmapper.generate_view("NetAffx", targets, combine="OR")
    view = benchmark(
        cached_genmapper.generate_view, "NetAffx", targets, combine="OR"
    )
    benchmark.extra_info["experiment"] = "Cache: GenerateView over warm mappings"
    benchmark.extra_info["rows"] = len(view)


# -- claim 2: SQL pushdown vs Python fold ----------------------------------


def test_sql_pushdown_beats_python_fold(cached_genmapper):
    repository = cached_genmapper.repository
    sql = _best_of(lambda: compose(repository, PUSHDOWN_PATH))
    memory = _best_of(lambda: oracle.compose(repository, PUSHDOWN_PATH))
    assert sql < memory


def test_pushdown_and_fold_agree(cached_genmapper):
    repository = cached_genmapper.repository
    sql = compose(repository, PUSHDOWN_PATH)
    memory = oracle.compose(repository, PUSHDOWN_PATH)
    assert sql.pair_set() == memory.pair_set()


#: The program's SQL Compose and the Python oracle's fold.
COMPOSERS = {"sql": compose, "memory": oracle.compose}


@pytest.mark.parametrize("engine", ["sql", "memory"])
def test_bench_compose_engine(benchmark, cached_genmapper, engine):
    repository = cached_genmapper.repository
    mapping = benchmark(COMPOSERS[engine], repository, PUSHDOWN_PATH)
    benchmark.extra_info["experiment"] = f"Compose pushdown: engine={engine}"
    benchmark.extra_info["path"] = " -> ".join(PUSHDOWN_PATH)
    benchmark.extra_info["associations"] = len(mapping)


# -- invalidation overhead -------------------------------------------------


def test_bench_generation_probe(benchmark, cached_genmapper):
    """The per-lookup cost of the generation check (PRAGMA data_version)
    — the price every cached call pays for write safety."""
    benchmark(cached_genmapper.db.data_generation)
    benchmark.extra_info["experiment"] = "Cache: generation probe overhead"


# -- scoped invalidation under a mixed read/write workload ------------------

#: Minimum warm hit-rate the untouched pairs must keep while another
#: source is being re-imported (pre-vector, every write nuked the whole
#: cache and this would be ~0).
MIN_MIXED_HIT_RATE = 0.9


def test_mixed_workload_untouched_hit_rate(cached_genmapper):
    """Re-importing one source must not cool warm entries of untouched
    source pairs: reads of other mappings keep hitting while writes land.

    This is the generation-vector payoff (docs/performance.md): before
    scoped invalidation every committed write bumped the one global
    generation and the first read of *any* key afterwards reloaded.
    """
    gm = cached_genmapper
    # Pairs disjoint from the re-imported mapping's endpoint sources
    # (NetAffx and Unigene) — these must stay warm throughout.
    untouched_pairs = [
        ("LocusLink", "GO"),
        ("LocusLink", "Hugo"),
        ("LocusLink", "Location"),
    ]
    for pair in untouched_pairs:
        gm.map(*pair)  # prime
    rel = gm.repository.ensure_source_rel("NetAffx", "Unigene", "FACT")
    probes = [assoc for assoc in gm.map("NetAffx", "Unigene")][:20]

    before = gm.cache_stats()
    # Interleave: each write batch simulates one chunk of a NetAffx
    # re-import; between chunks, readers keep querying untouched pairs.
    for round_number in range(10):
        gm.repository.add_associations(
            rel,
            [
                (
                    assoc.source_accession,
                    assoc.target_accession,
                    min(1.0, assoc.evidence + round_number * 1e-6),
                )
                for assoc in probes
            ],
        )
        for pair in untouched_pairs:
            gm.map(*pair)
    after = gm.cache_stats()

    reads = 10 * len(untouched_pairs)
    hits = after["hits"] - before["hits"]
    hit_rate = hits / reads
    assert hit_rate >= MIN_MIXED_HIT_RATE, (
        f"untouched-pair hit rate {hit_rate:.2f} under mixed workload"
        f" (expected >= {MIN_MIXED_HIT_RATE}); scoped invalidation broken"
    )
    # And the touched pair itself must NOT be served stale.
    refreshed = gm.map("NetAffx", "Unigene")
    assert len(refreshed) >= len(probes)
