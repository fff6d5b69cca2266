"""Tests for the query acceleration layer (repro.cache).

Covers the mechanical LRU (bounds, generation staleness, single-flight),
the MappingCache policy (keys, metrics, stats), GenMapper's read-through
integration with write invalidation on every write path, invalidation
across separate connection pools on one on-disk database, and the
environment switches (``REPRO_CACHE`` / ``REPRO_CACHE_SIZE``).
"""

from __future__ import annotations

import threading

import pytest

from repro.cache import (
    GenerationalLru,
    MappingCache,
    cache_enabled_by_env,
    cache_size_from_env,
    estimate_size,
    spec_digest,
)
from repro.cache.deps import record_dependency
from repro.core.genmapper import GenMapper
from repro.gam.database import GamDatabase
from repro.obs import MetricsRegistry
from tests import oracle
from tests.conftest import GO_MINI_OBO, LOCUS_353_RECORD, UNIGENE_MINI


class TestGenerationalLru:
    def test_miss_then_hit(self):
        lru = GenerationalLru(max_entries=4)
        value, hit = lru.get_or_load(("k",), 1, lambda: "loaded")
        assert (value, hit) == ("loaded", False)
        value, hit = lru.get_or_load(("k",), 1, lambda: "never")
        assert (value, hit) == ("loaded", True)
        stats = lru.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_stale_generation_reloads(self):
        lru = GenerationalLru(max_entries=4)
        lru.get_or_load(("k",), 1, lambda: "old")
        value, hit = lru.get_or_load(("k",), 2, lambda: "new")
        assert (value, hit) == ("new", False)
        assert lru.stats().invalidations == 1
        # The reloaded entry serves the new generation.
        assert lru.get_or_load(("k",), 2, lambda: "never")[1] is True

    def test_entry_bound_evicts_lru_order(self):
        lru = GenerationalLru(max_entries=2, max_bytes=None)
        lru.put(("a",), 1, generation=1)
        lru.put(("b",), 2, generation=1)
        lru.get(("a",), 1)  # refresh a's recency; b is now the LRU entry
        lru.put(("c",), 3, generation=1)
        assert lru.get(("b",), 1) is None
        assert lru.get(("a",), 1) == 1
        assert lru.get(("c",), 1) == 3
        assert lru.stats().evictions == 1

    def test_byte_bound_evicts(self):
        lru = GenerationalLru(
            max_entries=100, max_bytes=100, size_of=lambda v: 60
        )
        lru.put(("a",), "x", generation=1)
        lru.put(("b",), "y", generation=1)  # 120 bytes > 100: evicts a
        assert len(lru) == 1
        assert lru.get(("b",), 1) == "y"

    def test_byte_bound_keeps_at_least_one_entry(self):
        lru = GenerationalLru(max_entries=10, max_bytes=10, size_of=lambda v: 99)
        lru.put(("huge",), "x", generation=1)
        assert lru.get(("huge",), 1) == "x"

    def test_invalidate_and_clear(self):
        lru = GenerationalLru(max_entries=4)
        lru.put(("a",), 1, generation=1)
        lru.put(("b",), 2, generation=1)
        assert lru.invalidate(("a",)) is True
        assert lru.invalidate(("a",)) is False
        assert lru.clear() == 1
        assert len(lru) == 0
        assert lru.stats().bytes == 0

    def test_peek_has_no_counter_effects(self):
        lru = GenerationalLru(max_entries=4)
        assert lru.peek(("k",), 1) is False
        lru.put(("k",), "v", generation=1)
        assert lru.peek(("k",), 1) is True
        assert lru.peek(("k",), 2) is False
        stats = lru.stats()
        assert (stats.hits, stats.misses, stats.invalidations) == (0, 0, 0)

    def test_loader_exception_propagates_and_unblocks_key(self):
        lru = GenerationalLru(max_entries=4)

        def boom():
            raise RuntimeError("loader failed")

        with pytest.raises(RuntimeError):
            lru.get_or_load(("k",), 1, boom)
        # The flight was cleaned up: the key loads normally afterwards.
        assert lru.get_or_load(("k",), 1, lambda: "ok")[0] == "ok"

    def test_rejects_nonpositive_entry_bound(self):
        with pytest.raises(ValueError):
            GenerationalLru(max_entries=0)

    def test_single_flight_stampede_runs_loader_once(self):
        lru = GenerationalLru(max_entries=4)
        n_threads = 8
        started = threading.Barrier(n_threads)
        release = threading.Event()
        calls = []

        def slow_loader():
            calls.append(1)
            release.wait(5)
            return "value"

        results = []

        def worker():
            started.wait(5)
            results.append(lru.get_or_load(("k",), 1, slow_loader))

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        # Give followers time to pile up on the flight, then release.
        while not calls:
            pass
        release.set()
        for thread in threads:
            thread.join(10)
        assert len(calls) == 1
        assert [value for value, _ in results] == ["value"] * n_threads
        # Exactly one miss (the leader); followers re-read the stored entry.
        assert lru.stats().misses == 1
        assert lru.stats().hits == n_threads - 1


class TestKeysAndEstimates:
    def test_key_builders(self):
        assert MappingCache.mapping_key("A", "B", "auto#product") == (
            "mapping", "A", "B", "auto#product"
        )
        assert MappingCache.composed_key(["A", "B", "C"], "min") == (
            "composed", "A", "C", "A->B->C#min"
        )
        assert MappingCache.taxonomy_key("GO") == ("taxonomy", "GO", "GO", "")

    def test_spec_digest_is_stable_and_distinguishing(self):
        assert spec_digest("a", (1, 2)) == spec_digest("a", (1, 2))
        assert spec_digest("a", (1, 2)) != spec_digest("a", (2, 1))
        assert len(spec_digest("x")) == 16

    def test_estimate_size_scales_with_payload(self, paper_genmapper):
        small = paper_genmapper.map("LocusLink", "Hugo")
        taxonomy = paper_genmapper.taxonomy("GO")
        assert estimate_size(small) > 96
        assert estimate_size(taxonomy) > 96
        assert estimate_size(object()) == 256


@pytest.fixture()
def cached_genmapper():
    """The paper's running example with the cache force-enabled, so these
    tests still exercise caching when the suite runs under
    ``REPRO_CACHE=off`` (the CI guard)."""
    with GenMapper(enable_cache=True) as gm:
        gm.integrate_text(LOCUS_353_RECORD, "LocusLink")
        gm.integrate_text(GO_MINI_OBO, "GO")
        gm.integrate_text(UNIGENE_MINI, "Unigene")
        yield gm


class TestGenMapperCaching:
    def test_map_is_cached_by_identity(self, cached_genmapper):
        first = cached_genmapper.map("LocusLink", "GO")
        second = cached_genmapper.map("LocusLink", "GO")
        assert first is second
        assert cached_genmapper.cache_stats()["hits"] >= 1

    def test_reimport_invalidates(self, cached_genmapper):
        before = cached_genmapper.map("LocusLink", "GO")
        cached_genmapper.integrate_text(LOCUS_353_RECORD, "LocusLink")
        after = cached_genmapper.map("LocusLink", "GO")
        assert after is not before
        assert after.pair_set() == before.pair_set()

    def test_association_write_invalidates(self, cached_genmapper):
        repo = cached_genmapper.repository
        before = cached_genmapper.map("LocusLink", "GO")
        assert ("353", "GO:0008150") not in before.pair_set()
        rel = repo.ensure_source_rel("LocusLink", "GO", "FACT")
        repo.add_associations(rel, [("353", "GO:0008150", 0.9)])
        after = cached_genmapper.map("LocusLink", "GO")
        assert ("353", "GO:0008150") in after.pair_set()

    def test_derive_subsumed_invalidates_taxonomy_consumers(
        self, cached_genmapper
    ):
        cached = cached_genmapper.subsumed("GO")
        cached_genmapper.derive_subsumed("GO")
        fresh = cached_genmapper.subsumed("GO")
        assert fresh is not cached
        assert fresh.pair_set() == cached.pair_set()

    def test_materializing_compose_invalidates(self, cached_genmapper):
        path = ["Unigene", "LocusLink", "GO"]
        cached = cached_genmapper.compose(path)
        assert cached_genmapper.compose(path) is cached
        cached_genmapper.compose(path, materialize=True)
        assert cached_genmapper.compose(path) is not cached

    def test_adhoc_combiner_is_never_cached(self, cached_genmapper):
        """An ad-hoc combiner is refused before any lookup or load."""

        def sum_cap(left, right):
            return min(1.0, left + right)

        before = cached_genmapper.cache_stats()
        for call in (
            lambda: cached_genmapper.compose(
                ["Unigene", "LocusLink", "GO"], combiner=sum_cap
            ),
            lambda: cached_genmapper.map("Unigene", "GO", combiner=sum_cap),
        ):
            with pytest.raises(ValueError, match="unsupported evidence combiner"):
                call()
        after = cached_genmapper.cache_stats()
        for counter in ("entries", "hits", "misses"):
            assert after[counter] == before[counter]

    def test_view_key_accepts_one_shot_iterator(self, cached_genmapper):
        """An upload given as a one-shot iterator yields the rows of the
        same upload given as a list."""
        view = cached_genmapper.generate_view(
            "LocusLink", ["GO"], source_objects=iter(["353"]), combine="OR"
        )
        listed = cached_genmapper.generate_view(
            "LocusLink", ["GO"], source_objects=["353"], combine="OR"
        )
        assert view.rows and view.rows == listed.rows

    def test_taxonomy_cached(self, cached_genmapper):
        assert cached_genmapper.taxonomy("GO") is cached_genmapper.taxonomy("GO")

    def test_clear_cache(self, cached_genmapper):
        cached_genmapper.map("LocusLink", "GO")
        assert cached_genmapper.clear_cache() >= 1
        assert cached_genmapper.cache_stats()["entries"] == 0

    def test_cache_stats_shape(self, cached_genmapper):
        stats = cached_genmapper.cache_stats()
        for field in (
            "hits", "misses", "evictions", "invalidations", "entries",
            "bytes", "hit_ratio", "max_entries", "max_bytes", "generation",
        ):
            assert field in stats

    def test_metrics_registry_mirrors_counters(self, cached_genmapper):
        registry = MetricsRegistry()
        cache = MappingCache(cached_genmapper.db, registry=registry)
        key = MappingCache.mapping_key("A", "B")
        cache.get_or_load(key, lambda: "v")
        cache.get_or_load(key, lambda: "v")
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["cache.miss"] == 1
        assert counters["cache.hit"] == 1
        assert snapshot["gauges"]["cache.entries"] == 1


class TestDependencyRecords:
    def test_records_leave_with_evicted_views(self):
        """A long-running server loads more keys than the cache holds; it
        must not keep a dependency record per key it ever loaded."""
        with GamDatabase() as db:
            cache = MappingCache(db, max_entries=16, registry=MetricsRegistry())
            keys = [
                MappingCache.mapping_key("LocusLink", f"target-{i}")
                for i in range(200)
            ]

            def loader():
                record_dependency("LocusLink", "GO")
                return object()

            for key in keys:
                cache.get_or_load(key, loader)
            recorded = [key for key in keys if cache.dependencies(key)]
            assert len(cache) == 16
            assert recorded == keys[-16:]
            assert cache.dependencies(keys[-1]) == ("GO", "LocusLink")


class TestEnvironmentSwitches:
    def test_cache_enabled_by_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_enabled_by_env(True) is True
        for value in ("off", "0", "false", "no", "OFF"):
            monkeypatch.setenv("REPRO_CACHE", value)
            assert cache_enabled_by_env(True) is False
        monkeypatch.setenv("REPRO_CACHE", "on")
        assert cache_enabled_by_env(False) is True

    def test_cache_size_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_SIZE", raising=False)
        assert cache_size_from_env() == 256
        monkeypatch.setenv("REPRO_CACHE_SIZE", "12")
        assert cache_size_from_env() == 12
        monkeypatch.setenv("REPRO_CACHE_SIZE", "garbage")
        assert cache_size_from_env() == 256

    def test_repro_cache_off_disables_but_queries_work(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        with GenMapper() as gm:
            assert gm.cache is None
            assert gm.cache_stats() is None
            gm.integrate_text(LOCUS_353_RECORD, "LocusLink")
            gm.integrate_text(GO_MINI_OBO, "GO")
            mapping = gm.map("LocusLink", "GO")
            assert ("353", "GO:0009116") in mapping.pair_set()
            assert gm.map("LocusLink", "GO") is not mapping

    def test_cache_size_zero_disables(self):
        with GenMapper(cache_size=0) as gm:
            assert gm.cache is None

    def test_explicit_enable_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        with GenMapper(enable_cache=True) as gm:
            assert gm.cache is not None


class TestCrossConnectionInvalidation:
    def test_second_pool_write_is_seen(self, tmp_path):
        """A writer on a *different* connection pool (same database file)
        must invalidate the reader's cache via ``PRAGMA data_version``."""
        path = tmp_path / "gam.db"
        with (
            GenMapper(path, enable_cache=True) as writer,
            GenMapper(path, enable_cache=True) as reader,
        ):
            writer.integrate_text(LOCUS_353_RECORD, "LocusLink")
            writer.integrate_text(GO_MINI_OBO, "GO")
            before = reader.map("LocusLink", "GO")
            assert reader.map("LocusLink", "GO") is before  # warm
            rel = writer.repository.ensure_source_rel("LocusLink", "GO", "FACT")
            writer.repository.add_associations(
                rel, [("353", "GO:0008150", 0.9)]
            )
            after = reader.map("LocusLink", "GO")
            assert after is not before
            assert ("353", "GO:0008150") in after.pair_set()

    def test_same_pool_sibling_connection_write_is_seen(self, tmp_path):
        """Writes through one pool connection invalidate entries loaded
        through another thread's connection of the same pool."""
        path = tmp_path / "gam.db"
        with GenMapper(path, pool_size=4, enable_cache=True) as gm:
            gm.integrate_text(LOCUS_353_RECORD, "LocusLink")
            gm.integrate_text(GO_MINI_OBO, "GO")
            before = gm.map("LocusLink", "GO")

            def write():
                rel = gm.repository.ensure_source_rel(
                    "LocusLink", "GO", "FACT"
                )
                gm.repository.add_associations(
                    rel, [("353", "GO:0008150", 0.9)]
                )

            thread = threading.Thread(target=write)
            thread.start()
            thread.join(10)
            after = gm.map("LocusLink", "GO")
            assert after is not before
            assert ("353", "GO:0008150") in after.pair_set()

    def test_sibling_write_invalidates_only_touched_sources(self, tmp_path):
        """Scoped invalidation across pool siblings: a write through one
        connection invalidates only the touched sources' entries in the
        shared cache — warm entries for disjoint source pairs survive
        because the generation vector is shared by the whole pool."""
        path = tmp_path / "gam.db"
        with GenMapper(path, pool_size=4, enable_cache=True) as gm:
            repo = gm.repository
            for name in ("W", "X", "Y", "Z"):
                repo.add_source(name, "Other")
                repo.add_objects(
                    name, [(f"{name.lower()}{i}", None, None) for i in range(3)]
                )
            wx = repo.ensure_source_rel("W", "X", "FACT")
            yz = repo.ensure_source_rel("Y", "Z", "FACT")
            repo.add_associations(wx, [("w0", "x0", 1.0)])
            repo.add_associations(yz, [("y0", "z0", 1.0)])
            touched_before = gm.map("W", "X")
            untouched_before = gm.map("Y", "Z")

            def write():
                repo.add_associations(wx, [("w1", "x1", 0.9)])

            thread = threading.Thread(target=write)
            thread.start()
            thread.join(10)
            # Touched pair reloads; the disjoint pair's entry is served
            # warm (identity-preserved) despite the sibling's commit
            # having moved PRAGMA data_version.
            assert gm.map("W", "X") is not touched_before
            assert gm.map("Y", "Z") is untouched_before
            assert gm.cache_stats()["scoped_invalidations"] >= 1


class TestComposeEngines:
    @pytest.fixture()
    def gm(self, paper_genmapper):
        return paper_genmapper

    def test_sql_and_memory_agree_product(self, gm):
        from repro.operators.compose import compose

        path = ["Unigene", "LocusLink", "GO"]
        sql = compose(gm.repository, path)
        memory = oracle.compose(gm.repository, path)
        assert sql == memory  # pairs and evidence

    def test_sql_and_memory_agree_min(self, gm):
        from repro.operators.compose import compose, min_evidence

        path = ["Unigene", "LocusLink", "GO"]
        sql = compose(gm.repository, path, min_evidence)
        memory = oracle.compose(gm.repository, path, min_evidence)
        assert sql == memory

    def test_sql_engine_rejects_adhoc_combiner(self, gm):
        from repro.operators.compose import compose

        with pytest.raises(ValueError, match="unsupported evidence combiner"):
            compose(
                gm.repository, ["Unigene", "LocusLink", "GO"], lambda a, b: a * b
            )

    def test_two_source_path_returns_stored_mapping(self, gm):
        from repro.operators.compose import compose
        from repro.operators.simple import map_

        direct = map_(gm.repository, "LocusLink", "GO")
        composed = compose(gm.repository, ["LocusLink", "GO"])
        assert composed.pair_set() == direct.pair_set()
        # Satellite fix: the stored leg's evidence survives untouched (the
        # old fold built it and then discarded the stored rel_type).
        assert composed.rel_type == direct.rel_type
