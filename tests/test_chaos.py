"""Chaos suite: the system under injected storage faults.

Two end-to-end properties proven here:

1. **Fault equivalence** — concurrent imports and queries under a 5%
   injected SQLITE_BUSY rate produce a GAM snapshot byte-identical to a
   fault-free run, with zero caller-visible storage errors (the retry
   layer absorbs every injected fault).
2. **Crash resume** — an import killed deterministically mid-run resumes
   with ``resume=True`` and converges to the same snapshot as an
   uninterrupted import, without redoing checkpointed sources.

Faults are injected at the statement boundary *before* execution, so a
retried statement can never double-apply; that is what makes blind
retries sound and these equivalence checks meaningful.
"""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.core.genmapper import GenMapper
from repro.gam.dump import canonical_snapshot
from repro.gam.errors import GenMapperError
from repro.obs import MetricsRegistry
from repro.reliability import FaultInjector, FaultRule, ImportJournal, RetryPolicy


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """These tests inject their own faults with fixed seeds; ambient
    ``REPRO_FAULTS`` (the CI chaos job) must not perturb them."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)


def fast_retry(registry=None, **overrides):
    """Generous attempts, sub-millisecond real backoff: chaos-fast."""
    defaults = dict(
        max_attempts=10,
        base_delay=0.0002,
        max_delay=0.001,
        max_elapsed=None,
        registry=registry or MetricsRegistry(),
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def snapshot_of_clean_import(universe_dir) -> str:
    with GenMapper() as gm:
        gm.integrate_directory(universe_dir)
        return canonical_snapshot(gm.repository)


@pytest.fixture(scope="module")
def clean_snapshot(universe_dir):
    """The fault-free reference snapshot of the synthetic universe."""
    return snapshot_of_clean_import(universe_dir)


class TestChaosEquivalence:
    def test_import_under_busy_faults_matches_fault_free_run(
        self, universe_dir, clean_snapshot
    ):
        registry = MetricsRegistry()
        with GenMapper() as gm:
            gm.db.retry_policy = fast_retry(registry)
            gm.db.fault_injector = FaultInjector(
                [FaultRule("busy", probability=0.05, times=None)],
                seed=1234,
                registry=registry,
            )
            gm.integrate_directory(universe_dir)
            injected = gm.db.fault_injector.fired
            gm.db.fault_injector = None
            assert canonical_snapshot(gm.repository) == clean_snapshot
        assert injected > 0, "chaos run injected no faults at all"
        counters = registry.snapshot()["counters"]
        assert counters["reliability.retry.attempts"] >= injected
        assert "reliability.retry.giveups" not in counters

    def test_concurrent_imports_and_queries_under_faults(
        self, universe_dir, clean_snapshot
    ):
        registry = MetricsRegistry()
        with GenMapper() as gm:
            gm.db.retry_policy = fast_retry(registry)
            gm.db.fault_injector = FaultInjector(
                [FaultRule("busy", probability=0.05, times=None)],
                seed=99,
                registry=registry,
            )
            storage_errors: list[BaseException] = []
            #: Anything else would end a querier thread silently.
            unexpected: list[BaseException] = []
            import_done = threading.Event()

            def importer():
                try:
                    gm.integrate_directory(universe_dir, workers=3)
                finally:
                    import_done.set()

            def querier():
                while not import_done.is_set():
                    try:
                        gm.map("LocusLink", "GO")
                        gm.repository.list_sources()
                    except GenMapperError:
                        # Domain errors mid-import (source not there yet,
                        # no mapping yet, open breaker) are expected.
                        pass
                    except sqlite3.Error as exc:  # pragma: no cover
                        storage_errors.append(exc)
                        return
                    except Exception as exc:  # pragma: no cover
                        unexpected.append(exc)
                        return

            threads = [threading.Thread(target=importer)]
            threads += [threading.Thread(target=querier) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert import_done.is_set()
            assert not storage_errors, f"storage errors leaked: {storage_errors}"
            assert not unexpected, f"querier threads died: {unexpected!r}"
            injected = gm.db.fault_injector.fired
            gm.db.fault_injector = None
            assert canonical_snapshot(gm.repository) == clean_snapshot
        assert injected > 0
        assert registry.snapshot()["counters"]["reliability.retry.attempts"] > 0

    def test_latency_faults_slow_but_do_not_corrupt(
        self, universe_dir, clean_snapshot
    ):
        with GenMapper() as gm:
            gm.db.fault_injector = FaultInjector(
                [FaultRule("latency", probability=0.02, seconds=0.0005)],
                seed=5,
                registry=MetricsRegistry(),
            )
            gm.integrate_directory(universe_dir)
            gm.db.fault_injector = None
            assert canonical_snapshot(gm.repository) == clean_snapshot


class TestChaosWideEvents:
    def test_wide_events_stay_well_formed_under_busy_faults(
        self, universe_dir, tmp_path
    ):
        """Every wide event written during a chaotic import is a complete
        JSONL record, and the injected faults show up as retry counts
        inside the events rather than corrupting them."""
        from repro.obs import WideEventLog, set_event_log

        registry = MetricsRegistry()
        path = tmp_path / "events.jsonl"
        log = WideEventLog(path, registry=registry)
        previous = set_event_log(log)
        try:
            with GenMapper() as gm:
                gm.db.retry_policy = fast_retry(registry)
                gm.db.fault_injector = FaultInjector(
                    [FaultRule("busy", probability=0.02, times=None)],
                    seed=321,
                    registry=registry,
                )
                gm.integrate_directory(universe_dir)
                injected = gm.db.fault_injector.fired
                gm.db.fault_injector = None
        finally:
            set_event_log(previous)
            log.close()
        assert injected > 0, "chaos run injected no faults at all"
        assert log.stats()["dropped"] == 0

        records = [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        imports = [r for r in records if r["event"] == "import"]
        assert len(imports) >= 5
        for record in records:
            assert record["trace_id"]
            assert record["duration_ms"] >= 0
        for record in imports:
            assert record["source"]
            assert record["sql_count"] >= 1
        # The retry layer annotated the events it saved.
        assert sum(r.get("retries", 0) for r in records) >= 1


class TestCrashResume:
    def count_guarded_statements(self, universe_dir) -> int:
        """How many guarded statements a clean import executes."""
        with GenMapper() as gm:
            counter = FaultInjector(
                [FaultRule("latency", seconds=0.0)], registry=MetricsRegistry()
            )
            gm.db.fault_injector = counter
            gm.integrate_directory(universe_dir)
            return counter.fired

    def test_killed_import_resumes_to_identical_snapshot(
        self, universe_dir, clean_snapshot
    ):
        total = self.count_guarded_statements(universe_dir)
        assert total > 100
        with GenMapper() as gm:
            # Deterministic mid-run "kill": after half the statements a
            # clean import needs, every further one fails, with no retry.
            gm.db.retry_policy = RetryPolicy(max_attempts=1)
            gm.db.fault_injector = FaultInjector(
                [FaultRule("ioerror", after=total // 2, times=None)],
                registry=MetricsRegistry(),
            )
            with pytest.raises(sqlite3.OperationalError):
                gm.integrate_directory(universe_dir)
            # Some sources finished and were checkpointed; some were not.
            journal = ImportJournal(gm.db)
            gm.db.fault_injector = None
            done = len(journal.entries())
            assert 0 < done < 11
            # The interrupted source's transaction rolled back: nothing
            # half-imported is visible.
            partial = canonical_snapshot(gm.repository)
            assert partial != clean_snapshot
            # Resume with faults cleared: converges to the clean result.
            reports = gm.integrate_directory(universe_dir, resume=True)
            assert canonical_snapshot(gm.repository) == clean_snapshot
            # Checkpointed sources were skipped, not redone.
            skipped = [r for r in reports if r.new_objects == 0]
            assert len(skipped) >= done

    def test_resume_after_faultless_kill_is_pure_skip(self, universe_dir):
        with GenMapper() as gm:
            gm.integrate_directory(universe_dir)
            before = canonical_snapshot(gm.repository)
            reports = gm.integrate_directory(universe_dir, resume=True)
            assert all(report.new_objects == 0 for report in reports)
            assert all(report.total_associations == 0 for report in reports)
            assert canonical_snapshot(gm.repository) == before


class TestChaosRateLimit:
    def test_rate_limited_edge_under_faults_stays_well_behaved(
        self, universe_dir
    ):
        """Concurrent clients hammering a rate-limited edge under injected
        storage faults see only 200/304/429/503 — never a 500 — and every
        client eventually gets through once its bucket refills."""
        import io

        from repro.reliability.ratelimit import RateLimiter
        from repro.web.app import create_app

        registry = MetricsRegistry()
        clock = {"now": 0.0}
        clock_lock = threading.Lock()

        def fake_clock():
            with clock_lock:
                return clock["now"]

        with GenMapper() as gm:
            gm.integrate_directory(universe_dir)
            gm.db.retry_policy = fast_retry(registry)
            gm.db.fault_injector = FaultInjector(
                [FaultRule("busy", probability=0.02, times=None)],
                seed=4242,
                registry=registry,
            )
            limiter = RateLimiter(
                rate=5.0, burst=10.0, clock=fake_clock, registry=registry
            )
            app = create_app(
                gm,
                registry=registry,
                rate_limiter=limiter,
                event_log=None,
                slow_log=None,
                slo=None,
            )

            def hit(client: str, path: str, query: str = "") -> int:
                environ = {
                    "REQUEST_METHOD": "GET",
                    "PATH_INFO": path,
                    "QUERY_STRING": query,
                    "REMOTE_ADDR": client,
                    "wsgi.input": io.BytesIO(b""),
                }
                captured = {}

                def start_response(status, headers, exc_info=None):
                    captured["status"] = int(status.split()[0])

                body = app(environ, start_response)
                b"".join(body)
                close = getattr(body, "close", None)
                if close is not None:
                    close()
                return captured["status"]

            statuses: dict[str, list[int]] = {}
            lock = threading.Lock()

            def client_thread(client: str) -> None:
                seen = []
                for _ in range(30):
                    seen.append(hit(client, "/map", "source=LocusLink&target=GO"))
                with lock:
                    statuses[client] = seen

            threads = [
                threading.Thread(target=client_thread, args=(f"10.0.0.{i}",))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            gm.db.fault_injector = None

            all_statuses = [s for seen in statuses.values() for s in seen]
            assert len(all_statuses) == 120
            assert set(all_statuses) <= {200, 429, 503}, sorted(set(all_statuses))
            for client, seen in statuses.items():
                assert 200 in seen, f"{client} never got through"
                assert 429 in seen, f"{client} was never limited (burst 10, 30 hits)"
            # Shed clients recover: refill the buckets and retry.
            with clock_lock:
                clock["now"] += 10.0
            assert all(
                hit(f"10.0.0.{i}", "/stats") == 200 for i in range(4)
            )
            counters = registry.snapshot()["counters"]
            assert counters["edge.rate_limited"] > 0
            assert counters["edge.rate_allowed"] > 0
