"""Tests for the reliability layer (repro.reliability).

Covers the fault plane, the retry/backoff policy (entirely on fake
clocks — no real sleeping), request deadlines, the circuit-breaker state
machine, degraded-mode (stale-cache) serving, import checkpoints, and
the web layer's 503/Retry-After behaviour.  The end-to-end chaos suite
lives in ``tests/test_chaos.py``.
"""

from __future__ import annotations

import io
import json
import sqlite3

import pytest

from repro.core.genmapper import GenMapper
from repro.gam.database import GamDatabase
from repro.obs import MetricsRegistry
from repro.reliability import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    FaultInjector,
    FaultRule,
    FaultSpecError,
    ImportJournal,
    RetryBudgetExceeded,
    RetryPolicy,
    capture_degraded,
    check_deadline,
    current_deadline,
    deadline_scope,
    file_fingerprint,
    injector_from_env,
    is_retryable,
    mark_degraded,
    parse_fault_rules,
    was_degraded,
)
from repro.reliability.breaker import CLOSED, HALF_OPEN, OPEN
from repro.web.app import create_app


@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Keep this module deterministic under the CI chaos run.

    The chaos CI job exports ``REPRO_FAULTS`` for the whole tier-1 suite;
    these tests configure their own injectors and several disable retries,
    so ambient, probabilistic faults must not leak into them.
    """
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def no_retry() -> RetryPolicy:
    return RetryPolicy(max_attempts=1)


def fast_retry(**overrides) -> RetryPolicy:
    """A retry policy that never actually sleeps (injected no-op sleep)."""
    defaults = dict(
        max_attempts=5,
        base_delay=0.0005,
        max_delay=0.002,
        max_elapsed=None,
        sleep=lambda _s: None,
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


# ---------------------------------------------------------------------------
# fault plane


class TestFaultRuleParsing:
    def test_minimal_rule(self):
        (rule,) = parse_fault_rules("busy")
        assert (rule.kind, rule.probability, rule.pattern) == ("busy", 1.0, None)
        assert (rule.times, rule.after) == (None, 0)

    def test_full_grammar(self):
        (rule,) = parse_fault_rules("busy:0.25@INSERT#3+2~0.5")
        assert rule.kind == "busy"
        assert rule.probability == 0.25
        assert rule.pattern == "INSERT"
        assert rule.times == 3
        assert rule.after == 2
        assert rule.seconds == 0.5

    def test_multiple_rules_semicolon_and_comma(self):
        rules = parse_fault_rules("busy:0.05; ioerror:0.01,latency~0.002")
        assert [rule.kind for rule in rules] == ["busy", "ioerror", "latency"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_rules("explode")

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_rules("busy:1.5")

    def test_garbage_rejected(self):
        with pytest.raises(FaultSpecError):
            parse_fault_rules("busy:zero")

    def test_injector_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert injector_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "busy:0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "7")
        injector = injector_from_env()
        assert injector is not None
        assert injector.rules[0].probability == 0.5


class TestFaultInjector:
    def test_busy_raises_locked_error(self):
        injector = FaultInjector([FaultRule("busy")], registry=MetricsRegistry())
        with pytest.raises(sqlite3.OperationalError, match="database is locked"):
            injector.on_execute("INSERT INTO object VALUES (1)")
        assert injector.fired == 1

    def test_ioerror_raises_disk_error(self):
        injector = FaultInjector([FaultRule("ioerror")], registry=MetricsRegistry())
        with pytest.raises(sqlite3.OperationalError, match="disk I/O error"):
            injector.on_execute("SELECT 1")

    def test_pattern_matching_is_substring_case_insensitive(self):
        injector = FaultInjector(
            [FaultRule("busy", pattern="insert")], registry=MetricsRegistry()
        )
        injector.on_execute("SELECT * FROM object")  # no match, no fault
        with pytest.raises(sqlite3.OperationalError):
            injector.on_execute("INSERT INTO object VALUES (1)")

    def test_times_caps_fires(self):
        injector = FaultInjector(
            [FaultRule("busy", times=2)], registry=MetricsRegistry()
        )
        for _ in range(2):
            with pytest.raises(sqlite3.OperationalError):
                injector.on_execute("SELECT 1")
        injector.on_execute("SELECT 1")  # rule exhausted
        assert injector.fired == 2

    def test_after_skips_leading_calls(self):
        injector = FaultInjector(
            [FaultRule("busy", after=2, times=1)], registry=MetricsRegistry()
        )
        injector.on_execute("SELECT 1")
        injector.on_execute("SELECT 1")
        with pytest.raises(sqlite3.OperationalError):
            injector.on_execute("SELECT 1")

    def test_probability_is_seeded_and_deterministic(self):
        def count_fires(seed):
            injector = FaultInjector(
                [FaultRule("busy", probability=0.3, times=None)],
                seed=seed,
                registry=MetricsRegistry(),
            )
            fires = 0
            for _ in range(200):
                try:
                    injector.on_execute("SELECT 1")
                except sqlite3.OperationalError:
                    fires += 1
            return fires

        a, b = count_fires(42), count_fires(42)
        assert a == b  # reproducible per seed
        assert 20 < a < 100  # roughly 30% of 200

    def test_latency_rule_injects_delay_not_error(self):
        injector = FaultInjector(
            [FaultRule("latency", seconds=0.0)], registry=MetricsRegistry()
        )
        injector.on_execute("SELECT 1")  # must not raise
        assert injector.fired == 1

    def test_metrics_counted_by_kind(self):
        registry = MetricsRegistry()
        injector = FaultInjector([FaultRule("busy", times=1)], registry=registry)
        with pytest.raises(sqlite3.OperationalError):
            injector.on_execute("SELECT 1")
        snapshot = registry.snapshot()
        assert snapshot["counters"]["reliability.faults.injected{kind=busy}"] == 1

    def test_reset_zeroes_counters(self):
        injector = FaultInjector(
            [FaultRule("busy", times=1)], registry=MetricsRegistry()
        )
        with pytest.raises(sqlite3.OperationalError):
            injector.on_execute("SELECT 1")
        injector.reset()
        assert injector.fired == 0
        with pytest.raises(sqlite3.OperationalError):
            injector.on_execute("SELECT 1")

    def test_blanket_rules_do_not_fire_on_connect(self):
        injector = FaultInjector([FaultRule("busy")], registry=MetricsRegistry())
        injector.on_connect()  # must not raise: no @CONNECT rule
        assert injector.fired == 0

    def test_targeted_connect_rule_fires_on_connect(self):
        injector = FaultInjector(
            [FaultRule("busy", pattern="CONNECT")], registry=MetricsRegistry()
        )
        with pytest.raises(sqlite3.OperationalError):
            injector.on_connect()


class TestFaultPlaneAtDatabaseBoundary:
    def test_injected_fault_is_retried_transparently(self):
        db = GamDatabase(retry_policy=fast_retry())
        registry = MetricsRegistry()
        db.retry_policy.registry = registry
        db.fault_injector = FaultInjector(
            [FaultRule("busy", times=2)], registry=registry
        )
        cursor = db.execute_read("SELECT count(*) FROM source")
        assert cursor.fetchone()[0] == 0
        snapshot = registry.snapshot()
        assert snapshot["counters"]["reliability.retry.attempts"] == 2
        assert snapshot["counters"]["reliability.retry.successes"] == 1
        db.close()

    def test_fault_fires_before_execution_so_db_is_unchanged(self):
        db = GamDatabase(retry_policy=no_retry())
        db.fault_injector = FaultInjector(
            [FaultRule("ioerror", pattern="INSERT", times=1)],
            registry=MetricsRegistry(),
        )
        with pytest.raises(sqlite3.OperationalError):
            db.execute(
                "INSERT INTO source (name, content, structure) VALUES (?, ?, ?)",
                ("S", "Gene", "Flat"),
            )
        assert db.execute_read("SELECT count(*) FROM source").fetchone()[0] == 0
        db.close()

    def test_write_retry_does_not_double_apply(self):
        db = GamDatabase(retry_policy=fast_retry())
        db.fault_injector = FaultInjector(
            [FaultRule("busy", pattern="INSERT", times=3)],
            registry=MetricsRegistry(),
        )
        db.execute(
            "INSERT INTO source (name, content, structure) VALUES (?, ?, ?)",
            ("S", "Gene", "Flat"),
        )
        assert db.execute_read("SELECT count(*) FROM source").fetchone()[0] == 1
        db.close()

    def test_transaction_rolls_back_on_exhausted_retries(self):
        db = GamDatabase(retry_policy=no_retry())
        db.fault_injector = FaultInjector(
            [FaultRule("busy", pattern="INSERT INTO object ", times=1)],
            registry=MetricsRegistry(),
        )
        with pytest.raises(sqlite3.OperationalError):
            with db.transaction():
                db.execute(
                    "INSERT INTO source (name, content, structure)"
                    " VALUES (?, ?, ?)",
                    ("S", "Gene", "Flat"),
                )
                db.execute(
                    "INSERT INTO object (source_id, accession) VALUES (1, 'a')"
                )
        counts = db.counts()
        assert counts["source"] == 0 and counts["object"] == 0
        db.close()


# ---------------------------------------------------------------------------
# retry policy


class TestRetryPolicy:
    def test_backoff_schedule_exponential_and_capped(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, max_delay=8.0, multiplier=2.0
        )
        assert [policy.backoff(n) for n in range(1, 6)] == [1, 2, 4, 8, 8]

    def test_jittered_delay_never_exceeds_schedule(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=8.0, jitter=0.5)
        for attempt in range(1, 6):
            for _ in range(50):
                delay = policy.delay_for(attempt)
                assert 0.0 < delay <= policy.backoff(attempt)

    def test_zero_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.0)
        assert policy.delay_for(1) == policy.backoff(1)

    def test_success_first_try_records_nothing(self):
        registry = MetricsRegistry()
        policy = fast_retry(registry=registry)
        assert policy.call(lambda: 42) == 42
        assert "reliability.retry.attempts" not in registry.snapshot()["counters"]

    def test_retries_then_succeeds(self):
        registry = MetricsRegistry()
        sleeps = []
        policy = fast_retry(registry=registry, sleep=sleeps.append)
        failures = iter([sqlite3.OperationalError("database is locked")] * 2)

        def flaky():
            for exc in failures:
                raise exc
            return "ok"

        assert policy.call(flaky) == "ok"
        assert len(sleeps) == 2
        counters = registry.snapshot()["counters"]
        assert counters["reliability.retry.attempts"] == 2
        assert counters["reliability.retry.successes"] == 1

    def test_non_retryable_raises_immediately(self):
        calls = []
        policy = fast_retry()

        def bad():
            calls.append(1)
            raise sqlite3.IntegrityError("UNIQUE constraint failed")

        with pytest.raises(sqlite3.IntegrityError):
            policy.call(bad)
        assert len(calls) == 1

    def test_gives_up_after_max_attempts(self):
        registry = MetricsRegistry()
        policy = fast_retry(max_attempts=3, registry=registry)

        def always_busy():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(RetryBudgetExceeded) as excinfo:
            policy.call(always_busy)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, sqlite3.OperationalError)
        assert registry.snapshot()["counters"]["reliability.retry.giveups"] == 1

    def test_budget_error_is_itself_classified_retryable(self):
        # Callers above the storage layer (the circuit breaker) treat an
        # exhausted retry budget as the transient failure it wraps.
        error = RetryBudgetExceeded(
            3, sqlite3.OperationalError("database is locked")
        )
        assert is_retryable(error)

    def test_time_budget_bounds_total_elapsed(self):
        clock = FakeClock()

        def sleeper(seconds):
            clock.advance(seconds)

        policy = RetryPolicy(
            max_attempts=100,
            base_delay=1.0,
            max_delay=1.0,
            jitter=0.0,
            max_elapsed=3.5,
            clock=clock,
            sleep=sleeper,
        )
        with pytest.raises(RetryBudgetExceeded):
            policy.call(
                lambda: (_ for _ in ()).throw(
                    sqlite3.OperationalError("database is locked")
                )
            )
        # Slept 1s three times, then the fourth delay would exceed 3.5s.
        assert clock.now - 100.0 == pytest.approx(3.0)

    def test_never_sleeps_past_an_active_deadline(self):
        clock = FakeClock()
        sleeps = []
        policy = RetryPolicy(
            max_attempts=10,
            base_delay=5.0,
            max_delay=5.0,
            jitter=0.0,
            max_elapsed=None,
            clock=clock,
            sleep=sleeps.append,
        )
        with deadline_scope(1.0, clock=clock):
            with pytest.raises(RetryBudgetExceeded):
                policy.call(
                    lambda: (_ for _ in ()).throw(
                        sqlite3.OperationalError("database is locked")
                    )
                )
        assert sleeps == []  # 5s backoff > 1s remaining: give up, don't sleep

    def test_retryable_classification(self):
        assert is_retryable(sqlite3.OperationalError("database is locked"))
        assert is_retryable(sqlite3.OperationalError("disk I/O error"))
        assert not is_retryable(sqlite3.OperationalError("no such table: x"))
        assert not is_retryable(sqlite3.IntegrityError("UNIQUE constraint"))
        assert not is_retryable(ValueError("nope"))


# ---------------------------------------------------------------------------
# deadlines


class TestDeadlines:
    def test_remaining_and_expired(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        clock.advance(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired()
        clock.advance(1.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_scope_installs_and_removes(self):
        assert current_deadline() is None
        with deadline_scope(5.0) as deadline:
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_none_budget_is_noop(self):
        with deadline_scope(None) as deadline:
            assert deadline is None
            check_deadline()  # no-op

    def test_nested_scopes_keep_the_tighter_deadline(self):
        clock = FakeClock()
        with deadline_scope(1.0, clock=clock) as outer:
            with deadline_scope(100.0, clock=clock) as inner:
                assert inner is outer  # laxer inner cannot extend
            with deadline_scope(0.1, clock=clock) as tighter:
                assert tighter is not outer
                assert tighter.expires_at < outer.expires_at

    def test_check_deadline_raises_after_expiry(self):
        clock = FakeClock()
        with deadline_scope(0.5, clock=clock):
            check_deadline()
            clock.advance(1.0)
            with pytest.raises(DeadlineExceeded) as excinfo:
                check_deadline()
        assert excinfo.value.budget == 0.5
        assert excinfo.value.retry_after > 0

    def test_deadline_exceeded_is_not_retryable(self):
        assert not is_retryable(DeadlineExceeded(1.0))

    def test_database_execute_honours_deadline(self):
        clock = FakeClock()
        db = GamDatabase(retry_policy=no_retry())
        with deadline_scope(0.5, clock=clock):
            db.execute_read("SELECT 1")
            clock.advance(1.0)
            with pytest.raises(DeadlineExceeded):
                db.execute_read("SELECT 1")
        db.close()

    def test_run_query_timeout(self, paper_genmapper):
        from repro.query.session import QuerySession

        session = QuerySession(paper_genmapper).select_source("LocusLink")
        session.add_target("GO")
        # An infinitesimal budget is caught at the first check (before the
        # view is built — and therefore before it could be cached)...
        with pytest.raises(DeadlineExceeded):
            session.run(timeout=1e-9)
        # ... while a generous one passes.
        view = session.run(timeout=30.0)
        assert len(view.columns) == 2

    def test_set_deadline_validates(self, paper_genmapper):
        from repro.gam.errors import QuerySpecError
        from repro.query.session import QuerySession

        session = QuerySession(paper_genmapper)
        with pytest.raises(QuerySpecError):
            session.set_deadline(-1)


# ---------------------------------------------------------------------------
# circuit breaker


class TestCircuitBreaker:
    def make(self, clock, **overrides):
        defaults = dict(
            failure_threshold=3,
            recovery_time=10.0,
            clock=clock,
            registry=MetricsRegistry(),
        )
        defaults.update(overrides)
        return CircuitBreaker(**defaults)

    def test_starts_closed_and_allows(self):
        breaker = self.make(FakeClock())
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert breaker.retry_after() == 0.0

    def test_opens_at_failure_threshold(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_consecutive_failures(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_retry_after_counts_down(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(4.0)
        assert breaker.retry_after() == pytest.approx(6.0)

    def test_half_open_after_recovery_time_admits_bounded_probes(self):
        clock = FakeClock()
        breaker = self.make(clock, half_open_max=1)
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.1)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe admitted

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        # The recovery window restarts from the re-open.
        assert breaker.retry_after() == pytest.approx(10.0)

    def test_open_error_carries_retry_after(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        error = breaker.open_error()
        assert isinstance(error, CircuitOpenError)
        assert error.retry_after == pytest.approx(10.0)

    def test_stats_shape(self):
        breaker = self.make(FakeClock())
        stats = breaker.stats()
        assert stats["state"] == CLOSED
        assert stats["failure_threshold"] == 3

    def test_metrics_opens_and_closes(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        breaker = self.make(clock, registry=registry)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.1)
        breaker.allow()
        breaker.record_success()
        counters = registry.snapshot()["counters"]
        assert counters["reliability.breaker.opens{breaker=repository}"] == 1
        assert counters["reliability.breaker.closes{breaker=repository}"] == 1


class TestDegradedSignalling:
    def test_capture_and_mark(self):
        with capture_degraded() as state:
            assert not was_degraded()
            mark_degraded("stale mapping")
            assert was_degraded()
            assert state["degraded"] is True
            assert state["reasons"] == ["stale mapping"]
        assert not was_degraded()

    def test_mark_outside_capture_is_safe(self):
        mark_degraded("nobody listening")  # must not raise


# ---------------------------------------------------------------------------
# degraded-mode serving through the facade


def break_storage(gm: GenMapper) -> None:
    """Make every subsequent guarded statement fail fast."""
    gm.db.fault_injector = FaultInjector(
        [FaultRule("busy")], registry=MetricsRegistry()
    )
    gm.db.retry_policy = RetryPolicy(max_attempts=1)


class TestDegradedServing:
    def test_stale_mapping_served_when_storage_fails(self, cached_paper_genmapper):
        gm = cached_paper_genmapper
        fresh = gm.map("LocusLink", "GO")
        # A write moves the generation: the cached entry is now stale.
        gm.db.execute(
            "INSERT INTO meta (key, value) VALUES ('poke', '1')"
            " ON CONFLICT (key) DO UPDATE SET value = value"
        )
        break_storage(gm)
        with capture_degraded() as state:
            stale = gm.map("LocusLink", "GO")
        assert state["degraded"] is True
        assert list(stale) == list(fresh)

    def test_breaker_opens_and_short_circuits_to_stale(self, cached_paper_genmapper):
        gm = cached_paper_genmapper
        gm.breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=60.0, registry=MetricsRegistry()
        )
        gm.map("LocusLink", "GO")
        gm.db.execute(
            "INSERT INTO meta (key, value) VALUES ('poke', '1')"
            " ON CONFLICT (key) DO UPDATE SET value = value"
        )
        break_storage(gm)
        with capture_degraded():
            gm.map("LocusLink", "GO")  # fails, records failure, serves stale
        assert gm.breaker.state == OPEN
        # Now the breaker short-circuits: no storage touch, stale served.
        fired_before = gm.db.fault_injector.fired
        with capture_degraded() as state:
            gm.map("LocusLink", "GO")
        assert state["degraded"] is True
        assert gm.db.fault_injector.fired == fired_before

    def test_open_circuit_builds_views_from_stale_mappings(
        self, cached_paper_genmapper
    ):
        gm = cached_paper_genmapper
        gm.breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=60.0, registry=MetricsRegistry()
        )
        mapping = gm.map("LocusLink", "GO")
        gm.breaker.record_failure()
        assert gm.breaker.state == OPEN
        # An upload never served before: only its mapping is resident.
        with capture_degraded() as state:
            view = gm.generate_view("LocusLink", ["GO"], source_objects=["353"])
        assert state["degraded"] is True
        assert view.rows == tuple(
            ("353", target) for target in mapping.targets_of("353")
        )
        assert view.rows

    def test_open_circuit_without_fallback_raises(self, paper_genmapper):
        gm = paper_genmapper
        gm.breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=60.0, registry=MetricsRegistry()
        )
        gm.breaker.record_failure()
        assert gm.breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            gm.map("LocusLink", "Unigene")  # never cached: nothing stale

    def test_non_storage_errors_do_not_trip_the_breaker(self, paper_genmapper):
        gm = paper_genmapper
        gm.breaker = CircuitBreaker(
            failure_threshold=1, registry=MetricsRegistry()
        )
        from repro.gam.errors import GenMapperError

        with pytest.raises(GenMapperError):
            gm.map("LocusLink", "NoSuchSource")
        assert gm.breaker.state == CLOSED


# ---------------------------------------------------------------------------
# import checkpoints


class TestImportJournal:
    def test_record_and_completed_roundtrip(self):
        db = GamDatabase()
        journal = ImportJournal(db)
        assert not journal.completed("GO", "go.obo", "abc", "r1")
        journal.record("GO", "go.obo", "abc", "r1")
        assert journal.completed("GO", "go.obo", "abc", "r1")
        # Changed content, release, or file all mean "not done".
        assert not journal.completed("GO", "go.obo", "other", "r1")
        assert not journal.completed("GO", "go.obo", "abc", "r2")
        assert not journal.completed("GO", "go2.obo", "abc", "r1")
        db.close()

    def test_record_is_idempotent_upsert(self):
        db = GamDatabase()
        journal = ImportJournal(db)
        journal.record("GO", "go.obo", "abc")
        journal.record("GO", "go.obo", "def")
        assert not journal.completed("GO", "go.obo", "abc")
        assert journal.completed("GO", "go.obo", "def")
        assert len(journal.entries()) == 1
        db.close()

    def test_entries_and_clear(self):
        db = GamDatabase()
        journal = ImportJournal(db)
        journal.record("GO", "go.obo", "abc", "r1")
        journal.record("LocusLink", "ll.txt", "def")
        entries = journal.entries()
        assert set(entries) == {"GO/go.obo", "LocusLink/ll.txt"}
        assert entries["GO/go.obo"]["fingerprint"] == "abc"
        assert journal.clear() == 2
        assert journal.entries() == {}
        db.close()

    def test_file_fingerprint_tracks_content(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("one")
        first = file_fingerprint(path)
        assert first == file_fingerprint(path)
        path.write_text("two")
        assert file_fingerprint(path) != first


class TestResumableDirectoryImport:
    def test_directory_import_writes_checkpoints(self, genmapper, universe_dir):
        genmapper.integrate_directory(universe_dir)
        journal = ImportJournal(genmapper.db)
        entries = journal.entries()
        assert len(entries) >= 2
        assert all("fingerprint" in record for record in entries.values())

    def test_resume_skips_checkpointed_sources(self, genmapper, universe_dir):
        first = genmapper.integrate_directory(universe_dir)
        resumed = genmapper.integrate_directory(universe_dir, resume=True)
        assert [r.source.name for r in resumed] == [
            r.source.name for r in first
        ]
        assert all(report.new_objects == 0 for report in resumed)
        assert all(report.total_associations == 0 for report in resumed)

    def test_resume_env_var(self, genmapper, universe_dir, monkeypatch):
        genmapper.integrate_directory(universe_dir)
        monkeypatch.setenv("REPRO_IMPORT_RESUME", "1")
        resumed = genmapper.integrate_directory(universe_dir)
        assert all(report.new_objects == 0 for report in resumed)

    def test_without_resume_flag_reimports(self, genmapper, universe_dir):
        genmapper.integrate_directory(universe_dir)
        again = genmapper.integrate_directory(universe_dir)
        # Re-import runs (dedup makes it a no-op), it is not skipped:
        # the reports come from real imports, not zero-count stubs.
        assert all(report.source.imported_at for report in again)


# ---------------------------------------------------------------------------
# web layer: 503, Retry-After, degraded flag, X-Request-Timeout


def call_with_headers(app, method, path, query="", body=None, headers=None):
    raw = json.dumps(body).encode() if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    for name, value in (headers or {}).items():
        environ["HTTP_" + name.upper().replace("-", "_")] = value
    captured = {}

    def start_response(status, response_headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(response_headers)

    chunks = app(environ, start_response)
    payload = json.loads(b"".join(chunks).decode("utf-8"))
    return captured["status"], payload, captured["headers"]


class TestWebResilience:
    def test_request_timeout_sheds_with_503_and_retry_after(
        self, paper_genmapper
    ):
        app = create_app(paper_genmapper, request_timeout=1e-9)
        status, payload, headers = call_with_headers(
            app, "POST", "/query", body={"query": "ANNOTATE LocusLink WITH GO"}
        )
        assert status == 503
        assert "deadline" in payload["error"]
        assert int(headers["Retry-After"]) >= 1

    def test_header_timeout_sheds_one_request(self, paper_genmapper):
        app = create_app(paper_genmapper)
        status, __, headers = call_with_headers(
            app,
            "POST",
            "/query",
            body={"query": "ANNOTATE LocusLink WITH GO"},
            headers={"X-Request-Timeout": "0.000000001"},
        )
        assert status == 503
        assert "Retry-After" in headers
        # Without the header the same query is fine.
        status, payload, __ = call_with_headers(
            app, "POST", "/query", body={"query": "ANNOTATE LocusLink WITH GO"}
        )
        assert status == 200
        assert payload["row_count"] >= 1

    def test_header_cannot_extend_server_budget(self, paper_genmapper):
        app = create_app(paper_genmapper, request_timeout=1e-9)
        status, __, __ = call_with_headers(
            app,
            "POST",
            "/query",
            body={"query": "ANNOTATE LocusLink WITH GO"},
            headers={"X-Request-Timeout": "3600"},
        )
        assert status == 503

    def test_invalid_timeout_header_is_400(self, paper_genmapper):
        app = create_app(paper_genmapper)
        for bad in ("abc", "-1", "0"):
            status, payload, __ = call_with_headers(
                app,
                "GET",
                "/sources",
                headers={"X-Request-Timeout": bad},
            )
            assert status == 400
            assert "X-Request-Timeout" in payload["error"]

    def test_circuit_open_is_503_with_retry_after(self, paper_genmapper):
        gm = paper_genmapper
        gm.breaker = CircuitBreaker(
            failure_threshold=1, recovery_time=30.0, registry=MetricsRegistry()
        )
        gm.breaker.record_failure()
        app = create_app(gm)
        status, payload, headers = call_with_headers(
            app, "GET", "/map", query="source=LocusLink&target=Unigene"
        )
        assert status == 503
        assert "circuit" in payload["error"]
        assert int(headers["Retry-After"]) >= 1

    def test_degraded_response_flagged(self, cached_paper_genmapper):
        gm = cached_paper_genmapper
        app = create_app(gm)
        status, fresh, __ = call_with_headers(
            app, "GET", "/map", query="source=LocusLink&target=GO"
        )
        assert status == 200 and "degraded" not in fresh
        gm.db.execute(
            "INSERT INTO meta (key, value) VALUES ('poke', '1')"
            " ON CONFLICT (key) DO UPDATE SET value = value"
        )
        break_storage(gm)
        status, payload, __ = call_with_headers(
            app, "GET", "/map", query="source=LocusLink&target=GO"
        )
        assert status == 200
        assert payload["degraded"] is True
        assert payload["degraded_reasons"]
        assert payload["associations"] == fresh["associations"]
