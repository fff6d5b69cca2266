"""Connection management for the central GAM database.

The paper hosts the GAM model in MySQL; this reproduction uses the stdlib
``sqlite3`` module (see DESIGN.md, substitutions).  :class:`GamDatabase`
owns a :class:`~repro.gam.pool.ConnectionPool` that hands each thread its
own connection, applies performance pragmas suited to the workload (WAL
journaling on disk so readers never block behind the writer), serializes
writers behind a process-wide lock, and offers a reentrant savepoint-based
transaction context manager.

Concurrency model (see ``docs/storage.md`` for the full discussion):

* every thread reads on its own pooled connection; on-disk databases run
  in WAL mode, so readers see consistent snapshots and never block;
* all writes funnel through one reentrant lock (``_write_lock``), so two
  threads can never interleave statements inside each other's
  transactions — the bug the seed's single shared connection had;
* connections run in autocommit mode; :meth:`transaction` issues an
  explicit ``BEGIN IMMEDIATE`` and nested calls create savepoints, so an
  inner block rolls back *only its own work* instead of sweeping up (or
  committing) the outer scope.

Data generation (see ``docs/performance.md``): the database maintains a
monotonic :meth:`data_generation` counter that moves forward on every
write — statement-level writes, ``executemany`` batches and committed
:meth:`transaction` blocks all bump it, and commits made through *other*
connections (pool siblings or external processes) are detected via
SQLite's ``PRAGMA data_version``.  The read-through
:class:`repro.cache.MappingCache` stamps every entry with the generation
it was loaded under, so a bumped generation transparently invalidates
stale cached mappings without any explicit flush call.

On top of the global counter sits a **per-source generation vector**:
write paths that know which sources they touch run inside
:meth:`write_scope`, and every bump made in scope advances only the
named sources' generations (:meth:`source_generation`).  Cache entries
whose dependencies name only untouched sources stay warm across a
re-import of an unrelated source.  Untagged writes (raw SQL issued with
no active scope) and commits detected from *external* processes raise a
global floor instead, which conservatively invalidates everything —
correctness never depends on a write being tagged.
"""

from __future__ import annotations

import contextlib
import itertools
import sqlite3
import threading
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.gam import schema as gam_schema
from repro.gam.pool import DEFAULT_POOL_SIZE, ConnectionPool, is_memory_path
from repro.obs.events import record_sql
from repro.reliability.deadline import check_deadline
from repro.reliability.faults import FaultInjector, injector_from_env
from repro.reliability.retry import RetryPolicy, policy_from_env

#: Statements that mutate the database and therefore take the writer lock.
_WRITE_STATEMENTS = frozenset(
    {"INSERT", "UPDATE", "DELETE", "REPLACE", "CREATE", "DROP", "ALTER",
     "VACUUM", "REINDEX", "ANALYZE"}
)


def _is_write_statement(sql: str) -> bool:
    head = sql.split(None, 1)
    return bool(head) and head[0].upper() in _WRITE_STATEMENTS


class GamDatabase:
    """A GAM database on disk or in memory.

    Parameters
    ----------
    path:
        Filesystem path of the database, or ``":memory:"`` (the default)
        for an in-memory database — convenient for tests and examples.
    create:
        When True (default), create the GAM schema if it is missing.
        When False, the schema must already exist and is validated.
    pool_size:
        Maximum number of pooled connections (on-disk databases only;
        in-memory databases always use a single shared connection).
    fault_injector:
        Fault plane consulted before every statement (chaos testing);
        defaults to whatever ``REPRO_FAULTS`` configures, usually none.
    retry_policy:
        Retry/backoff policy wrapped around every statement; transient
        SQLITE_BUSY / disk-I/O failures (injected or real) are retried
        within its budget.  Defaults from ``REPRO_RETRY_*``; pass an
        explicit :class:`~repro.reliability.retry.RetryPolicy` with
        ``max_attempts=1`` to disable retrying.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        create: bool = True,
        pool_size: int | None = None,
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.path = str(path)
        self._memory = is_memory_path(self.path)
        self._write_lock = threading.RLock()
        self._savepoint_serial = 0
        self._generation_lock = threading.Lock()
        self._generation = 0
        #: Per-source generation vector: source *name* -> generation of the
        #: last tagged write touching it.  ``_source_floor`` is the floor
        #: every source is implicitly at — raised by untagged writes and by
        #: external commits, which cannot be attributed to specific sources.
        self._source_generations: dict[str, int] = {}
        self._source_floor = 0
        #: Thread-local stack of active write scopes (tuples of source
        #: names) plus the per-transaction tag accumulator.
        self._scope_local = threading.local()
        #: Public and swappable: chaos tests install their own injector /
        #: policy after construction (``db.fault_injector = ...``).
        self.fault_injector = (
            fault_injector if fault_injector is not None else injector_from_env()
        )
        self.retry_policy = (
            retry_policy if retry_policy is not None else policy_from_env()
        )
        # Last ``PRAGMA data_version`` seen per pooled connection (used to
        # notice commits made by *other* connections / external writers)
        # lives in the pool's per-connection metadata (``pool.meta``), so
        # it cannot survive a connection's discard and mis-attribute a
        # fresh connection's first check.
        self.pool = ConnectionPool(
            self.path,
            max_size=pool_size if pool_size is not None else DEFAULT_POOL_SIZE,
            configure=self._apply_pragmas,
            connect_guard=self._guard_connect,
        )
        try:
            connection = self.pool.acquire()
            gam_schema.refuse_retired_layout(connection, self.path)
            if create:
                gam_schema.create_schema(connection)
            else:
                gam_schema.validate_schema(connection)
        except BaseException:
            self.pool.close()
            raise

    def _apply_pragmas(self, connection: sqlite3.Connection) -> None:
        cursor = connection.cursor()
        if self._memory:
            # Bulk-import friendly settings; durability is not a goal for
            # a rebuildable warehouse, matching the paper's batch import.
            cursor.execute("PRAGMA journal_mode = MEMORY")
            cursor.execute("PRAGMA synchronous = OFF")
        else:
            # WAL lets pooled readers run while the single writer commits;
            # NORMAL sync is the standard WAL durability/speed tradeoff.
            cursor.execute("PRAGMA journal_mode = WAL")
            cursor.execute("PRAGMA synchronous = NORMAL")
            cursor.execute("PRAGMA busy_timeout = 30000")
        cursor.execute("PRAGMA temp_store = MEMORY")
        cursor.execute("PRAGMA cache_size = -64000")
        cursor.execute("PRAGMA foreign_keys = ON")
        cursor.close()

    @property
    def connection(self) -> sqlite3.Connection:
        """The calling thread's pooled connection (row factory: ``Row``)."""
        return self.pool.acquire()

    # -- reliability boundary ---------------------------------------------
    #
    # Every statement passes through _run(): the request deadline is
    # checked, the fault plane is consulted (chaos testing — faults fire
    # *before* the statement executes, so a retried statement never sees
    # partial effects of itself), and transient failures are retried
    # within the policy's budget.

    def _guard(self, operation: str) -> None:
        check_deadline()
        if self.fault_injector is not None:
            self.fault_injector.on_execute(operation)

    def _guard_connect(self) -> None:
        if self.fault_injector is not None:
            self.fault_injector.on_connect()

    def _run(self, operation: str, fn):
        def attempt():
            self._guard(operation)
            return fn()

        if self.retry_policy is None:
            return attempt()
        return self.retry_policy.call(attempt)

    def execute(self, sql: str, parameters: tuple = ()) -> sqlite3.Cursor:
        """Execute a single statement on this thread's connection.

        Mutating statements are serialized behind the writer lock; reads
        run lock-free on the thread's own connection.
        """
        connection = self.pool.acquire()
        # Statement boundary: the wide event of the surrounding request
        # (if any) records the statement text + bound-parameter *count*;
        # bind values never leave this layer (redaction by construction).
        record_sql(sql, len(parameters))
        if _is_write_statement(sql):
            with self._write_lock:
                cursor = self._run(
                    sql, lambda: connection.execute(sql, parameters)
                )
                self.bump_generation()
                return cursor
        return self._run(sql, lambda: connection.execute(sql, parameters))

    def execute_read(self, sql: str, parameters: tuple = ()) -> sqlite3.Cursor:
        """Execute a read-only statement on this thread's pooled connection.

        The explicit read path: never takes the writer lock, so queries
        (the web handlers, :class:`repro.operators.sql_engine.SqlViewEngine`)
        proceed while a writer holds a transaction open.
        """
        connection = self.pool.acquire()
        record_sql(sql, len(parameters))
        return self._run(sql, lambda: connection.execute(sql, parameters))

    def execute_read_iter(
        self,
        sql: str,
        parameters: tuple = (),
        batch_size: int = 512,
    ) -> Iterator[sqlite3.Row]:
        """Iterate a read-only statement's rows with bounded memory.

        The streaming counterpart of :meth:`execute_read`: rows are
        drained from the cursor in ``batch_size`` batches instead of one
        ``fetchall``, so the HTTP edge can serialize an arbitrarily large
        listing while holding O(batch) rows resident
        (``docs/http_api.md``).  The request deadline is re-checked
        between batches — a consumer that overruns its budget aborts at
        the next batch boundary rather than draining to completion.
        """
        cursor = self.execute_read(sql, parameters)
        while True:
            rows = cursor.fetchmany(batch_size)
            if not rows:
                return
            check_deadline()
            yield from rows

    def executemany(self, sql: str, rows: object) -> sqlite3.Cursor:
        """Execute a statement for every parameter row, atomically.

        Outside an explicit :meth:`transaction` the rows are wrapped in
        one ``BEGIN IMMEDIATE`` block so autocommit mode does not pay one
        commit per row; inside one they simply join it.
        """
        connection = self.pool.acquire()
        # Materialize generators: a retried executemany must replay the
        # full row set, not whatever a half-consumed iterator has left.
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)  # type: ignore[arg-type]
        # For batches the recorded count is the number of parameter rows.
        record_sql(sql, len(rows))
        with self._write_lock:
            # Holding the writer lock, an open transaction on this
            # connection can only be this thread's own.
            if connection.in_transaction:
                cursor = self._run(sql, lambda: connection.executemany(sql, rows))
                self.bump_generation()
                return cursor
            self._run(
                "BEGIN IMMEDIATE", lambda: connection.execute("BEGIN IMMEDIATE")
            )
            try:
                cursor = self._run(sql, lambda: connection.executemany(sql, rows))
                self._run("COMMIT", connection.commit)
            except BaseException:
                connection.rollback()
                raise
            self.bump_generation()
            return cursor

    def executemany_counted(
        self,
        sql: str,
        rows: Iterable[tuple],
        chunk_size: int = 10_000,
    ) -> int:
        """Run a write statement per row and return the rows it changed.

        The concurrency-safe insert counter behind the bulk-ingest path
        (``docs/performance.md``): after ``executemany`` the cursor's
        ``rowcount`` sums only rows the statement actually changed — an
        ``INSERT OR IGNORE`` that hits the unique index contributes zero —
        so the result is exact regardless of what pool-sibling writers do
        to the table in between, unlike a before/after ``COUNT(*)`` delta.

        ``rows`` may be any iterable, including a generator: it is drained
        in chunks of ``chunk_size`` so parser output can stream through
        without materializing an intermediate list.  Like
        :meth:`executemany`, the batch joins an open :meth:`transaction`
        or wraps itself in one ``BEGIN IMMEDIATE`` block.
        """
        connection = self.pool.acquire()
        record_sql(sql, 0)  # row count unknown until the stream drains
        iterator = iter(rows)

        def _drain() -> int:
            changed = 0
            while True:
                chunk = list(itertools.islice(iterator, chunk_size))
                if not chunk:
                    return changed
                # Retry per chunk, never around the whole drain: each
                # chunk is a materialized list, so replaying it is safe,
                # while re-running _drain would resume a half-consumed
                # iterator and silently drop rows.
                cursor = self._run(
                    sql, lambda: connection.executemany(sql, chunk)
                )
                changed += max(cursor.rowcount, 0)

        with self._write_lock:
            if connection.in_transaction:
                changed = _drain()
                self.bump_generation()
                return changed
            self._run(
                "BEGIN IMMEDIATE", lambda: connection.execute("BEGIN IMMEDIATE")
            )
            try:
                changed = _drain()
                self._run("COMMIT", connection.commit)
            except BaseException:
                connection.rollback()
                raise
            self.bump_generation()
            return changed

    @contextlib.contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """Run a block atomically: commit on success, roll back on error.

        Holds the writer lock for the duration, so concurrent writers are
        serialized and can never interleave statements into this block.
        Reentrant: a nested ``transaction()`` on the same thread opens a
        savepoint and rolls back only its own work on error — it neither
        commits the outer scope early nor discards the outer scope's
        pending statements.
        """
        connection = self.pool.acquire()
        with self._write_lock:
            if connection.in_transaction:
                self._savepoint_serial += 1
                name = f"gam_sp_{self._savepoint_serial}"
                connection.execute(f"SAVEPOINT {name}")
                try:
                    yield connection
                except BaseException:
                    connection.execute(f"ROLLBACK TO SAVEPOINT {name}")
                    connection.execute(f"RELEASE SAVEPOINT {name}")
                    raise
                else:
                    connection.execute(f"RELEASE SAVEPOINT {name}")
            else:
                # Accumulate the scope tags of every bump made inside the
                # block: the commit-time bump must cover exactly the
                # sources written, or a reader that cached mid-transaction
                # (stamped with a post-statement-bump generation, loaded
                # from the pre-commit snapshot) would survive the commit.
                self._scope_local.txn_tags = set()
                self._scope_local.txn_untagged = False
                self._scope_local.txn_wrote = False
                self._run(
                    "BEGIN IMMEDIATE",
                    lambda: connection.execute("BEGIN IMMEDIATE"),
                )
                try:
                    yield connection
                    # COMMIT is guarded/retried too (WAL commits can see
                    # SQLITE_BUSY); the fault plane fires *before* the
                    # commit, so a retried COMMIT never double-commits.
                    self._run("COMMIT", connection.commit)
                except BaseException:
                    # Never guard ROLLBACK: it must always run, even with
                    # the fault plane raising on every other statement.
                    self._clear_txn_tags()
                    connection.rollback()
                    raise
                else:
                    tags = frozenset(self._scope_local.txn_tags)
                    untagged = self._scope_local.txn_untagged
                    wrote = self._scope_local.txn_wrote
                    self._clear_txn_tags()
                    if untagged:
                        self.bump_generation(None)
                    elif wrote:
                        self.bump_generation(tags)
                    else:
                        # No writes happened inside the block; bump like a
                        # plain write under whatever scope is active.
                        self.bump_generation()

    def commit(self) -> None:
        """Commit this thread's current transaction (no-op outside one)."""
        self.pool.acquire().commit()
        self.bump_generation()

    # -- data generation (cache invalidation protocol) --------------------

    _UNSET_SCOPE = object()

    @contextlib.contextmanager
    def write_scope(self, *source_names: str) -> Iterator[None]:
        """Tag every write made in the block with the named sources.

        Bumps made while a scope is active advance only the named sources'
        generations (the per-source generation vector) instead of raising
        the global floor, so cache entries depending on *other* sources
        stay warm.  Scopes nest: the effective tag set is the union of
        every active frame on the thread.  ``write_scope()`` with no names
        marks a *neutral* write — bookkeeping that changes no mapping data
        (import-journal checkpoints, saved-path registry) — which advances
        the clock but invalidates nothing scoped.
        """
        frames = getattr(self._scope_local, "frames", None)
        if frames is None:
            frames = self._scope_local.frames = []
        frames.append(tuple(source_names))
        try:
            yield
        finally:
            frames.pop()

    def _active_scope(self) -> frozenset[str] | None:
        """Union of the thread's scope frames, or None when unscoped."""
        frames = getattr(self._scope_local, "frames", None)
        if not frames:
            return None
        union: set[str] = set()
        for frame in frames:
            union.update(frame)
        return frozenset(union)

    def _record_txn_bump(self, tags: frozenset[str] | None) -> None:
        if not hasattr(self._scope_local, "txn_tags"):
            return
        self._scope_local.txn_wrote = True
        if tags is None:
            self._scope_local.txn_untagged = True
        else:
            self._scope_local.txn_tags |= tags

    def _clear_txn_tags(self) -> None:
        del self._scope_local.txn_tags
        del self._scope_local.txn_untagged
        del self._scope_local.txn_wrote

    def bump_generation(self, sources: object = _UNSET_SCOPE) -> int:
        """Advance the data generation; returns the new value.

        Called automatically on every write path.  With no argument the
        bump is attributed to the thread's active :meth:`write_scope` (or,
        lacking one, raises the global floor — invalidating everything).
        Passing an iterable of source names attributes it explicitly;
        passing ``None`` forces an untagged (floor-raising) bump.
        """
        if sources is GamDatabase._UNSET_SCOPE:
            sources = self._active_scope()
        tags = None if sources is None else frozenset(sources)  # type: ignore[arg-type]
        self._record_txn_bump(tags)
        with self._generation_lock:
            self._generation += 1
            if tags is None:
                self._source_floor = self._generation
            else:
                for name in tags:
                    self._source_generations[name] = self._generation
            return self._generation

    def source_generation(self, name: str) -> int:
        """Generation of the last write touching source ``name``.

        Never below the global floor: untagged writes and external
        commits move every source forward together.
        """
        with self._generation_lock:
            return max(self._source_floor, self._source_generations.get(name, 0))

    def generation_of(self, sources: Iterable[str]) -> int:
        """Max generation across ``sources`` (the scoped freshness bound).

        A cache entry stamped at generation ``g`` whose loader touched
        exactly these sources is fresh iff ``g >= generation_of(sources)``.
        An empty iterable yields the floor alone.
        """
        with self._generation_lock:
            generation = self._source_floor
            for name in sources:
                tagged = self._source_generations.get(name, 0)
                if tagged > generation:
                    generation = tagged
            return generation

    def generation_vector(self) -> dict[str, object]:
        """Snapshot of the per-source generation vector (introspection)."""
        with self._generation_lock:
            return {
                "generation": self._generation,
                "floor": self._source_floor,
                "sources": dict(self._source_generations),
            }

    def data_generation(self) -> int:
        """The current data generation of this database (monotonic).

        Combines two signals:

        * the internal write counter, bumped by every mutating statement,
          batch and committed transaction issued through this object;
        * SQLite's per-connection ``PRAGMA data_version``, which moves
          when a *different* connection commits.

        A moved ``data_version`` is attributed before it invalidates
        anything: when this object's own counter also advanced since the
        connection's last check, the movement is explained by pool-sibling
        writes that the generation vector already carries, and nothing
        extra happens.  Only an *unexplained* movement — an external
        process committed to the shared file — raises the global floor,
        invalidating every scoped cache entry.  The attribution is
        conservative in the safe direction for single-process use; a
        window containing both an internal and an external commit is
        attributed internally (see ``docs/performance.md`` for the
        multi-process caveat).
        """
        connection = self.pool.acquire()
        row = connection.execute("PRAGMA data_version").fetchone()
        seen = int(row[0])
        meta = self.pool.meta(connection)
        with self._generation_lock:
            last = meta.get("data_version")
            mark = meta.get("commit_mark")
            if last is not None and seen != last and mark == self._generation:
                # data_version moved with no intervening writes through
                # this object: an external process committed.
                self._generation += 1
                self._source_floor = self._generation
            meta["data_version"] = seen
            meta["commit_mark"] = self._generation
            return self._generation

    def analyze(self) -> None:
        """Refresh the query-planner statistics (``ANALYZE``).

        Join order over the generic OBJECT_REL table is chosen by the
        optimizer from these statistics; call after bulk imports so
        compiled view queries (``repro.operators.sql_engine``) pick
        index-driven plans.
        """
        connection = self.pool.acquire()
        with self._write_lock:
            connection.execute("ANALYZE")

    def has_planner_statistics(self) -> bool:
        """True when ``ANALYZE`` has been run on this database."""
        row = self.execute_read(
            "SELECT name FROM sqlite_master"
            " WHERE type = 'table' AND name = 'sqlite_stat1'"
        ).fetchone()
        if row is None:
            return False
        count = self.execute_read("SELECT count(*) FROM sqlite_stat1").fetchone()
        return int(count[0]) > 0

    def close(self) -> None:
        """Close every pooled connection."""
        self.pool.close()

    def __enter__(self) -> "GamDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- statistics ------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Row counts of the four GAM tables.

        Mirrors the deployment statistics the paper reports in Section 5
        (sources, objects, mappings, associations).
        """
        result = {}
        for table in gam_schema.GAM_TABLES:
            row = self.execute_read(f"SELECT count(*) FROM {table}").fetchone()
            result[table] = int(row[0])
        return result

    def table_watermarks(self, spec: dict[str, str]) -> dict[str, int]:
        """High-watermarks for delta refresh (``repro.derived.refresh``).

        ``spec`` maps table name to its id column; the result maps each
        table to its current max id (0 when empty).
        """
        marks: dict[str, int] = {}
        for table, id_column in spec.items():
            row = self.execute_read(
                f"SELECT coalesce(max({id_column}), 0) FROM {table}"
            ).fetchone()
            marks[table] = int(row[0])
        return marks
