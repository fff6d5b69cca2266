"""Thread-aware SQLite connection pooling for the central GAM database.

The seed storage layer handed one shared ``sqlite3`` connection (opened
with ``check_same_thread=False``) to every thread.  That is tolerable for
a single-threaded CLI but incorrect under a threaded WSGI server: two
request threads interleave statements inside each other's implicit
transactions, and a ``commit`` issued by one sweeps up the other's
half-done work.

:class:`ConnectionPool` fixes the sharing model:

* **thread-local checkout** — the first :meth:`acquire` on a thread leases
  a connection to that thread; subsequent calls return the same one, so a
  thread's reads always observe its own writes exactly as before;
* **configurable max size** — at most ``max_size`` connections are ever
  opened; leases held by finished threads are reclaimed, and when the pool
  is exhausted by *live* threads, new threads briefly wait and then fall
  back to sharing an existing connection (SQLite's serialized threading
  mode makes that safe — it is exactly the seed behaviour, now the
  degraded case instead of the only case);
* **in-memory degradation** — ``:memory:`` databases get a single shared
  connection regardless of ``max_size``, because every new in-memory
  connection would be a distinct empty database;
* **observability** — checkouts, waits, shared-fallback grants and the
  number of open/leased connections are reported through the default
  metrics registry (``db.pool.*``).

Transaction semantics (savepoints, the serialized writer lock) live one
layer up in :class:`repro.gam.database.GamDatabase`; the pool only manages
connection lifetimes.
"""

from __future__ import annotations

import sqlite3
import threading
from collections.abc import Callable

from repro.obs import MetricsRegistry, get_registry

#: Default maximum number of pooled connections for on-disk databases.
DEFAULT_POOL_SIZE = 8

#: Seconds a thread waits for a reclaimable connection before falling back
#: to sharing one (kept short: sticky leases are only freed by thread
#: death, so long waits rarely help).
DEFAULT_SHARE_AFTER = 0.05


def is_memory_path(path: str) -> bool:
    """True when ``path`` names a private in-memory SQLite database."""
    return path == ":memory:" or path == "" or (
        path.startswith("file:") and "mode=memory" in path
    )


class PoolClosedError(RuntimeError):
    """Raised when acquiring from a pool that has been closed."""


class ConnectionPool:
    """A bounded pool of SQLite connections with per-thread affinity.

    Parameters
    ----------
    path:
        Database path; ``:memory:`` pools degrade to one shared connection.
    max_size:
        Upper bound on concurrently open connections (>= 1).
    configure:
        Optional callback invoked once per new connection (pragmas).
    registry:
        Metrics registry; the process default when omitted.
    connect_guard:
        Optional callback invoked before each new connection is opened;
        the fault plane hooks in here (``@CONNECT`` rules) so chaos tests
        can make connection establishment itself fail.
    """

    def __init__(
        self,
        path: str,
        max_size: int = DEFAULT_POOL_SIZE,
        configure: Callable[[sqlite3.Connection], None] | None = None,
        registry: MetricsRegistry | None = None,
        share_after: float = DEFAULT_SHARE_AFTER,
        connect_guard: Callable[[], None] | None = None,
    ) -> None:
        self.path = str(path)
        self.memory = is_memory_path(self.path)
        self.max_size = 1 if self.memory else max(1, int(max_size))
        self._configure = configure
        self._connect_guard = connect_guard
        self._share_after = float(share_after)
        self._registry = registry
        self._lock = threading.Condition()
        self._local = threading.local()
        self._idle: list[sqlite3.Connection] = []
        self._leases: dict[threading.Thread, sqlite3.Connection] = {}
        self._created = 0
        self._share_cursor = 0
        self._closed = False
        self._all: list[sqlite3.Connection] = []
        #: Pool-managed per-connection metadata (see :meth:`meta`).
        self._meta: dict[int, dict] = {}
        if self.memory:
            # One connection IS the database; open it eagerly so the pool
            # never races schema creation.
            self._shared = self._new_connection()
        else:
            self._shared = None

    # -- metrics -----------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    def _update_gauges(self) -> None:
        self.registry.gauge("db.pool.connections").set(self._created)
        self.registry.gauge("db.pool.leased").set(len(self._leases))

    # -- connection lifecycle ----------------------------------------------

    def _new_connection(self) -> sqlite3.Connection:
        if self._connect_guard is not None:
            self._connect_guard()
        # isolation_level=None puts the connection in autocommit mode:
        # GamDatabase issues explicit BEGIN/SAVEPOINT statements, so no
        # implicit transaction ever lingers holding the write lock.
        connection = sqlite3.connect(
            self.path,
            check_same_thread=False,
            isolation_level=None,
            uri=self.path.startswith("file:"),
        )
        connection.row_factory = sqlite3.Row
        # A fresh connection may reuse a discarded connection's id();
        # drop any stale metadata so state never leaks across lifetimes.
        self._meta.pop(id(connection), None)
        if self._configure is not None:
            self._configure(connection)
        self._created += 1
        self._all.append(connection)
        self.registry.counter("db.pool.connections_created").inc()
        return connection

    def meta(self, connection: sqlite3.Connection) -> dict:
        """Pool-managed scratch metadata attached to ``connection``.

        ``sqlite3.Connection`` has no ``__dict__``, so layers above the
        pool (generation tracking) cannot hang state off the connection
        object directly — and a bare ``id()``-keyed dict of their own
        would go stale when a discarded connection's id is reused by a
        new one.  The pool owns the lifetime, so it clears the entry
        whenever a connection is discarded or the pool closes.
        """
        key = id(connection)
        with self._lock:
            entry = self._meta.get(key)
            if entry is None:
                entry = self._meta[key] = {}
            return entry

    def acquire(self) -> sqlite3.Connection:
        """The calling thread's connection (leased on first use).

        Never blocks indefinitely: when all ``max_size`` connections are
        leased by live threads, the caller shares one (counted under
        ``db.pool.shared_grants``).
        """
        if self._closed:
            raise PoolClosedError(f"connection pool for {self.path!r} is closed")
        cached = getattr(self._local, "connection", None)
        if cached is not None:
            return cached
        self.registry.counter("db.pool.checkouts").inc()
        if self.memory:
            self._local.connection = self._shared
            return self._shared
        with self._lock:
            connection = self._checkout_locked()
            self._update_gauges()
        self._local.connection = connection
        return connection

    def _checkout_locked(self) -> sqlite3.Connection:
        connection = self._take_idle_or_create()
        if connection is None:
            # Every connection is leased by a live thread.  Wait briefly
            # for thread churn, then degrade to sharing.
            self.registry.counter("db.pool.waits").inc()
            self._lock.wait(self._share_after)
            connection = self._take_idle_or_create()
        if connection is None:
            self.registry.counter("db.pool.shared_grants").inc()
            leased = list(self._leases.values())
            self._share_cursor = (self._share_cursor + 1) % len(leased)
            return leased[self._share_cursor]
        self._leases[threading.current_thread()] = connection
        return connection

    def _take_idle_or_create(self) -> sqlite3.Connection | None:
        if self._idle:
            return self._idle.pop()
        if self._created < self.max_size:
            return self._new_connection()
        self._reclaim_dead_leases()
        if self._idle:
            return self._idle.pop()
        return None

    def _sanitize_locked(
        self, connection: sqlite3.Connection
    ) -> sqlite3.Connection | None:
        """Make a returning lease safe to hand to the next thread.

        A thread can die (or release) with a transaction still open —
        an exception between ``BEGIN`` and ``COMMIT`` that nobody rolled
        back.  Handing that connection out as-is silently grafts the
        next thread's statements onto the abandoned transaction.  Roll
        the leftovers back; a connection that cannot be cleaned is
        closed and forgotten rather than pooled.  Call with the pool
        lock held.
        """
        try:
            if connection.in_transaction:
                self.registry.counter("db.pool.dirty_releases").inc()
                connection.rollback()
            return connection
        except sqlite3.Error:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
            if connection in self._all:
                self._all.remove(connection)
            self._meta.pop(id(connection), None)
            self._created -= 1
            self.registry.counter("db.pool.discarded").inc()
            return None

    def _reclaim_dead_leases(self) -> None:
        dead = [t for t in self._leases if not t.is_alive()]
        for thread in dead:
            connection = self._sanitize_locked(self._leases.pop(thread))
            if connection is not None:
                self._idle.append(connection)
        if dead:
            self._lock.notify_all()

    def release(self) -> None:
        """Return the calling thread's leased connection to the pool.

        Optional: leases are reclaimed automatically when threads finish;
        long-lived worker threads can release explicitly between tasks.
        Shared (fallback) grants and the in-memory connection are no-ops.
        An open transaction on the lease is rolled back before the
        connection is pooled again (see :meth:`_sanitize_locked`).
        """
        cached = getattr(self._local, "connection", None)
        if cached is None or self.memory:
            return
        self._local.connection = None
        with self._lock:
            current = threading.current_thread()
            if self._leases.get(current) is cached:
                del self._leases[current]
                connection = self._sanitize_locked(cached)
                if connection is not None:
                    self._idle.append(connection)
                self._lock.notify_all()
                self._update_gauges()

    def close(self) -> None:
        """Close every connection the pool ever opened."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections, self._all = self._all, []
            self._idle.clear()
            self._leases.clear()
            self._meta.clear()
            self._created = 0
            self._update_gauges()
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def size(self) -> int:
        """Number of currently open connections."""
        return self._created

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
