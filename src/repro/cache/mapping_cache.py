"""The read-through mapping cache (policy half of the acceleration layer).

GenMapper's interactive workload (paper Section 5.1) re-reads the same
few mappings over and over: every ``Map``, ``Compose`` and
``GenerateView`` call loads its legs row-by-row from the database.  The
:class:`MappingCache` keeps the loaded value objects — ``Mapping``
instances, parsed ``Taxonomy`` DAGs and composed path results — in a
bounded, thread-safe LRU keyed on ``(kind, source, target, variant)``.
Annotation views are not cached: each is joined per request over the
cached mappings.

Correctness rests on **generation-based invalidation**: every entry is
stamped with the owning database's monotonic data generation
(:meth:`repro.gam.database.GamDatabase.data_generation`).  Any write —
import, materialization, association add, even a commit by another
process, detected through SQLite's ``PRAGMA data_version`` — moves the
generation forward, so the next lookup sees a stale stamp and reloads.
No caller ever has to flush anything.

Invalidation is **scoped** wherever possible: each entry remembers the
set of sources its loader actually read (captured through
:mod:`repro.cache.deps`), and freshness is judged against the max
per-source generation of only those sources
(:meth:`repro.gam.database.GamDatabase.generation_of`).  Re-importing
one source therefore leaves warm entries for untouched source pairs
intact; only writes that cannot be attributed (raw SQL outside a
:meth:`~repro.gam.database.GamDatabase.write_scope`, external-process
commits) fall back to invalidating everything via the global floor.
Scoped invalidations are counted under ``cache.scoped_invalidations``.

Hits, misses, evictions and invalidations are mirrored into the
observability registry (``cache.hit`` / ``cache.miss`` /
``cache.eviction`` / ``cache.invalidation`` counters plus the
``cache.hit_ratio``, ``cache.entries`` and ``cache.bytes`` gauges), so
``GET /metrics`` reports cache effectiveness live.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable, Sequence
from typing import NamedTuple

from repro.cache.deps import capture_dependencies, record_dependency
from repro.cache.lru import GenerationalLru
from repro.gam.database import GamDatabase
from repro.obs import MetricsRegistry, get_registry
from repro.obs.events import incr_event

#: Default maximum number of cached values.
DEFAULT_MAX_ENTRIES = 256

#: Default approximate byte budget (64 MiB).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Environment switch: ``REPRO_CACHE=off|0|false|no`` disables the cache
#: everywhere a :func:`cache_enabled_by_env` caller consults it.
CACHE_ENV_VAR = "REPRO_CACHE"

#: Environment override for the entry bound (``REPRO_CACHE_SIZE=512``).
CACHE_SIZE_ENV_VAR = "REPRO_CACHE_SIZE"

#: Rough per-association footprint: one Association object (three slots),
#: two accession strings, dict/tuple overhead amortized.
_ASSOCIATION_BYTES = 160

#: Rough per-taxonomy-edge footprint (parents + children sets).
_EDGE_BYTES = 200


def cache_enabled_by_env(default: bool = True) -> bool:
    """Whether the environment allows caching (``REPRO_CACHE``)."""
    raw = os.environ.get(CACHE_ENV_VAR)
    if raw is None:
        return default
    return raw.strip().lower() not in ("off", "0", "false", "no", "disabled")


def cache_size_from_env(default: int = DEFAULT_MAX_ENTRIES) -> int:
    """The entry bound, honouring ``REPRO_CACHE_SIZE``."""
    raw = os.environ.get(CACHE_SIZE_ENV_VAR)
    if raw is None:
        return default
    try:
        return max(1, int(raw))
    except ValueError:
        return default


def estimate_size(value: object) -> int:
    """Approximate in-memory size of a cacheable value, in bytes.

    Only steers LRU eviction; a constant-per-row model is plenty.
    """
    associations = getattr(value, "associations", None)
    if associations is not None:  # Mapping
        return 96 + _ASSOCIATION_BYTES * len(associations)
    if hasattr(value, "subsumed_pairs"):  # Taxonomy
        return 96 + _EDGE_BYTES * len(value)
    return 256


def spec_digest(*parts: object) -> str:
    """A stable short digest of arbitrary key parts.

    Collections must be pre-sorted by the caller; the digest is over the
    ``repr`` of the parts, which is deterministic for the plain-data
    values used in keys (strings, ints, bools, tuples, None).
    """
    payload = "\x1f".join(repr(part) for part in parts)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


class _Loaded(NamedTuple):
    """A cached value and the source names its loader read.

    Stored as the LRU entry, so the dependency record lives and dies
    with its entry however many distinct keys pass through the cache.
    """

    value: object
    deps: frozenset[str]


class MappingCache:
    """Generation-aware read-through cache bound to one GAM database.

    Parameters
    ----------
    db:
        The database whose data generation stamps and invalidates entries.
    max_entries / max_bytes:
        LRU bounds (see :class:`repro.cache.lru.GenerationalLru`).
    registry:
        Metrics registry for the ``cache.*`` series (process default when
        omitted).
    """

    def __init__(
        self,
        db: GamDatabase,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int | None = DEFAULT_MAX_BYTES,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.db = db
        self._lru = GenerationalLru(
            max_entries=max_entries,
            max_bytes=max_bytes,
            size_of=lambda loaded: estimate_size(loaded.value),
        )
        self._registry = registry
        # Metrics are deltas against the last published LRU counters so
        # shared registries (the process default) stay monotonic.
        self._published = {"hit": 0, "miss": 0, "eviction": 0, "invalidation": 0}
        self._scoped_invalidations = 0

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_registry()

    # -- key construction --------------------------------------------------

    @staticmethod
    def mapping_key(source: str, target: str, variant: str = "") -> tuple:
        return ("mapping", str(source), str(target), variant)

    @staticmethod
    def composed_key(path: Sequence[str], combiner: str) -> tuple:
        steps = tuple(str(step) for step in path)
        return ("composed", steps[0], steps[-1],
                "->".join(steps) + "#" + combiner)

    @staticmethod
    def taxonomy_key(source: str) -> tuple:
        return ("taxonomy", str(source), str(source), "")

    # -- core read-through -------------------------------------------------

    def get_or_load(self, key: tuple, loader: Callable[[], object]) -> object:
        """Read-through lookup at the database's current generation."""
        value, __ = self.lookup(key, loader)
        return value

    def lookup(
        self, key: tuple, loader: Callable[[], object]
    ) -> tuple[object, bool]:
        """Like :meth:`get_or_load` but also reports ``was_hit``.

        Freshness is scoped when the key's dependency sources are known
        (from the resident entry's load): the entry must be at least as
        new as the max generation of *those sources only*, so writes
        tagged to other sources leave it warm.  A first load (dependencies
        unknown, also after an eviction) validates against the global
        generation, and the loader runs inside a capture frame so its
        dependencies are known from then on.  Loads with an empty capture
        (a loader reading nothing attributable) stay on global validation
        — always safe.
        """
        generation = self.db.data_generation()
        deps = self._resident_deps(key)
        if deps:
            required = self.db.generation_of(deps)
            stamp = self._lru.peek_generation(key)
            if stamp is not None and stamp < required:
                # The imminent reload is caused by a dependency source
                # moving past the stamp — a *scoped* invalidation (a
                # floor-raising write would be indistinguishable from a
                # global one, so only count when the floor alone would
                # have kept the entry fresh).
                if stamp >= self.db.generation_of(()):
                    self._scoped_invalidations += 1
                    self.registry.counter("cache.scoped_invalidations").inc()
        else:
            required = generation

        def scoped_loader() -> _Loaded:
            with capture_dependencies() as captured:
                value = loader()
            return _Loaded(value, frozenset(captured))

        loaded, was_hit = self._lru.get_or_load(key, required, scoped_loader)
        if was_hit and loaded.deps:
            # Propagate this entry's dependencies to any outer capture
            # (a cached Subsumed mapping built over the cached taxonomy
            # must inherit its sources even when the inner lookup hits).
            record_dependency(*loaded.deps)
        incr_event("cache_hits" if was_hit else "cache_misses")
        self._publish_metrics()
        return loaded.value, was_hit

    def _resident_deps(self, key: tuple) -> frozenset[str]:
        """The resident entry's dependency sources (empty when none)."""
        loaded, found = self._lru.stale_value(key)
        return loaded.deps if found else frozenset()

    def get_stale(self, key: tuple) -> tuple[object | None, bool]:
        """``(value, found)`` ignoring freshness — degraded-mode serving.

        When the database is unavailable (circuit open, retries
        exhausted), yesterday's mapping is usually better than a 500;
        stale entries stay resident until successfully reloaded exactly
        so this read has something to return.  Counted under
        ``cache.stale_serves``.
        """
        loaded, found = self._lru.stale_value(key)
        if not found:
            return None, False
        self.registry.counter("cache.stale_serves").inc()
        incr_event("cache_stale_serves")
        return loaded.value, True

    def is_cached(self, key: tuple) -> bool:
        """True when ``key`` would hit right now (explain support; does
        not touch hit/miss counters or recency)."""
        generation = self.db.data_generation()
        deps = self._resident_deps(key)
        required = self.db.generation_of(deps) if deps else generation
        return self._lru.peek(key, required)

    def dependencies(self, key: tuple) -> tuple[str, ...]:
        """Sorted source names the key's loader last read (explain
        support; empty when the key is not resident)."""
        return tuple(sorted(self._resident_deps(key)))

    def invalidate_all(self) -> int:
        """Drop everything (admin/testing aid; normal invalidation is
        generation-driven and needs no manual flush)."""
        dropped = self._lru.clear()
        self._publish_metrics()
        return dropped

    # -- metrics / stats ---------------------------------------------------

    def _publish_metrics(self) -> None:
        stats = self._lru.stats()
        current = {
            "hit": stats.hits,
            "miss": stats.misses,
            "eviction": stats.evictions,
            "invalidation": stats.invalidations,
        }
        registry = self.registry
        for name, value in current.items():
            delta = value - self._published[name]
            if delta > 0:
                registry.counter(f"cache.{name}").inc(delta)
                self._published[name] = value
        registry.gauge("cache.hit_ratio").set(round(stats.hit_ratio, 4))
        registry.gauge("cache.entries").set(stats.entries)
        registry.gauge("cache.bytes").set(stats.bytes)

    def stats(self) -> dict:
        """Plain-data stats block (``GET /metrics``, CLI, tests)."""
        payload = self._lru.stats().as_dict()
        payload["max_entries"] = self._lru.max_entries
        payload["max_bytes"] = self._lru.max_bytes
        payload["generation"] = self.db.data_generation()
        vector = self.db.generation_vector()
        payload["generation_floor"] = vector["floor"]
        payload["scoped_sources"] = len(vector["sources"])
        payload["scoped_invalidations"] = self._scoped_invalidations
        return payload

    def __len__(self) -> int:
        return len(self._lru)
