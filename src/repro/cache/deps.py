"""Dependency capture for scoped cache invalidation.

Cache keys are frozen tuples (``(kind, source, target, variant)``) and
cannot name every source a loader actually read: an auto-routed ``map``
call caches under ``(source, target)`` while its loader walks hidden
intermediate sources.  So dependencies are discovered *at load time*
instead: the read-through cache opens a capture frame around the
loader, and the few chokepoints that read mapping data off the database
(:meth:`repro.gam.repository.GamRepository.fetch_mapping_associations`,
:func:`repro.operators.compose.resolve_hop_rel`,
:func:`repro.derived.subsumed.load_taxonomy`) call
:func:`record_dependency` with the source names they touched.

Frames stack per-thread, and a recorded dependency lands in **every**
active frame, so a nested cached load (Subsumed -> inner taxonomy)
propagates its dependencies outward whether the inner lookup hits or
misses.  With no frame active, :func:`record_dependency` is a cheap
no-op — the hot read path outside the cache pays one attribute lookup.

The captured set becomes the entry's dependency list in
:class:`repro.cache.MappingCache`, which validates the entry against the
max per-source generation of exactly those sources
(:meth:`repro.gam.database.GamDatabase.generation_of`) — the other half
of the scoped-invalidation protocol (``docs/performance.md``).
"""

from __future__ import annotations

import contextlib
import threading
from collections.abc import Iterator

_capture_local = threading.local()


@contextlib.contextmanager
def capture_dependencies() -> Iterator[set[str]]:
    """Open a capture frame; yields the (mutable) dependency set."""
    frames = getattr(_capture_local, "frames", None)
    if frames is None:
        frames = _capture_local.frames = []
    frame: set[str] = set()
    frames.append(frame)
    try:
        yield frame
    finally:
        frames.pop()


def record_dependency(*source_names: str) -> None:
    """Record source names into every active capture frame (no-op when
    nothing on this thread is capturing)."""
    frames = getattr(_capture_local, "frames", None)
    if not frames:
        return
    for frame in frames:
        frame.update(source_names)


def capturing() -> bool:
    """True when at least one capture frame is active on this thread."""
    return bool(getattr(_capture_local, "frames", None))
