"""Hierarchical tracing spans (the observability layer's "where did the
time go" half).

A :class:`Span` measures one named unit of work with monotonic timing,
arbitrary tags and child spans; a :class:`Tracer` maintains the active
span stack (per thread / async context, via ``contextvars``) and collects
finished root spans for rendering or JSONL export.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  The process-wide default tracer
   starts disabled; instrumented hot paths pay one attribute check and a
   no-op context manager per call, nothing else.  Benchmarks therefore
   measure the uninstrumented cost (see ``bench_fig5_generateview``).
2. **Hierarchy for free.**  ``with tracer.span("pipeline.parse")`` nests
   under whatever span is currently active in this context, so the
   pipeline's parse → import → dedup stages appear as a tree under one
   ``integrate_file`` root without any plumbing.
3. **Metrics feedback.**  When tracing is enabled every finished span also
   observes its duration into a latency histogram ``span.<name>`` of the
   default :class:`~repro.obs.metrics.MetricsRegistry`, which is how
   ``POST /query/explain`` reports observed stage timings.

Usage::

    from repro.obs import get_tracer, traced

    @traced("operator.compose")
    def compose(...): ...

    tracer = get_tracer()
    tracer.enable()
    with tracer.span("pipeline.integrate_file", source="GO"):
        ...
    print(tracer.render_tree())
    tracer.export_jsonl("trace.jsonl")
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
import uuid
from collections.abc import Callable, Iterator
from pathlib import Path


class Span:
    """One timed unit of work in the span tree."""

    __slots__ = (
        "name",
        "tags",
        "span_id",
        "started_at",
        "duration",
        "status",
        "error",
        "children",
        "_t0",
    )

    def __init__(self, name: str, tags: dict | None = None) -> None:
        self.name = name
        self.tags: dict = dict(tags) if tags else {}
        self.span_id = uuid.uuid4().hex[:16]
        #: Wall-clock start (epoch seconds) — for export only; durations
        #: come from the monotonic clock.
        self.started_at = time.time()
        self.duration = 0.0
        self.status = "ok"
        self.error: str | None = None
        self.children: list[Span] = []
        self._t0 = time.perf_counter()

    def tag(self, **tags: object) -> "Span":
        """Attach tags to a live span (e.g. result sizes known at the end)."""
        self.tags.update(tags)
        return self

    def finish(self, exc: BaseException | None = None) -> None:
        """Stop the clock; record error state when an exception escaped."""
        self.duration = time.perf_counter() - self._t0
        if exc is not None:
            self.status = "error"
            self.error = f"{type(exc).__name__}: {exc}"

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Yield ``(depth, span)`` pairs, pre-order."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> dict:
        """Nested dict form (used by the JSON API)."""
        payload = {
            "name": self.name,
            "duration_ms": round(self.duration * 1000, 3),
            "status": self.status,
        }
        if self.tags:
            payload["tags"] = dict(self.tags)
        if self.error:
            payload["error"] = self.error
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1000:.2f}ms)"


class _NullSpan:
    """The do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def tag(self, **tags: object) -> "_NullSpan":
        return self


class _NullSpanContext:
    """Context manager counterpart of :class:`_NullSpan` (a singleton)."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Context manager that opens a span under the tracer's active span."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, tags: dict | None) -> None:
        self._tracer = tracer
        self._span = Span(name, tags)
        self._token: contextvars.Token | None = None

    def __enter__(self) -> Span:
        self._token = self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._span.finish(exc)
        self._tracer._pop(self._span, self._token)
        return None


class Tracer:
    """Collects span trees; safe to share across threads.

    The active-span stack lives in a ``contextvars.ContextVar`` so
    concurrent threads (and async tasks) build independent trees; only the
    finished-roots list is shared, guarded by a lock.
    """

    def __init__(
        self,
        enabled: bool = False,
        max_finished: int = 1000,
        registry=None,
    ) -> None:
        self.enabled = enabled
        #: Cap on retained root spans — a long-lived server must not leak.
        self.max_finished = max_finished
        #: The :class:`~repro.obs.metrics.MetricsRegistry` span durations
        #: are observed into; ``None`` means the process default.
        self.registry = registry
        self._finished: list[Span] = []
        self._lock = threading.Lock()
        self._active: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
            "repro_obs_active_span", default=None
        )

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> "Tracer":
        """Turn tracing on (instrumented code starts producing spans)."""
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        """Turn tracing off; already-collected spans are kept."""
        self.enabled = False
        return self

    def clear(self) -> None:
        """Drop all finished spans."""
        with self._lock:
            self._finished.clear()

    # -- span creation -----------------------------------------------------

    def span(self, name: str, **tags: object):
        """Open a span as a context manager; no-op while disabled."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, name, tags or None)

    def record(self, name: str, duration: float, **tags: object) -> None:
        """Add a finished span timed elsewhere (e.g. in a worker process)
        under the active span; no-op while disabled."""
        if not self.enabled:
            return
        span = Span(name, tags or None)
        span.duration = duration
        span.started_at -= duration
        self._pop(span, self._push(span))

    def current_span(self) -> Span | None:
        """The innermost live span of this context, if any."""
        return self._active.get()

    # -- internals ---------------------------------------------------------

    def _push(self, span: Span) -> contextvars.Token:
        parent = self._active.get()
        if parent is not None:
            parent.children.append(span)
        return self._active.set(span)

    def _pop(self, span: Span, token: contextvars.Token | None) -> None:
        if token is not None:
            self._active.reset(token)
        if self._active.get() is None:
            with self._lock:
                self._finished.append(span)
                if len(self._finished) > self.max_finished:
                    del self._finished[: -self.max_finished]
        self._observe_duration(span)

    def _observe_duration(self, span: Span) -> None:
        """Feed the span's latency into the tracer's metrics registry."""
        registry = self.registry
        if registry is None:
            from repro.obs.metrics import get_registry

            registry = get_registry()
        registry.histogram(f"span.{span.name}").observe(span.duration)

    # -- results -----------------------------------------------------------

    @property
    def finished(self) -> list[Span]:
        """Snapshot of the finished root spans, oldest first."""
        with self._lock:
            return list(self._finished)

    def last_root(self) -> Span | None:
        """The most recently finished root span, if any."""
        with self._lock:
            return self._finished[-1] if self._finished else None

    def render_tree(self, roots: list[Span] | None = None) -> str:
        """Human-readable span tree with per-span durations and tags."""
        roots = self.finished if roots is None else roots
        if not roots:
            return "(no spans recorded)"
        lines = []
        for root in roots:
            for depth, span in root.walk():
                tags = (
                    "  " + " ".join(f"{k}={v}" for k, v in sorted(span.tags.items()))
                    if span.tags
                    else ""
                )
                marker = "" if span.status == "ok" else f"  !{span.error}"
                lines.append(
                    f"{'  ' * depth}{span.name:<{max(1, 44 - 2 * depth)}}"
                    f"{span.duration * 1000:>10.2f} ms{tags}{marker}"
                )
        return "\n".join(lines)

    def export_jsonl(self, path: str | Path) -> int:
        """Write one JSON object per span (flattened tree); returns count."""
        path = Path(path)
        written = 0
        with path.open("w", encoding="utf-8") as handle:
            for root in self.finished:
                trace_id = root.span_id
                parents: dict[str, str | None] = {root.span_id: None}
                for __, span in root.walk():
                    for child in span.children:
                        parents[child.span_id] = span.span_id
                    record = {
                        "trace_id": trace_id,
                        "span_id": span.span_id,
                        "parent_id": parents.get(span.span_id),
                        "name": span.name,
                        "started_at": span.started_at,
                        "duration_s": span.duration,
                        "status": span.status,
                        "tags": span.tags,
                    }
                    if span.error:
                        record["error"] = span.error
                    handle.write(json.dumps(record) + "\n")
                    written += 1
        return written


#: The process-wide default tracer; disabled until someone opts in.
_DEFAULT_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide default tracer used by all instrumentation."""
    return _DEFAULT_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-wide default tracer; returns the previous one.

    Instrumented code resolves the default tracer at call time, so tests
    can install an isolated tracer (usually with its own registry) and
    restore the previous one afterwards.
    """
    global _DEFAULT_TRACER
    previous = _DEFAULT_TRACER
    _DEFAULT_TRACER = tracer
    return previous


def traced(name: str | None = None, tracer: Tracer | None = None, **tags: object):
    """Decorator instrumenting a function with a span.

    With the default tracer disabled the wrapper costs one attribute check
    per call.  ``name`` defaults to ``<module>.<qualname>`` of the wrapped
    function; static ``tags`` are attached to every span.
    """

    def decorate(func: Callable) -> Callable:
        span_name = name or f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            active = tracer if tracer is not None else _DEFAULT_TRACER
            if not active.enabled:
                return func(*args, **kwargs)
            with active.span(span_name, **tags):
                return func(*args, **kwargs)

        wrapper.__wrapped__ = func
        return wrapper

    return decorate
