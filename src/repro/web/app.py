"""A JSON HTTP API over GenMapper (the paper's "interactive access").

The original system exposed a Java web GUI at izbi.de; this reproduction
exposes the same capabilities as a small WSGI application built on the
standard library, serving JSON:

====================================  =========================================
Endpoint                              Returns
====================================  =========================================
``GET /sources``                      the imported sources
``GET /sources/<name>``               one source + object count + coverage
``GET /sources/<name>/objects``       accessions, paginated: keyset
                                      (``after=`` cursor, index-seek) or
                                      ``limit``/``offset``; ``limit=0``
                                      streams the whole source
``GET /objects/<source>/<accession>`` object info (Figure 1 / 6c)
``GET /map?source=S&target=T``        the mapping S ↔ T (auto-Compose);
                                      repeated ``via=`` parameters pin the
                                      full composition path, in order
``GET /paths?source=S&target=T&k=3``  alternative mapping paths
``POST /query``                       run a query; body is either
                                      ``{"query": "ANNOTATE ..."}`` or a
                                      structured spec (source/targets/...)
``POST /query/explain``               the query plan, without executing;
                                      includes a ``cache`` block (per-stage
                                      cache status) and observed stage
                                      timings when tracing is enabled
``GET /stats``                        deployment statistics (Section 5)
``GET /metrics``                      content-negotiated: JSON snapshot
                                      (default, plus ``cache``/``slo``
                                      blocks), Prometheus text 0.0.4
                                      (``Accept: text/plain``), or
                                      OpenMetrics with exemplars
                                      (``Accept: application/openmetrics-
                                      text``); ``?format=json|prometheus|
                                      openmetrics`` overrides
``GET /slo``                          rolling availability/latency SLO
                                      windows with burn rates
``GET /debug/slow``                   the slow-query log ring buffer
``GET /debug/profile?seconds=5``      sampling-profiler folded stacks of
                                      the live process (plain text)
``GET /health``                       liveness probe (status + source count)
====================================  =========================================

The serving tier is built for heavy read traffic (``docs/http_api.md``):

* **Conditional GET** — every data ``GET`` response carries a strong
  ``ETag`` keyed on the database's monotonic data generation; a request
  presenting it via ``If-None-Match`` is answered ``304 Not Modified``
  without touching the repository, so clients and fronting caches
  revalidate for free until the next write.
* **Streaming** — large bodies (``/map``, ``/query``, object listings)
  are sent in bounded chunks as they are encoded; smaller ones are
  joined into one body with a ``Content-Length``.  Both modes use the
  same encoder, so their bytes are identical; ``?stream=1``/``?stream=0``
  overrides the row-count threshold.
* **Rate limiting** — an optional per-client token bucket sheds floods
  with ``429`` + ``Retry-After``; while the repository circuit breaker
  is not closed, each request costs extra tokens so the edge
  backpressures before the breaker melts (``docs/reliability.md``).

Every response carries an ``X-Request-ID`` header (honouring the one a
client sends); error payloads repeat it as ``request_id`` so client
reports correlate with wide events and the slow-query log.  Every
request is measured into the metrics registry — and, when a sink is
configured, emitted as one wide event — by
:class:`repro.obs.ObservabilityMiddleware`; see ``docs/observability.md``.

Use :func:`create_app` to get the WSGI callable and serve it with any WSGI
server (``python -m repro.web`` runs the threaded ``wsgiref`` server);
tests drive the callable directly without sockets.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import reprlib
from collections.abc import Callable, Iterable
from urllib.parse import parse_qs

from repro.cache import MappingCache
from repro.core.genmapper import GenMapper
from repro.gam.enums import CombineMethod
from repro.gam.errors import GenMapperError
from repro.obs import (
    OPENMETRICS_CONTENT_TYPE,
    TEXT_CONTENT_TYPE,
    MetricsRegistry,
    ObservabilityMiddleware,
    Tracer,
    annotate_event,
    current_event,
    get_event_log,
    get_slo_tracker,
    get_slow_log,
    profile_for,
    render_openmetrics,
    render_text,
)
from repro.obs import get_registry as _default_registry
from repro.obs import get_tracer as _default_tracer
from repro.obs.middleware import _UNSET
from repro.query.language import parse_query
from repro.query.plan import plan_query
from repro.query.session import run_query, spec_digest_of
from repro.query.spec import QuerySpec, QueryTarget
from repro.reliability.breaker import CLOSED, CircuitOpenError, capture_degraded
from repro.reliability.deadline import (
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from repro.reliability.ratelimit import RateLimiter, limiter_from_env
from repro.reliability.retry import RetryBudgetExceeded
from repro.web.streaming import StreamJson

StartResponse = Callable[[str, list[tuple[str, str]]], None]

_STATUS = {
    200: "200 OK",
    304: "304 Not Modified",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
}

#: JSON content type of every non-raw response.
_JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Route heads whose GET responses are generation-keyed (ETag-cacheable):
#: their bodies are pure functions of the database state, so one data
#: generation = one representation.  The observability surface
#: (/metrics, /slo, /debug/*, /health) changes on every request and is
#: never conditional.
_CACHEABLE_HEADS = frozenset({"sources", "objects", "map", "paths", "stats"})

#: Route heads exempt from rate limiting: liveness probes and metric
#: scrapers must keep working while clients are being shed.
_RATE_EXEMPT_HEADS = frozenset({"health", "metrics"})

#: Row-count threshold above which responses stream by default
#: (``REPRO_STREAM_THRESHOLD`` / ``create_app(stream_threshold=)``).
DEFAULT_STREAM_THRESHOLD = 1000

logger = logging.getLogger("repro.web")


class ApiError(Exception):
    """An error with an HTTP status, rendered as a JSON body.

    ``headers`` are appended to the response (e.g. ``Retry-After`` on a
    429 admission rejection).
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: Iterable[tuple[str, str]] = (),
    ) -> None:
        super().__init__(message)
        self.status = status
        self.headers = list(headers)


class RawResponse:
    """An encoded response body: Prometheus text, folded profiles, or a
    buffered :class:`StreamJson` body."""

    __slots__ = ("body", "content_type")

    def __init__(self, body: str | bytes, content_type: str) -> None:
        self.body = body.encode("utf-8") if isinstance(body, str) else body
        self.content_type = content_type


def stream_threshold_from_env(default: int = DEFAULT_STREAM_THRESHOLD) -> int:
    """The default streaming row threshold (``REPRO_STREAM_THRESHOLD``)."""
    raw = os.environ.get("REPRO_STREAM_THRESHOLD")
    if raw is None or not raw.strip():
        return default
    try:
        return max(0, int(raw))
    except ValueError:
        return default


def create_app(
    genmapper: GenMapper,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    request_timeout: float | None = None,
    event_log=_UNSET,
    slow_log=_UNSET,
    slo=_UNSET,
    rate_limit: float | None = None,
    rate_burst: float | None = None,
    rate_limiter: RateLimiter | None = None,
    stream_threshold: int | None = None,
) -> Callable:
    """Build the WSGI application bound to one GenMapper instance.

    The returned callable is wrapped in
    :class:`~repro.obs.ObservabilityMiddleware`, so every request gets a
    request ID and is measured into ``registry`` (the process default
    unless one is passed — tests inject private instances).
    ``event_log``, ``slow_log`` and ``slo`` likewise default to the
    process-wide instances (configured via ``REPRO_EVENTS`` /
    ``REPRO_SLOW_MS`` / ``REPRO_SLO_*``); pass explicit instances — or
    ``None`` to disable — for isolation.

    ``request_timeout`` bounds every request to a time budget (seconds);
    a request may tighten — never extend — it with an
    ``X-Request-Timeout`` header.  A request that overruns is shed with
    ``503`` and a ``Retry-After`` header instead of pinning its worker
    thread (``docs/reliability.md``).  Responses served from stale cache
    entries while the repository is unavailable carry ``degraded: true``.

    ``rate_limit`` (requests/second per client, burst ceiling
    ``rate_burst``) installs a token-bucket admission check answering
    floods with ``429`` + ``Retry-After``; ``rate_limiter`` injects a
    pre-built :class:`~repro.reliability.ratelimit.RateLimiter` instead
    (tests pass one with a fake clock).  Unset, ``REPRO_RATE_LIMIT`` /
    ``REPRO_RATE_BURST`` decide; the default is no limiting.

    ``stream_threshold`` is the row count at or above which streamable
    responses are chunk-encoded by default (``REPRO_STREAM_THRESHOLD``,
    default 1000); ``?stream=1|0`` overrides per request.
    """
    if rate_limiter is None:
        if rate_limit is not None:
            rate_limiter = RateLimiter(
                rate_limit, burst=rate_burst, registry=registry
            )
        else:
            rate_limiter = limiter_from_env(registry)
    if stream_threshold is None:
        stream_threshold = stream_threshold_from_env()

    def app(environ: dict, start_response: StartResponse) -> Iterable[bytes]:
        extra_headers: list[tuple[str, str]] = []
        degraded = {"degraded": False, "reasons": ()}
        edge_registry = registry if registry is not None else _default_registry()
        method = environ.get("REQUEST_METHOD", "GET").upper()
        etag: str | None = None
        try:
            environ["repro.middleware"] = middleware
            _edge_admit(rate_limiter, genmapper, environ)
            if method == "GET":
                etag = _conditional_etag(genmapper, environ)
            if etag is not None and _if_none_match_matches(environ, etag):
                # Client revalidation hit: the representation the client
                # holds is still current at this data generation — answer
                # without touching the repository at all.
                edge_registry.counter("edge.not_modified").inc()
                annotate_event(not_modified=True, etag=etag)
                status, payload = 304, None
            else:
                # Nested scopes keep the tighter deadline, so the header
                # can only shrink the server-configured budget.
                with capture_degraded() as degraded, deadline_scope(
                    request_timeout
                ), deadline_scope(_header_timeout(environ)):
                    status, payload = _route(genmapper, environ, registry, tracer)
                    _annotate_outcome(genmapper)
                if degraded["degraded"]:
                    target = (
                        payload.payload
                        if isinstance(payload, StreamJson)
                        else payload if isinstance(payload, dict) else None
                    )
                    if target is not None:
                        target["degraded"] = True
                        target["degraded_reasons"] = list(degraded["reasons"])
                if isinstance(payload, StreamJson) and not _should_stream(
                    environ, payload, stream_threshold
                ):
                    # Buffered: the streamed encoder's bytes, one
                    # Content-Length body.
                    payload = RawResponse(
                        b"".join(payload.encode()), _JSON_CONTENT_TYPE
                    )
        except ApiError as exc:
            status, payload = exc.status, {"error": str(exc)}
            extra_headers.extend(exc.headers)
        except (DeadlineExceeded, CircuitOpenError, RetryBudgetExceeded) as exc:
            # Overload/unavailability: shed the request, tell the client
            # when to come back.  Checked before GenMapperError — the
            # first two subclass it but are 503s, not client errors.
            retry_after = getattr(exc, "retry_after", 1.0)
            status, payload = 503, {"error": str(exc)}
            extra_headers.append(
                ("Retry-After", str(max(1, round(retry_after))))
            )
        except GenMapperError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:
            # A handler bug must still produce a JSON error response, not
            # kill the request thread with an opaque server traceback.
            logger.exception(
                "unhandled error serving %s %s",
                method,
                environ.get("PATH_INFO", "/"),
            )
            status, payload = 500, {"error": f"internal server error: {exc}"}
        if status >= 400 and isinstance(payload, dict):
            # Error payloads repeat the request id (and any degraded
            # reasons) so client-side reports correlate with wide events.
            payload.setdefault(
                "request_id", environ.get("repro.request_id")
            )
            if degraded["degraded"]:
                payload.setdefault("degraded", True)
                payload.setdefault(
                    "degraded_reasons", list(degraded["reasons"])
                )
        if etag is not None and status in (200, 304):
            # no-cache = "revalidate before reuse": fronting caches may
            # store the body but must re-present the ETag, which is free
            # (304) until the data generation moves.
            extra_headers.append(("ETag", etag))
            extra_headers.append(("Cache-Control", "no-cache"))
        if status == 304:
            start_response(_STATUS[304], extra_headers)
            return [b""]
        if isinstance(payload, StreamJson):
            # Chunked serialization: no Content-Length (the server closes
            # or chunk-frames the connection), O(chunk) memory.
            edge_registry.counter("edge.streamed_responses").inc()
            annotate_event(streamed=True)
            start_response(
                _STATUS.get(status, f"{status} Error"),
                [("Content-Type", _JSON_CONTENT_TYPE), *extra_headers],
            )
            return payload.encode()
        if isinstance(payload, RawResponse):
            body = payload.body
            content_type = payload.content_type
        else:
            body = json.dumps(payload, indent=2).encode("utf-8")
            content_type = _JSON_CONTENT_TYPE
        start_response(
            _STATUS.get(status, f"{status} Error"),
            [
                ("Content-Type", content_type),
                ("Content-Length", str(len(body))),
                *extra_headers,
            ],
        )
        return [body]

    middleware = ObservabilityMiddleware(
        app,
        registry=registry,
        tracer=tracer,
        event_log=event_log,
        slow_log=slow_log,
        slo=slo,
    )
    return middleware


# -- edge admission / revalidation -----------------------------------------


def _client_key(environ: dict) -> str:
    """The rate-limiting identity of a request's sender.

    The first ``X-Forwarded-For`` hop when present (the client as seen
    by a fronting proxy), else the socket peer address.
    """
    forwarded = environ.get("HTTP_X_FORWARDED_FOR")
    if forwarded:
        client = forwarded.split(",", 1)[0].strip()
        if client:
            return client
    return environ.get("REMOTE_ADDR") or "unknown"


def _edge_admit(
    limiter: RateLimiter | None, genmapper: GenMapper, environ: dict
) -> None:
    """Charge the caller's token bucket; raise 429 when it is empty.

    While the repository circuit breaker is not closed, each admission
    costs ``limiter.degraded_cost`` tokens instead of one — the edge
    sheds harder exactly when the storage layer needs the headroom.
    """
    if limiter is None:
        return
    path = environ.get("PATH_INFO", "/")
    head = next((s for s in path.split("/") if s), "")
    if head in _RATE_EXEMPT_HEADS:
        return
    cost = 1.0
    breaker = genmapper.breaker
    if breaker is not None and breaker.state != CLOSED:
        cost = limiter.degraded_cost
    client = _client_key(environ)
    decision = limiter.check(client, cost)
    if decision.allowed:
        return
    retry_after = max(1, math.ceil(decision.retry_after))
    annotate_event(
        rate_limited=True,
        rate_client=client,
        rate_cost=cost,
        rate_retry_after=retry_after,
    )
    raise ApiError(
        429,
        f"rate limit exceeded for {client!r}; retry in {retry_after}s",
        headers=[("Retry-After", str(retry_after))],
    )


def _conditional_etag(genmapper: GenMapper, environ: dict) -> str | None:
    """The strong ``ETag`` of a data GET, or None for non-cacheable routes.

    Keyed on the monotonic data generation plus the full request target:
    data responses are deterministic functions of (database state, URL),
    so the pair identifies the representation exactly.  Any write bumps
    the generation and every previously issued ETag stops matching.
    """
    path = environ.get("PATH_INFO", "/")
    head = next((s for s in path.split("/") if s), "")
    if head not in _CACHEABLE_HEADS:
        return None
    generation = genmapper.db.data_generation()
    target = f"{path}?{environ.get('QUERY_STRING', '')}"
    digest = hashlib.sha1(target.encode("utf-8")).hexdigest()[:12]
    return f'"g{generation}-{digest}"'


def _if_none_match_matches(environ: dict, etag: str) -> bool:
    """True when the request's ``If-None-Match`` covers ``etag``."""
    raw = environ.get("HTTP_IF_NONE_MATCH")
    if not raw:
        return False
    candidates = []
    for token in raw.split(","):
        token = token.strip()
        if token == "*":
            return True
        if token.startswith("W/"):
            token = token[2:]
        candidates.append(token)
    return etag in candidates


def _should_stream(
    environ: dict, payload: StreamJson, threshold: int
) -> bool:
    """Stream or buffer one streamable response.

    An explicit ``?stream=1|0`` wins; otherwise responses at or above
    ``threshold`` rows — and unbounded listings, whose size is unknown
    up front — stream.
    """
    query = parse_qs(environ.get("QUERY_STRING", ""))
    raw = (query.get("stream", [""])[0] or "").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        return True
    if raw in ("0", "false", "no", "off"):
        return False
    if raw:
        raise ApiError(400, f"invalid stream flag {raw!r} (use 1 or 0)")
    hint = payload.row_count_hint
    return hint is None or hint >= threshold


# -- request plumbing -------------------------------------------------------


def _annotate_outcome(genmapper: GenMapper) -> None:
    """Stamp reliability context onto the request's wide event (no-op
    when no event scope is active)."""
    if current_event() is None:
        return
    deadline = current_deadline()
    if deadline is not None:
        annotate_event(
            deadline_remaining_ms=round(deadline.remaining() * 1000, 1)
        )
    breaker = getattr(genmapper, "breaker", None)
    if breaker is not None:
        annotate_event(breaker_state=breaker.state)


def _header_timeout(environ: dict) -> float | None:
    """The ``X-Request-Timeout`` budget (seconds), or None.

    Invalid or non-positive values are rejected as a client error rather
    than silently ignored — a caller who asked for a bound should not
    run unbounded.
    """
    raw = environ.get("HTTP_X_REQUEST_TIMEOUT")
    if raw is None or not str(raw).strip():
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ApiError(400, f"invalid X-Request-Timeout: {raw!r}") from None
    if value <= 0:
        raise ApiError(400, "X-Request-Timeout must be positive")
    return value


def _metrics_format(environ: dict, query: dict) -> str:
    """Negotiate the ``/metrics`` representation.

    ``?format=`` wins; otherwise the ``Accept`` header decides.  The
    default stays JSON — the shape existing consumers (tests, scripts)
    rely on — while Prometheus scrapers, which advertise
    ``application/openmetrics-text`` and/or ``text/plain;version=0.0.4``,
    get the text formats.
    """
    fmt = (query.get("format", [""])[0] or "").strip().lower()
    if fmt == "json":
        return "json"
    if fmt == "openmetrics":
        return "openmetrics"
    if fmt in ("prometheus", "text"):
        return "text"
    if fmt:
        raise ApiError(400, f"unknown metrics format {fmt!r}")
    accept = environ.get("HTTP_ACCEPT", "") or ""
    if "application/openmetrics-text" in accept:
        return "openmetrics"
    if "application/json" in accept:
        return "json"
    if "text/plain" in accept:
        return "text"
    return "json"


def _route(
    genmapper: GenMapper,
    environ: dict,
    registry: MetricsRegistry | None,
    tracer: Tracer | None,
) -> tuple[int, object]:
    method = environ.get("REQUEST_METHOD", "GET").upper()
    path = environ.get("PATH_INFO", "/").rstrip("/") or "/"
    query = parse_qs(environ.get("QUERY_STRING", ""))
    segments = [segment for segment in path.split("/") if segment]
    registry = registry if registry is not None else _default_registry()
    tracer = tracer if tracer is not None else _default_tracer()
    middleware = environ.get("repro.middleware")

    if method == "GET":
        if segments == ["metrics"]:
            return _metrics_response(
                genmapper, environ, query, registry, middleware
            )
        if segments == ["slo"]:
            slo = middleware.slo if middleware is not None else get_slo_tracker()
            if slo is None:
                raise ApiError(404, "SLO tracking is disabled")
            return 200, slo.snapshot(publish=True, registry=registry)
        if segments == ["debug", "slow"]:
            slow = (
                middleware.slow_log if middleware is not None else get_slow_log()
            )
            if slow is None:
                raise ApiError(404, "the slow-query log is disabled")
            limit = _require_int(query, "limit", default=50, minimum=0)
            payload = slow.stats()
            payload["entries"] = slow.entries(limit)
            return 200, payload
        if segments == ["debug", "profile"]:
            seconds = _require_float(query, "seconds", default=5.0)
            seconds = min(30.0, max(0.05, seconds))
            hz = _require_float(query, "hz", default=0.0)
            profiler = profile_for(seconds, hz=hz if hz > 0 else None)
            return 200, RawResponse(
                profiler.folded(), "text/plain; charset=utf-8"
            )
        if segments == ["health"]:
            return 200, {
                "status": "ok",
                "sources": len(genmapper.sources()),
                "request_id": environ.get("repro.request_id"),
            }
        return _route_get(genmapper, segments, query)
    if method == "POST":
        return _route_post(genmapper, segments, environ, registry, tracer)
    raise ApiError(405, f"method {method} not allowed")


def _metrics_response(
    genmapper: GenMapper,
    environ: dict,
    query: dict,
    registry: MetricsRegistry,
    middleware: ObservabilityMiddleware | None,
) -> tuple[int, object]:
    fmt = _metrics_format(environ, query)
    slo = middleware.slo if middleware is not None else get_slo_tracker()
    if fmt in ("text", "openmetrics"):
        # Publish the SLO gauges into the scraped registry first so
        # slo.burn_rate & co. appear in the same exposition.
        if slo is not None:
            slo.snapshot(publish=True, registry=registry)
        if fmt == "openmetrics":
            return 200, RawResponse(
                render_openmetrics(registry), OPENMETRICS_CONTENT_TYPE
            )
        return 200, RawResponse(render_text(registry), TEXT_CONTENT_TYPE)
    payload = registry.snapshot()
    payload["cache"] = genmapper.cache_stats()
    if slo is not None:
        payload["slo"] = slo.snapshot(publish=False)
    event_log = (
        middleware.event_log if middleware is not None else get_event_log()
    )
    if event_log is not None:
        payload["events"] = event_log.stats()
    slow = middleware.slow_log if middleware is not None else get_slow_log()
    if slow is not None and slow.enabled:
        payload["slowlog"] = slow.stats()
    return 200, payload


# -- pagination cursors ------------------------------------------------------


def _parse_cursor(raw: str) -> tuple[int | None, str]:
    """Split an ``after=`` value into ``(generation, accession)``.

    Cursors minted by this API look like ``g<generation>:<accession>``;
    a bare accession (no recognizable prefix) is accepted as a raw
    keyset position with no generation claim.
    """
    if raw.startswith("g"):
        head, sep, accession = raw[1:].partition(":")
        if sep and head.isdigit():
            return int(head), accession
    return None, raw


def _objects_page(
    genmapper: GenMapper, source: str, query: dict
) -> tuple[int, object]:
    """``GET /sources/<name>/objects`` — keyset or offset pagination.

    ``after=`` seeks the ``(source_id, accession)`` index past a cursor
    (O(page) at any depth); ``offset=`` keeps the legacy skip-scan.
    ``limit=0`` streams the entire remainder with bounded memory.  The
    response's ``next`` cursor is stamped with the data generation; a
    cursor presented after a write still pages correctly (keyset
    positions cannot duplicate or skip surviving rows) but is flagged
    ``cursor_stale`` so snapshot-sensitive clients can restart.
    """
    limit = _require_int(query, "limit", default=100, minimum=0)
    offset = _require_int(query, "offset", default=0, minimum=0)
    after_raw = query.get("after", [None])[0]
    repository = genmapper.repository
    generation = genmapper.db.data_generation()
    total = repository.count_objects(source)

    payload: dict = {"source": source, "total": total}
    after_accession: str | None = None
    if after_raw:
        cursor_generation, after_accession = _parse_cursor(after_raw)
        payload["after"] = after_raw
        if cursor_generation is not None and cursor_generation != generation:
            payload["cursor_stale"] = True
    else:
        payload["offset"] = offset
    payload["limit"] = limit
    payload["generation"] = generation

    if limit == 0:
        # Unbounded tail: rows come straight off the index cursor in
        # batches (GamDatabase.execute_read_iter) — O(chunk) resident.
        objects = (
            {"accession": o.accession, "text": o.text}
            for o in repository.iter_objects_of(source, after=after_accession)
        )
        payload["objects"] = None
        payload["next"] = None
        return 200, StreamJson(payload, "objects", objects, row_count_hint=None)

    # Fetch one row past the page to learn whether a next page exists.
    page = repository.objects_page(
        source, limit + 1, after=after_accession, offset=offset
    )
    has_more = len(page) > limit
    page = page[:limit]
    payload["objects"] = None
    payload["next"] = (
        f"g{generation}:{page[-1].accession}" if has_more and page else None
    )
    rows = ({"accession": o.accession, "text": o.text} for o in page)
    return 200, StreamJson(payload, "objects", rows, row_count_hint=len(page))


def _route_get(
    genmapper: GenMapper, segments: list[str], query: dict
) -> tuple[int, object]:
    if segments == ["sources"]:
        return 200, {"sources": [_source_json(genmapper, s)
                                 for s in genmapper.sources()]}
    if len(segments) == 2 and segments[0] == "sources":
        source = genmapper.source(segments[1])
        payload = _source_json(genmapper, source)
        from repro.analysis.coverage import source_coverage

        payload["coverage"] = [
            {
                "target": entry.target,
                "rel_type": entry.rel_type,
                "coverage": round(entry.coverage, 4),
                "associations": entry.associations,
            }
            for entry in source_coverage(genmapper.repository, source)
        ]
        return 200, payload
    if len(segments) == 3 and segments[0] == "sources" and segments[2] == "objects":
        return _objects_page(genmapper, segments[1], query)
    if len(segments) == 3 and segments[0] == "objects":
        __, source, accession = segments
        info = genmapper.object_info(source, accession)
        return 200, {
            "source": source,
            "accession": accession,
            "annotations": [
                {
                    "partner": partner,
                    "rel_type": rel_type.value,
                    "accession": assoc.target_accession,
                    "evidence": assoc.evidence,
                }
                for partner, rel_type, assoc in info
            ],
        }
    if segments == ["map"]:
        source = _require_param(query, "source")
        target = _require_param(query, "target")
        # Every repeated via= parameter matters, in order: dropping all
        # but the first would silently compose a different path.
        via = [value for value in query.get("via", []) if value]
        mapping = genmapper.map(source, target, via=via or None)
        payload = {
            "source": mapping.source,
            "target": mapping.target,
            "rel_type": mapping.rel_type.value if mapping.rel_type else None,
            "via": via,
            "association_count": len(mapping),
            "associations": None,
        }
        rows = (
            [a.source_accession, a.target_accession, a.evidence]
            for a in mapping
        )
        return 200, StreamJson(
            payload, "associations", rows, row_count_hint=len(mapping)
        )
    if segments == ["paths"]:
        source = _require_param(query, "source")
        target = _require_param(query, "target")
        k = _require_int(query, "k", default=3, minimum=1)
        paths = genmapper.find_paths(source, target, k=k)
        return 200, {"paths": [list(path) for path in paths]}
    if segments == ["stats"]:
        return 200, genmapper.stats()
    raise ApiError(404, f"no such resource: /{'/'.join(segments)}")


def _plan_payload(genmapper: GenMapper, spec: QuerySpec) -> dict:
    """The ``/query/explain`` plan + cache block (shared with the
    slow-query log, which captures it for over-threshold requests)."""
    plan = plan_query(genmapper, spec)
    payload = {
        "source": plan.source,
        "combine": plan.combine,
        "executable": plan.executable,
        "targets": [
            {
                "target": target.target,
                "kind": target.kind,
                "path": list(target.path),
                "estimated_associations": target.estimated_associations,
                "negated": target.negated,
            }
            for target in plan.targets
        ],
    }
    payload["cache"] = _explain_cache(genmapper, spec)
    return payload


def _route_post(
    genmapper: GenMapper,
    segments: list[str],
    environ: dict,
    registry: MetricsRegistry,
    tracer: Tracer,
) -> tuple[int, object]:
    if segments not in (["query"], ["query", "explain"]):
        raise ApiError(404, f"no such resource: /{'/'.join(segments)}")
    spec = _parse_body_spec(environ)
    state = current_event()
    if state is not None:
        state.fields["spec_digest"] = spec_digest_of(spec)
        # Deferred plan capture: only requests that actually cross the
        # slow threshold pay for planning a second time.
        state.slow_capture = lambda: _plan_payload(genmapper, spec)
    if segments == ["query", "explain"]:
        payload = _plan_payload(genmapper, spec)
        if tracer.enabled:
            # Observed per-stage latency summaries (seconds) collected by
            # the span instrumentation since tracing was enabled — the
            # empirical counterpart of the estimates above.  Spans land in
            # the tracer's registry (the process default unless the tracer
            # was built with its own), so read them from there.
            stage_registry = (
                tracer.registry if tracer.registry is not None else registry
            )
            payload["observed_stage_timings"] = stage_registry.stage_timings()
        return 200, payload
    view = run_query(genmapper, spec)
    payload = {
        "columns": list(view.columns),
        "rows": None,
        "row_count": len(view),
    }
    return 200, StreamJson(payload, "rows", view.rows, row_count_hint=len(view))


def _explain_cache(genmapper: GenMapper, spec: QuerySpec) -> dict:
    """The explain response's cache block: per-target cache status
    against the *current* data generation, plus the cache's live
    counters.  Probing is side-effect free (no hit/miss accounting).
    """
    cache = genmapper.cache
    if cache is None:
        return {"enabled": False}
    label = "product"  # the default evidence combiner queries run with
    targets = []
    for target in spec.targets:
        if target.via:
            key = MappingCache.composed_key(
                (spec.source, *target.via, target.name), label
            )
        else:
            key = MappingCache.mapping_key(
                spec.source, target.name, f"auto#{label}"
            )
        deps = cache.dependencies(key)
        targets.append(
            {
                "target": target.name,
                "cached": cache.is_cached(key),
                # Scoped invalidation status: which sources this entry
                # validates against, and the generation it must reach.
                "dependencies": list(deps) if deps else None,
                "required_generation": (
                    genmapper.db.generation_of(deps) if deps else None
                ),
            }
        )
    vector = genmapper.db.generation_vector()
    return {
        "enabled": True,
        "targets": targets,
        "stats": cache.stats(),
        # Per-source generations behind scoped invalidation: writes to a
        # source invalidate only entries depending on it; the floor is
        # the last untagged (external/admin) write.
        "generation_vector": {
            "floor": vector["floor"],
            "sources": vector["sources"],
        },
    }


def _parse_body_spec(environ: dict) -> QuerySpec:
    try:
        length = int(environ.get("CONTENT_LENGTH") or 0)
    except ValueError:
        length = 0
    if length < 0:
        # read(-1) reads to EOF: the client's socket would hold this
        # worker thread until the client hung up.
        raise ApiError(400, f"invalid Content-Length: {length}")
    raw = environ["wsgi.input"].read(length) if length else b""
    if not raw:
        raise ApiError(400, "request body required")
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ApiError(400, f"invalid JSON body: {exc}") from exc
    # Valid JSON is not necessarily a valid body: a list/string/number
    # used to slip through to the field accesses below and surface as a
    # 500; a malformed request is the client's error, report it as one.
    if not isinstance(body, dict):
        raise ApiError(
            400,
            f"query body must be a JSON object, got {type(body).__name__}",
        )
    if "query" in body:
        if not isinstance(body["query"], str):
            raise ApiError(400, "the 'query' field must be a string")
        return parse_query(body["query"])
    source = _spec_name(body.get("source"), "source")
    targets = body.get("targets")
    if not isinstance(targets, list) or not all(
        isinstance(target, dict) for target in targets
    ):
        raise _spec_error("targets", "a list of objects", targets)
    accessions = _spec_strings(body.get("accessions"), "accessions")
    combine = body.get("combine", "AND")
    try:
        combine = CombineMethod.parse(combine)
    except ValueError:
        raise _spec_error("combine", "AND or OR", combine) from None
    return QuerySpec(
        source=source,
        accessions=None if accessions is None else frozenset(accessions),
        targets=tuple(_spec_target(target, k) for k, target in enumerate(targets)),
        combine=combine,
    )


def _spec_target(target: dict, k: int) -> QueryTarget:
    """``targets[k]`` of a structured query body, type-checked."""
    field = f"targets[{k}]"
    accessions = _spec_strings(target.get("accessions"), f"{field}.accessions")
    negated = target.get("negated", False)
    if not isinstance(negated, bool):
        raise _spec_error(f"{field}.negated", "true or false", negated)
    return QueryTarget(
        name=_spec_name(target.get("name"), f"{field}.name"),
        accessions=None if accessions is None else frozenset(accessions),
        negated=negated,
        via=tuple(_spec_strings(target.get("via"), f"{field}.via") or ()),
    )


def _spec_name(value: object, field: str) -> str:
    if not isinstance(value, str) or not value:
        raise _spec_error(field, "a non-empty string", value)
    return value


def _spec_strings(value: object, field: str) -> list[str] | None:
    """A JSON list of strings, or None for null or an absent field."""
    # One C-speed pass over the cell types: uploads carry 2,500 genes.
    if value is not None and (
        not isinstance(value, list) or set(map(type, value)) - {str}
    ):
        raise _spec_error(field, "a list of strings or null", value)
    return value


def _spec_error(field: str, expected: str, value: object) -> ApiError:
    return ApiError(
        400,
        f"malformed query spec: {field} must be {expected},"
        f" got {reprlib.repr(value)}",
    )


def _require_param(query: dict, name: str) -> str:
    values = query.get(name)
    if not values or not values[0]:
        raise ApiError(400, f"missing query parameter {name!r}")
    return values[0]


def _require_int(
    query: dict,
    name: str,
    default: int,
    minimum: int = 0,
    maximum: int | None = None,
) -> int:
    """An integer query parameter, defaulted and range-checked.

    Malformed or out-of-range values are the client's error (400), never
    a server traceback — and never silently reinterpreted: a negative
    ``offset`` used to slice from the *end* of the object list, returning
    a wrong page that still echoed the requested offset.
    """
    raw = query.get(name, [None])[0]
    if raw is None or not raw.strip():
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ApiError(
            400, f"query parameter {name!r} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise ApiError(400, f"query parameter {name!r} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ApiError(400, f"query parameter {name!r} must be <= {maximum}")
    return value


def _require_float(query: dict, name: str, default: float) -> float:
    """A float query parameter, defaulted; malformed values are 400s."""
    raw = query.get(name, [None])[0]
    if raw is None or not raw.strip():
        return default
    try:
        return float(raw)
    except ValueError:
        raise ApiError(
            400, f"query parameter {name!r} must be a number, got {raw!r}"
        ) from None


def _source_json(genmapper: GenMapper, source) -> dict:
    return {
        "name": source.name,
        "content": source.content.value,
        "structure": source.structure.value,
        "release": source.release,
        "objects": genmapper.repository.count_objects(source),
    }
