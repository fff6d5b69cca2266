"""Tests for the HTTP edge: keyset pagination, conditional GET,
streaming bodies and rate limiting (``docs/http_api.md``).

The WSGI callable is driven directly (no sockets).  ``loaded_genmapper``
(session-scoped, read-only here) provides a universe large enough for
multi-page walks; mutation tests build on the function-scoped
``paper_genmapper``.
"""

from __future__ import annotations

import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.reliability.ratelimit import RateLimiter
from repro.web import streaming
from repro.web.app import create_app
from repro.web.streaming import StreamJson, encode_chunks


def call(
    app, method, path, query="", body=None, headers=None, environ_overrides=None
):
    """Invoke a WSGI app; returns (status, headers dict, raw bytes).

    ``environ_overrides`` entries replace the ones built from the
    arguments.
    """
    raw = json.dumps(body).encode() if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "REMOTE_ADDR": "127.0.0.1",
        "wsgi.input": io.BytesIO(raw),
        **(environ_overrides or {}),
    }
    for name, value in (headers or {}).items():
        environ["HTTP_" + name.upper().replace("-", "_")] = value
    captured = {}

    def start_response(status, response_headers, exc_info=None):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(response_headers)

    chunks = app(environ, start_response)
    payload = b"".join(chunks)
    close = getattr(chunks, "close", None)
    if close is not None:
        close()
    return captured["status"], captured["headers"], payload


def get_json(app, path, query="", headers=None):
    status, response_headers, body = call(
        app, "GET", path, query=query, headers=headers
    )
    return status, response_headers, json.loads(body)


def make_app(genmapper, **kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    kwargs.setdefault("event_log", None)
    kwargs.setdefault("slow_log", None)
    kwargs.setdefault("slo", None)
    return create_app(genmapper, **kwargs)


@pytest.fixture()
def big_app(loaded_genmapper):
    return make_app(loaded_genmapper)


@pytest.fixture()
def small_app(paper_genmapper):
    return make_app(paper_genmapper)


class TestKeysetPagination:
    def test_keyset_walk_equals_offset_walk(self, loaded_genmapper, big_app):
        source = loaded_genmapper.sources()[0].name
        by_offset = []
        offset = 0
        while True:
            _, __, page = get_json(
                big_app,
                f"/sources/{source}/objects",
                f"limit=7&offset={offset}",
            )
            if not page["objects"]:
                break
            by_offset.extend(o["accession"] for o in page["objects"])
            offset += 7
        by_cursor = []
        cursor = None
        pages = 0
        while True:
            query = "limit=7" + (f"&after={cursor}" if cursor else "")
            _, __, page = get_json(
                big_app, f"/sources/{source}/objects", query
            )
            by_cursor.extend(o["accession"] for o in page["objects"])
            pages += 1
            cursor = page["next"]
            if cursor is None:
                break
        assert by_cursor == by_offset
        assert len(by_cursor) == page["total"]
        assert pages == -(-page["total"] // 7)

    def test_cursor_is_generation_stamped(self, loaded_genmapper, big_app):
        source = loaded_genmapper.sources()[0].name
        generation = loaded_genmapper.db.data_generation()
        _, __, page = get_json(big_app, f"/sources/{source}/objects", "limit=1")
        assert page["generation"] == generation
        assert page["next"].startswith(f"g{generation}:")
        assert "cursor_stale" not in page

    def test_stale_cursor_still_pages_but_is_flagged(self, paper_genmapper):
        app = make_app(paper_genmapper)
        _, __, first = get_json(app, "/sources/GO/objects", "limit=1")
        cursor = first["next"]
        paper_genmapper.db.bump_generation()
        _, __, page = get_json(
            app, "/sources/GO/objects", f"limit=1&after={cursor}"
        )
        assert page["cursor_stale"] is True
        assert page["after"] == cursor
        # Keyset semantics hold across the write: strictly past the cursor.
        previous = cursor.split(":", 1)[1]
        assert all(o["accession"] > previous for o in page["objects"])

    def test_bare_accession_cursor_is_accepted(self, big_app, loaded_genmapper):
        source = loaded_genmapper.sources()[0].name
        _, __, page = get_json(big_app, f"/sources/{source}/objects", "limit=2")
        boundary = page["objects"][-1]["accession"]
        _, __, resumed = get_json(
            big_app, f"/sources/{source}/objects", f"limit=2&after={boundary}"
        )
        assert "cursor_stale" not in resumed
        assert resumed["objects"][0]["accession"] > boundary

    def test_last_page_has_no_next(self, small_app):
        _, __, page = get_json(small_app, "/sources/GO/objects", "limit=100")
        assert len(page["objects"]) == page["total"] == 3
        assert page["next"] is None

    def test_limit_zero_streams_whole_source(self, big_app, loaded_genmapper):
        source = loaded_genmapper.sources()[0].name
        status, headers, body = call(
            big_app, "GET", f"/sources/{source}/objects", "limit=0"
        )
        payload = json.loads(body)
        assert status == 200
        assert "Content-Length" not in headers
        assert len(payload["objects"]) == payload["total"]
        assert payload["next"] is None


class TestRequestValidation:
    @pytest.mark.parametrize(
        ("path", "query"),
        [
            ("/sources/GO/objects", "limit=abc"),
            ("/sources/GO/objects", "offset=1.5"),
            ("/sources/GO/objects", "limit=-1"),
            ("/sources/GO/objects", "offset=-5"),
            ("/paths", "source=LocusLink&target=GO&k=zzz"),
            ("/paths", "source=LocusLink&target=GO&k=0"),
            ("/sources/GO/objects", "stream=maybe"),
        ],
    )
    def test_malformed_parameters_are_400_not_500(
        self, small_app, path, query
    ):
        status, headers, payload = get_json(small_app, path, query)
        assert status == 400
        assert payload["request_id"]
        assert payload["request_id"] == headers["X-Request-ID"]

    def test_negative_offset_never_slices_from_the_end(self, small_app):
        # offset=-5 used to be applied as a Python slice from the end.
        status, _, payload = get_json(
            small_app, "/sources/GO/objects", "limit=2&offset=-5"
        )
        assert status == 400
        assert "offset" in payload["error"]

    def test_defaults_survive_blank_values(self, small_app):
        status, _, payload = get_json(small_app, "/sources/GO/objects", "limit=")
        assert status == 200
        assert payload["limit"] == 100

    @pytest.mark.parametrize("path", ["/query", "/query/explain"])
    def test_negative_content_length_is_400_without_reading(
        self, small_app, path
    ):
        class SocketInput(io.BytesIO):
            """A request body that, like a socket, never reaches EOF."""

            def read(self, size=-1):
                if size is None or size < 0:
                    raise AssertionError(f"read({size}) blocks until hang-up")
                return super().read(size)

        body = b'{"query": "ANNOTATE LocusLink WITH GO"}'
        status, headers, raw = call(
            small_app,
            "POST",
            path,
            environ_overrides={
                "CONTENT_LENGTH": "-1",
                "wsgi.input": SocketInput(body),
            },
        )
        payload = json.loads(raw)
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert payload["request_id"] == headers["X-Request-ID"]


class TestMultiVia:
    def test_repeated_via_parameters_pin_the_full_path(self, small_app):
        # Unigene -> LocusLink -> GO spelled out hop by hop; both via
        # values must reach the composer (only the first used to).
        status, _, payload = get_json(
            small_app, "/map", "source=Unigene&target=GO&via=LocusLink"
        )
        assert status == 200
        assert payload["via"] == ["LocusLink"]
        direct = payload["associations"]
        status, _, payload = get_json(
            small_app,
            "/map",
            "source=Hugo&target=GO&via=LocusLink&via=LocusLink",
        )
        # A nonsensical repeated hop must be *attempted* (and fail),
        # not silently truncated to the first value.
        assert status == 400
        status, _, payload = get_json(
            small_app, "/map", "source=Hugo&target=GO&via=LocusLink"
        )
        assert status == 200
        assert payload["via"] == ["LocusLink"]
        assert direct  # sanity: the stored composition produced rows


class TestConditionalGet:
    def test_etag_roundtrip_yields_304(self, small_app):
        status, headers, body = call(small_app, "GET", "/sources/GO/objects")
        assert status == 200
        etag = headers["ETag"]
        assert headers["Cache-Control"] == "no-cache"
        status, headers, body = call(
            small_app,
            "GET",
            "/sources/GO/objects",
            headers={"If-None-Match": etag},
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag

    def test_etag_moves_with_the_data_generation(self, paper_genmapper):
        app = make_app(paper_genmapper)
        _, headers, _ = call(app, "GET", "/sources/GO/objects")
        etag = headers["ETag"]
        paper_genmapper.db.bump_generation()
        status, headers, _ = call(
            app, "GET", "/sources/GO/objects", headers={"If-None-Match": etag}
        )
        assert status == 200  # stale validator: full response again
        assert headers["ETag"] != etag

    def test_etag_varies_by_url(self, small_app):
        _, first, _ = call(small_app, "GET", "/sources/GO/objects", "limit=1")
        _, second, _ = call(small_app, "GET", "/sources/GO/objects", "limit=2")
        assert first["ETag"] != second["ETag"]

    def test_weak_and_list_validators_match(self, small_app):
        _, headers, _ = call(small_app, "GET", "/stats")
        etag = headers["ETag"]
        status, _, _ = call(
            small_app,
            "GET",
            "/stats",
            headers={"If-None-Match": f'"nope", W/{etag}'},
        )
        assert status == 304
        status, _, _ = call(
            small_app, "GET", "/stats", headers={"If-None-Match": "*"}
        )
        assert status == 304

    def test_observability_surface_is_never_conditional(self, small_app):
        for path in ("/metrics", "/health"):
            _, headers, _ = call(small_app, "GET", path)
            assert "ETag" not in headers

    def test_not_modified_is_counted(self, paper_genmapper):
        registry = MetricsRegistry()
        app = make_app(paper_genmapper, registry=registry)
        _, headers, _ = call(app, "GET", "/stats")
        call(app, "GET", "/stats", headers={"If-None-Match": headers["ETag"]})
        assert registry.counter("edge.not_modified").value == 1


class TestStreaming:
    def test_streamed_body_is_byte_identical_to_buffered(
        self, big_app, loaded_genmapper
    ):
        source = loaded_genmapper.sources()[0].name
        for path, query in (
            (f"/sources/{source}/objects", "limit=50"),
            ("/map", "source=LocusLink&target=GO"),
        ):
            _, buffered_headers, buffered = call(
                big_app, "GET", path, f"{query}&stream=0"
            )
            _, streamed_headers, streamed = call(
                big_app, "GET", path, f"{query}&stream=1"
            )
            assert streamed == buffered
            assert "Content-Length" in buffered_headers
            assert "Content-Length" not in streamed_headers

    def test_query_post_streams_byte_identically(self, big_app, loaded_genmapper):
        from repro.analysis.coverage import source_coverage

        source = loaded_genmapper.sources()[0].name
        targets = [
            entry.target
            for entry in source_coverage(
                loaded_genmapper.repository, loaded_genmapper.source(source)
            )
        ]
        body = {"source": source, "targets": [{"name": targets[0]}]}
        _, __, buffered = call(
            big_app, "POST", "/query", query="stream=0", body=body
        )
        _, __, streamed = call(
            big_app, "POST", "/query", query="stream=1", body=body
        )
        assert streamed == buffered
        assert json.loads(buffered)["row_count"] >= 1

    def test_threshold_decides_default_mode(self, loaded_genmapper):
        app = make_app(loaded_genmapper, stream_threshold=1)
        source = loaded_genmapper.sources()[0].name
        _, headers, _ = call(app, "GET", f"/sources/{source}/objects", "limit=5")
        assert "Content-Length" not in headers  # 5 rows >= threshold 1
        app = make_app(loaded_genmapper, stream_threshold=10_000)
        _, headers, _ = call(app, "GET", f"/sources/{source}/objects", "limit=5")
        assert "Content-Length" in headers

    def test_streamed_responses_are_counted(self, loaded_genmapper):
        registry = MetricsRegistry()
        app = make_app(loaded_genmapper, registry=registry, stream_threshold=1)
        source = loaded_genmapper.sources()[0].name
        call(app, "GET", f"/sources/{source}/objects", "limit=3")
        assert registry.counter("edge.streamed_responses").value == 1

    def test_metrics_finalize_after_streamed_body_is_consumed(
        self, loaded_genmapper
    ):
        registry = MetricsRegistry()
        app = make_app(loaded_genmapper, registry=registry, stream_threshold=1)
        source = loaded_genmapper.sources()[0].name
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": f"/sources/{source}/objects",
            "QUERY_STRING": "limit=3",
            "wsgi.input": io.BytesIO(b""),
        }
        body = app(environ, lambda status, headers, exc_info=None: None)
        counter = registry.counter(
            "http_requests_total",
            method="GET",
            route="/sources/{name}/objects",
            status="200",
        )
        assert counter.value == 0  # handler returned, body not yet written
        list(body)
        body.close()
        assert counter.value == 1
        assert registry.gauge("http_requests_in_flight").value == 0

    def test_abandoned_streamed_body_still_finalizes_once(
        self, loaded_genmapper
    ):
        registry = MetricsRegistry()
        app = make_app(loaded_genmapper, registry=registry, stream_threshold=1)
        source = loaded_genmapper.sources()[0].name
        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": f"/sources/{source}/objects",
            "QUERY_STRING": "limit=0",
            "wsgi.input": io.BytesIO(b""),
        }
        body = app(environ, lambda status, headers, exc_info=None: None)
        next(iter(body))  # client goes away after the first chunk
        body.close()
        body.close()  # idempotent
        assert registry.gauge("http_requests_in_flight").value == 0
        counter = registry.counter(
            "http_requests_total",
            method="GET",
            route="/sources/{name}/objects",
            status="200",
        )
        assert counter.value == 1


#: Strings json escapes: quotes, backslashes, control characters, the
#: JavaScript line separators and astral characters (surrogate pairs).
tricky_strings = st.sampled_from(
    ['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "\u2028\u2029", "\U0001f9ec"]
)
#: Floats whose text differs between spellings, and the non-finite ones.
tricky_floats = st.sampled_from(
    [0.1, 1e-7, 1e16, -0.0, math.nan, math.inf, -math.inf]
)
scalar_cells = st.one_of(
    st.text(max_size=6),
    tricky_strings,
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    tricky_floats,
)
stream_rows = st.one_of(
    st.lists(scalar_cells, max_size=4),
    st.tuples(scalar_cells, scalar_cells, scalar_cells),
    st.dictionaries(st.text(max_size=3), scalar_cells, max_size=3),
    st.lists(
        st.one_of(
            scalar_cells,
            st.lists(scalar_cells, max_size=2),
            st.dictionaries(st.text(max_size=2), scalar_cells, max_size=2),
        ),
        max_size=3,
    ),
)


class TestStreamJsonEncoder:
    @given(st.lists(stream_rows, max_size=6), st.integers(1, 64))
    @settings(max_examples=300, deadline=None)
    def test_rows_encode_byte_identically(self, rows, chunk_bytes):
        payload = {"source": "S", "rows": None, "total": len(rows)}
        streamed = StreamJson(dict(payload), "rows", iter(rows))
        body = b"".join(streamed.encode(chunk_bytes=chunk_bytes))
        assert body == json.dumps({**payload, "rows": rows}, indent=2).encode()

    @pytest.mark.parametrize(
        "row",
        [
            ("AFFX-1", "IPR000001", None),
            ["LL:1", "GO:0005515", 0.25],
            ["a", 1, True, False, math.nan],
        ],
    )
    def test_flat_rows_skip_json_dumps(self, monkeypatch, row):
        def refuse(value, level):
            raise AssertionError(f"{value!r} took the json.dumps path")

        monkeypatch.setattr(streaming, "_nested", refuse)
        body = b"".join(StreamJson({"rows": None}, "rows", [row]).encode())
        assert body == json.dumps({"rows": [row]}, indent=2).encode()

    def test_byte_identity_over_tricky_payloads(self):
        cases = [
            ({"rows": None}, "rows", []),
            ({"a": 1, "rows": None, "z": {"nested": [1, 2]}}, "rows", [[1, "x"]]),
            (
                {"rows": None, "note": "uniçøde\n"},
                "rows",
                [{"k": "v✓"}, {"k": None}],
            ),
        ]
        for payload, field, rows in cases:
            sj = StreamJson(dict(payload), field, iter(rows))
            streamed = b"".join(sj.encode(chunk_bytes=8))
            materialized = StreamJson(dict(payload), field, iter(rows)).materialize()
            assert streamed == json.dumps(materialized, indent=2).encode()

    def test_unknown_stream_field_is_rejected(self):
        with pytest.raises(ValueError):
            StreamJson({"a": 1}, "rows", [])

    def test_chunks_are_bounded_ish(self):
        parts = ["x" * 10] * 100
        chunks = list(encode_chunks(parts, chunk_bytes=64))
        assert b"".join(chunks) == b"x" * 1000
        assert all(len(chunk) <= 80 for chunk in chunks)
        assert len(chunks) > 5


class TestRateLimiting:
    def make_limited_app(self, genmapper, rate=1.0, burst=2.0, **kwargs):
        clock = {"now": 0.0}
        registry = kwargs.pop("registry", MetricsRegistry())
        limiter = RateLimiter(
            rate, burst=burst, clock=lambda: clock["now"], registry=registry
        )
        app = make_app(
            genmapper, registry=registry, rate_limiter=limiter, **kwargs
        )
        return app, clock, registry

    def test_burst_then_429_with_retry_after(self, paper_genmapper):
        app, clock, _ = self.make_limited_app(paper_genmapper)
        assert call(app, "GET", "/stats")[0] == 200
        assert call(app, "GET", "/stats")[0] == 200
        status, headers, body = call(app, "GET", "/stats")
        assert status == 429
        assert headers["Retry-After"] == "1"
        payload = json.loads(body)
        assert payload["request_id"]
        assert "rate limit" in payload["error"]

    def test_bucket_refills_with_time(self, paper_genmapper):
        app, clock, _ = self.make_limited_app(paper_genmapper)
        call(app, "GET", "/stats")
        call(app, "GET", "/stats")
        assert call(app, "GET", "/stats")[0] == 429
        clock["now"] += 1.0  # one token accrues
        assert call(app, "GET", "/stats")[0] == 200
        assert call(app, "GET", "/stats")[0] == 429

    def test_clients_are_isolated(self, paper_genmapper):
        app, clock, _ = self.make_limited_app(paper_genmapper)
        call(app, "GET", "/stats")
        call(app, "GET", "/stats")
        assert call(app, "GET", "/stats")[0] == 429
        status, _, _ = call(
            app, "GET", "/stats", headers={"X-Forwarded-For": "10.0.0.9, proxy"}
        )
        assert status == 200

    def test_health_and_metrics_are_exempt(self, paper_genmapper):
        app, clock, _ = self.make_limited_app(paper_genmapper)
        for _ in range(10):
            assert call(app, "GET", "/health")[0] == 200
            assert call(app, "GET", "/metrics")[0] == 200
        assert call(app, "GET", "/stats")[0] == 200  # bucket untouched

    def test_open_breaker_raises_the_cost(self, paper_genmapper):
        app, clock, _ = self.make_limited_app(paper_genmapper, rate=1.0, burst=8.0)
        breaker = paper_genmapper.breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.state != "closed"
        # burst 8 / degraded cost 4 = only two requests before shedding;
        # the breaker itself then answers 503 for what *is* admitted.
        statuses = [call(app, "GET", "/stats")[0] for _ in range(4)]
        assert statuses.count(429) >= 2

    def test_denied_requests_charge_nothing(self, paper_genmapper):
        app, clock, _ = self.make_limited_app(paper_genmapper)
        call(app, "GET", "/stats")
        call(app, "GET", "/stats")
        for _ in range(25):  # hammering while limited must not push
            call(app, "GET", "/stats")  # Retry-After further out
        clock["now"] += 1.0
        assert call(app, "GET", "/stats")[0] == 200

    def test_decisions_are_counted(self, paper_genmapper):
        app, clock, registry = self.make_limited_app(paper_genmapper)
        call(app, "GET", "/stats")
        call(app, "GET", "/stats")
        call(app, "GET", "/stats")
        assert registry.counter("edge.rate_allowed").value == 2
        assert registry.counter("edge.rate_limited").value == 1


class TestRateLimiterUnit:
    def test_retry_after_is_exact(self):
        clock = {"now": 0.0}
        limiter = RateLimiter(
            2.0, burst=1.0, clock=lambda: clock["now"], registry=MetricsRegistry()
        )
        assert limiter.check("c").allowed
        denied = limiter.check("c")
        assert not denied.allowed
        assert denied.retry_after == pytest.approx(0.5)

    def test_client_state_is_bounded(self):
        limiter = RateLimiter(
            1.0, burst=1.0, max_clients=4, registry=MetricsRegistry()
        )
        for index in range(10):
            limiter.check(f"client-{index}")
        stats = limiter.stats()
        assert stats["clients"] == 4
        assert stats["evicted_clients"] == 6

    def test_env_construction(self, monkeypatch):
        from repro.reliability.ratelimit import limiter_from_env

        monkeypatch.delenv("REPRO_RATE_LIMIT", raising=False)
        assert limiter_from_env(MetricsRegistry()) is None
        monkeypatch.setenv("REPRO_RATE_LIMIT", "12.5")
        monkeypatch.setenv("REPRO_RATE_BURST", "40")
        limiter = limiter_from_env(MetricsRegistry())
        assert limiter.rate == 12.5
        assert limiter.burst == 40.0
        monkeypatch.setenv("REPRO_RATE_LIMIT", "not-a-number")
        assert limiter_from_env(MetricsRegistry()) is None
