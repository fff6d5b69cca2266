"""Tests for the WSGI JSON API (repro.web)."""

import io
import json

import pytest

from repro.web.app import create_app


def call(app, method, path, query="", body=None):
    """Invoke a WSGI app directly; returns (status_code, decoded_json)."""
    raw = json.dumps(body).encode() if body is not None else b""
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(raw)),
        "wsgi.input": io.BytesIO(raw),
    }
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])
        captured["headers"] = dict(headers)

    chunks = app(environ, start_response)
    payload = json.loads(b"".join(chunks).decode("utf-8"))
    return captured["status"], payload


@pytest.fixture()
def app(paper_genmapper):
    return create_app(paper_genmapper)


class TestSourcesEndpoints:
    def test_list_sources(self, app):
        status, payload = call(app, "GET", "/sources")
        assert status == 200
        names = {source["name"] for source in payload["sources"]}
        assert {"LocusLink", "GO", "Unigene"} <= names

    def test_source_detail_includes_coverage(self, app):
        status, payload = call(app, "GET", "/sources/LocusLink")
        assert status == 200
        assert payload["objects"] == 1
        targets = {entry["target"] for entry in payload["coverage"]}
        assert "GO" in targets

    def test_unknown_source_is_400(self, app):
        status, payload = call(app, "GET", "/sources/Nope")
        assert status == 400
        assert "unknown source" in payload["error"]

    def test_objects_pagination(self, app):
        status, payload = call(
            app, "GET", "/sources/GO/objects", query="limit=2&offset=1"
        )
        assert status == 200
        assert payload["total"] == 3
        assert len(payload["objects"]) == 2


class TestObjectEndpoint:
    def test_object_info(self, app):
        status, payload = call(app, "GET", "/objects/LocusLink/353")
        assert status == 200
        partners = {a["partner"] for a in payload["annotations"]}
        assert {"Hugo", "GO", "OMIM"} <= partners

    def test_unknown_object_is_400(self, app):
        status, payload = call(app, "GET", "/objects/LocusLink/999")
        assert status == 400
        assert "unknown object" in payload["error"]


class TestMapAndPaths:
    def test_map_stored(self, app):
        status, payload = call(
            app, "GET", "/map", query="source=LocusLink&target=GO"
        )
        assert status == 200
        assert payload["rel_type"] == "Fact"
        assert ["353", "GO:0009116", 1.0] in payload["associations"]

    def test_map_composes_automatically(self, app):
        status, payload = call(
            app, "GET", "/map", query="source=Unigene&target=GO"
        )
        assert status == 200
        assert payload["rel_type"] == "Composed"

    def test_missing_parameter_is_400(self, app):
        status, payload = call(app, "GET", "/map", query="source=GO")
        assert status == 400
        assert "target" in payload["error"]

    def test_paths(self, app):
        status, payload = call(
            app, "GET", "/paths", query="source=Unigene&target=GO&k=2"
        )
        assert status == 200
        assert ["Unigene", "LocusLink", "GO"] in payload["paths"]


class TestQueryEndpoints:
    def test_query_with_language_body(self, app):
        status, payload = call(
            app, "POST", "/query",
            body={"query": "ANNOTATE LocusLink WITH Hugo AND GO"},
        )
        assert status == 200
        assert payload["columns"] == ["LocusLink", "Hugo", "GO"]
        assert ["353", "APRT", "GO:0009116"] in payload["rows"]

    def test_query_with_structured_body(self, app):
        status, payload = call(
            app, "POST", "/query",
            body={
                "source": "LocusLink",
                "accessions": ["353"],
                "targets": [
                    {"name": "GO"},
                    {"name": "OMIM", "negated": True},
                ],
                "combine": "AND",
            },
        )
        assert status == 200
        assert payload["row_count"] == 0  # 353 has an OMIM annotation

    def test_explain_endpoint(self, app):
        status, payload = call(
            app, "POST", "/query/explain",
            body={"query": "ANNOTATE Unigene WITH GO"},
        )
        assert status == 200
        assert payload["executable"] is True
        assert payload["targets"][0]["kind"] == "composed"
        assert payload["targets"][0]["path"] == ["Unigene", "LocusLink", "GO"]

    def test_empty_body_is_400(self, app):
        status, payload = call(app, "POST", "/query")
        assert status == 400
        assert "body" in payload["error"]

    def test_invalid_json_is_400(self, app, paper_genmapper):
        raw = b"{not json"
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/query",
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
        }
        captured = {}
        app_ = create_app(paper_genmapper)
        chunks = app_(environ, lambda s, h: captured.setdefault("status", s))
        assert captured["status"].startswith("400")
        assert b"invalid JSON" in b"".join(chunks)

    def test_malformed_spec_is_400(self, app):
        status, payload = call(
            app, "POST", "/query", body={"source": "LocusLink"}
        )
        assert status == 400
        assert "malformed" in payload["error"]

    @pytest.mark.parametrize(
        ("field", "change"),
        [
            ("accessions", {"accessions": [1, "353"]}),
            ("source", {"source": ["LocusLink"]}),
            ("combine", {"combine": "XOR"}),
            ("accessions", {"accessions": "353"}),
            ("negated", {"targets": [{"name": "GO", "negated": "no"}]}),
            ("via", {"targets": [{"name": "GO", "via": "Unigene"}]}),
        ],
        ids=[
            "non-string-accession",
            "list-source",
            "unknown-combine",
            "string-accessions",
            "string-negated",
            "string-via",
        ],
    )
    def test_mistyped_spec_field_is_400_naming_it(self, app, field, change):
        body = {
            "source": "LocusLink",
            "accessions": ["353"],
            "targets": [{"name": "GO"}],
            **change,
        }
        status, payload = call(app, "POST", "/query", body=body)
        assert status == 400, payload
        assert field in payload["error"]

    def test_bad_query_language_is_400(self, app):
        status, payload = call(
            app, "POST", "/query", body={"query": "SELECT * FROM genes"}
        )
        assert status == 400

    def test_non_object_json_bodies_are_400_not_500(self, app):
        # Valid JSON that isn't an object used to crash field access (500).
        for body in (["ANNOTATE LocusLink WITH GO"], "just a string", 42):
            status, payload = call(app, "POST", "/query", body=body)
            assert status == 400, f"body {body!r} gave {status}"
            assert "JSON object" in payload["error"]

    def test_non_object_body_on_explain_is_400(self, app):
        status, payload = call(app, "POST", "/query/explain", body=[1, 2])
        assert status == 400
        assert "JSON object" in payload["error"]

    def test_non_string_query_field_is_400(self, app):
        for bad in (["ANNOTATE"], {"q": 1}, 7):
            status, payload = call(
                app, "POST", "/query", body={"query": bad}
            )
            assert status == 400
            assert "must be a string" in payload["error"]


@pytest.fixture()
def cached_app():
    """The paper app with the cache force-enabled so these tests hold
    under the CI ``REPRO_CACHE=off`` guard run."""
    from repro.core.genmapper import GenMapper
    from tests.conftest import GO_MINI_OBO, LOCUS_353_RECORD, UNIGENE_MINI

    with GenMapper(enable_cache=True) as gm:
        gm.integrate_text(LOCUS_353_RECORD, "LocusLink")
        gm.integrate_text(GO_MINI_OBO, "GO")
        gm.integrate_text(UNIGENE_MINI, "Unigene")
        yield create_app(gm)


class TestCacheSurface:
    def test_metrics_includes_cache_block(self, cached_app):
        status, payload = call(cached_app, "GET", "/metrics")
        assert status == 200
        cache = payload["cache"]
        for field in ("hits", "misses", "evictions", "invalidations",
                      "entries", "hit_ratio", "generation"):
            assert field in cache

    def test_metrics_cache_is_null_when_disabled(self):
        from repro.core.genmapper import GenMapper

        with GenMapper(enable_cache=False) as gm:
            status, payload = call(create_app(gm), "GET", "/metrics")
        assert status == 200
        assert payload["cache"] is None

    def test_explain_reports_cache_status(self, cached_app):
        body = {"query": "ANNOTATE LocusLink WITH GO"}
        status, payload = call(cached_app, "POST", "/query/explain", body=body)
        assert status == 200
        cache = payload["cache"]
        assert cache["enabled"] is True
        assert cache["targets"] == [{
            "target": "GO",
            "cached": False,
            "dependencies": None,
            "required_generation": None,
        }]
        assert cache["generation_vector"]["floor"] >= 0
        # Running the query warms the mapping; the loader's capture makes
        # the entry's dependencies known.
        status, __ = call(cached_app, "POST", "/query", body=body)
        assert status == 200
        __, payload = call(cached_app, "POST", "/query/explain", body=body)
        cache = payload["cache"]
        (target,) = cache["targets"]
        assert target["target"] == "GO"
        assert target["cached"] is True
        assert target["dependencies"] == ["GO", "LocusLink"]
        assert target["required_generation"] == max(
            cache["generation_vector"]["sources"].get(name, 0)
            for name in ("GO", "LocusLink")
        )
        assert "view_cached" not in cache
        assert cache["stats"]["entries"] == 1

    def test_explain_cache_block_when_disabled(self):
        from repro.core.genmapper import GenMapper
        from tests.conftest import GO_MINI_OBO, LOCUS_353_RECORD

        with GenMapper(enable_cache=False) as gm:
            gm.integrate_text(LOCUS_353_RECORD, "LocusLink")
            gm.integrate_text(GO_MINI_OBO, "GO")
            status, payload = call(
                create_app(gm), "POST", "/query/explain",
                body={"query": "ANNOTATE LocusLink WITH GO"},
            )
        assert status == 200
        assert payload["cache"] == {"enabled": False}

    def test_explain_probe_matches_via_paths(self, cached_app):
        body = {
            "source": "Unigene",
            "targets": [{"name": "GO", "via": ["LocusLink"]}],
            "combine": "OR",
        }
        __, payload = call(cached_app, "POST", "/query/explain", body=body)
        (target,) = payload["cache"]["targets"]
        assert (target["target"], target["cached"]) == ("GO", False)
        call(cached_app, "POST", "/query", body=body)
        __, payload = call(cached_app, "POST", "/query/explain", body=body)
        (target,) = payload["cache"]["targets"]
        assert (target["target"], target["cached"]) == ("GO", True)
        # The composed path records every source the chain touched,
        # including the via intermediate.
        assert target["dependencies"] == ["GO", "LocusLink", "Unigene"]


class TestStatsAndErrors:
    def test_stats(self, app):
        status, payload = call(app, "GET", "/stats")
        assert status == 200
        assert payload["sources"] > 0
        assert payload["associations"] > 0

    def test_unknown_route_is_404(self, app):
        status, payload = call(app, "GET", "/nope")
        assert status == 404

    def test_unknown_method_is_405(self, app):
        status, __ = call(app, "DELETE", "/sources")
        assert status == 405

    def test_unhandled_error_returns_json_500(self, app, monkeypatch):
        import repro.web.app as web_app

        def explode(genmapper, environ, registry, tracer):
            raise RuntimeError("route exploded")

        monkeypatch.setattr(web_app, "_route", explode)
        status, payload = call(app, "GET", "/stats")
        assert status == 500
        assert "internal server error" in payload["error"]
        assert "route exploded" in payload["error"]

    def test_content_type_json(self, paper_genmapper):
        app_ = create_app(paper_genmapper)
        captured = {}

        def start_response(status, headers):
            captured["headers"] = dict(headers)

        environ = {
            "REQUEST_METHOD": "GET",
            "PATH_INFO": "/stats",
            "QUERY_STRING": "",
            "wsgi.input": io.BytesIO(b""),
        }
        list(app_(environ, start_response))
        assert captured["headers"]["Content-Type"].startswith(
            "application/json"
        )
