"""Tests for the observability subsystem: spans, metrics, middleware."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_tracer,
    route_template,
    set_tracer,
    traced,
)
from repro.obs.metrics import Histogram, _label_key


@pytest.fixture()
def tracer():
    """An enabled tracer feeding an isolated registry."""
    return Tracer(enabled=True, registry=MetricsRegistry())


class TestSpanNesting:
    def test_children_nest_under_active_span(self, tracer):
        with tracer.span("parent") as parent:
            with tracer.span("child.a"):
                pass
            with tracer.span("child.b") as child_b:
                with tracer.span("grandchild"):
                    pass
        roots = tracer.finished
        assert [root.name for root in roots] == ["parent"]
        assert [child.name for child in parent.children] == ["child.a", "child.b"]
        assert [child.name for child in child_b.children] == ["grandchild"]

    def test_walk_is_preorder_with_depths(self, tracer):
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        (root,) = tracer.finished
        assert [(d, s.name) for d, s in root.walk()] == [(0, "a"), (1, "b"), (2, "c")]

    def test_sequential_roots_do_not_nest(self, tracer):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.finished] == ["first", "second"]

    def test_durations_are_monotonic(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                sum(range(1000))
        assert outer.duration >= inner.duration >= 0.0

    def test_tags_from_call_and_tag_method(self, tracer):
        with tracer.span("op", source="GO") as span:
            span.tag(rows=42)
        assert span.tags == {"source": "GO", "rows": 42}

    def test_threads_build_independent_trees(self, tracer):
        def work(name):
            with tracer.span(name):
                with tracer.span(f"{name}.child"):
                    pass

        threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(4)]
        with tracer.span("main"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        roots = {root.name for root in tracer.finished}
        # Threads start fresh contexts, so their spans are roots, not
        # children of "main".
        assert roots == {"main", "t0", "t1", "t2", "t3"}
        main = next(r for r in tracer.finished if r.name == "main")
        assert main.children == []

    def test_max_finished_caps_retention(self):
        tracer = Tracer(enabled=True, max_finished=3, registry=MetricsRegistry())
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert [root.name for root in tracer.finished] == ["s7", "s8", "s9"]


class TestSpanExceptions:
    def test_exception_marks_error_and_reraises(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("failing"):
                raise ValueError("boom")
        (root,) = tracer.finished
        assert root.status == "error"
        assert root.error == "ValueError: boom"
        assert root.duration > 0.0

    def test_parent_survives_child_exception(self, tracer):
        with tracer.span("parent") as parent:
            with pytest.raises(KeyError):
                with tracer.span("child"):
                    raise KeyError("gone")
            with tracer.span("sibling"):
                pass
        assert parent.status == "ok"
        assert [c.name for c in parent.children] == ["child", "sibling"]
        assert parent.children[0].status == "error"


class TestDisabledTracer:
    def test_disabled_span_records_nothing(self):
        tracer = Tracer(enabled=False, registry=MetricsRegistry())
        with tracer.span("ignored", key="value") as span:
            span.tag(more="tags")
        assert tracer.finished == []

    def test_traced_decorator_passthrough_when_disabled(self):
        tracer = Tracer(enabled=False, registry=MetricsRegistry())

        @traced("custom.name", tracer=tracer)
        def add(a, b):
            return a + b

        assert add(2, 3) == 5
        assert tracer.finished == []

    def test_traced_decorator_records_when_enabled(self, tracer):
        @traced("custom.name", tracer=tracer, kind="test")
        def add(a, b):
            return a + b

        assert add(2, 3) == 5
        (root,) = tracer.finished
        assert root.name == "custom.name"
        assert root.tags == {"kind": "test"}

    def test_traced_default_name_from_function(self, tracer):
        @traced(tracer=tracer)
        def my_function():
            return None

        my_function()
        (root,) = tracer.finished
        assert root.name.endswith("my_function")

    def test_set_tracer_swaps_process_default(self):
        replacement = Tracer(enabled=True, registry=MetricsRegistry())
        previous = set_tracer(replacement)
        try:
            assert get_tracer() is replacement
        finally:
            set_tracer(previous)
        assert get_tracer() is previous


class TestSpanMetricsFeedback:
    def test_finished_spans_observe_into_registry(self, tracer):
        with tracer.span("stage.one"):
            with tracer.span("stage.two"):
                pass
        timings = tracer.registry.stage_timings()
        assert set(timings) == {"stage.one", "stage.two"}
        assert timings["stage.one"]["count"] == 1

    def test_recorded_span_nests_and_observes_its_duration(self, tracer):
        with tracer.span("parent") as parent:
            tracer.record("worker.parse", 0.25, rows=7)
        (child,) = parent.children
        assert (child.name, child.duration, child.tags) == (
            "worker.parse", 0.25, {"rows": 7}
        )
        tracer.record("lone", 0.5)
        assert [root.name for root in tracer.finished] == ["parent", "lone"]
        timings = tracer.registry.stage_timings()
        assert timings["worker.parse"]["count"] == 1
        Tracer(enabled=False).record("ignored", 1.0)

    def test_export_jsonl_roundtrip(self, tracer, tmp_path):
        with tracer.span("root", source="GO"):
            with tracer.span("leaf"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        records = [json.loads(line) for line in path.read_text().splitlines()]
        by_name = {record["name"]: record for record in records}
        assert by_name["root"]["parent_id"] is None
        assert by_name["leaf"]["parent_id"] == by_name["root"]["span_id"]
        assert by_name["root"]["trace_id"] == by_name["leaf"]["trace_id"]
        assert by_name["root"]["tags"] == {"source": "GO"}

    def test_render_tree_lists_all_spans(self, tracer):
        with tracer.span("outer", n=3):
            with tracer.span("inner"):
                pass
        rendered = tracer.render_tree()
        assert "outer" in rendered and "inner" in rendered and "n=3" in rendered
        assert tracer.render_tree([]) == "(no spans recorded)"


class TestHistogram:
    def test_percentiles_from_uniform_values(self):
        histogram = Histogram(buckets=(1.0, 2.0, 3.0, 4.0, 5.0))
        for value in range(1, 101):  # 0.05, 0.10, ... 5.0
            histogram.observe(value / 20)
        # Exact percentiles of the sample: p50 = 2.5, p95 = 4.75.
        assert histogram.percentile(0.50) == pytest.approx(2.5, abs=0.25)
        assert histogram.percentile(0.95) == pytest.approx(4.75, abs=0.25)
        assert histogram.percentile(0.99) <= 5.0

    def test_overflow_bucket_capped_by_observed_max(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(50.0)
        histogram.observe(60.0)
        assert histogram.percentile(0.99) <= 60.0
        summary = histogram.summary()
        assert summary["max"] == 60.0
        assert summary["count"] == 2

    def test_summary_of_empty_histogram(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p95"] is None

    def test_summary_statistics(self):
        histogram = Histogram(buckets=(10.0,))
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0

    def test_invalid_buckets_and_quantiles_raise(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram().percentile(0.0)


class TestMetricsRegistry:
    def test_counters_are_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        assert registry.snapshot()["counters"]["hits"] == 3.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("hits").inc(-1)

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        registry.counter("req", route="/a").inc()
        registry.counter("req", route="/b").inc(5)
        counters = registry.snapshot()["counters"]
        assert counters["req{route=/a}"] == 1.0
        assert counters["req{route=/b}"] == 5.0

    def test_label_key_is_order_insensitive(self):
        assert _label_key("m", {"b": "2", "a": "1"}) == "m{a=1,b=2}"

    def test_gauge_up_and_down(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("in_flight")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert registry.snapshot()["gauges"]["in_flight"] == 1.0
        gauge.set(7.0)
        assert registry.snapshot()["gauges"]["in_flight"] == 7.0

    def test_snapshot_is_isolated_from_registry(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.1)
        snapshot = registry.snapshot()
        # Mutating the snapshot must not touch the registry...
        snapshot["counters"]["c"] = 999.0
        snapshot["histograms"]["h"]["count"] = 999
        assert registry.snapshot()["counters"]["c"] == 1.0
        assert registry.snapshot()["histograms"]["h"]["count"] == 1
        # ...and later registry writes must not appear in the old snapshot.
        registry.counter("c").inc(10)
        assert snapshot["counters"]["c"] == 999.0

    def test_reset_clears_everything(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.histogram("h").observe(0.5)
        registry.reset()
        snapshot = registry.snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_stage_timings_strips_prefix(self):
        registry = MetricsRegistry()
        registry.histogram("span.query.run").observe(0.2)
        registry.histogram("other").observe(0.2)
        timings = registry.stage_timings()
        assert list(timings) == ["query.run"]

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("contended")

        def hammer():
            for __ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000.0


class TestRouteTemplate:
    @pytest.mark.parametrize(
        ("path", "template"),
        [
            ("/", "/"),
            ("/sources", "/sources"),
            ("/sources/GO", "/sources/{name}"),
            ("/sources/GO/objects", "/sources/{name}/objects"),
            ("/objects/LocusLink/353", "/objects/{source}/{accession}"),
            ("/map", "/map"),
            ("/paths", "/paths"),
            ("/stats", "/stats"),
            ("/metrics", "/metrics"),
            ("/health", "/health"),
            ("/query", "/query"),
            ("/query/explain", "/query/explain"),
            ("/favicon.ico", "/{unknown}"),
            ("/sources/a/b/c/d", "/{unknown}"),
        ],
    )
    def test_templates(self, path, template):
        assert route_template("GET", path) == template


class TestDisabledPathOverhead:
    def test_event_helpers_stay_under_a_microsecond_without_a_scope(self):
        """With no wide-event scope open, the annotation helpers must cost
        roughly one ContextVar read — well under a microsecond per call."""
        import time

        from repro.obs import annotate_event, current_event, incr_event, record_sql

        assert current_event() is None

        def per_call(fn, *args, iterations=20_000):
            best = float("inf")
            for __ in range(5):
                start = time.perf_counter()
                for __ in range(iterations):
                    fn(*args)
                best = min(best, time.perf_counter() - start)
            return best / iterations

        assert per_call(incr_event, "retries") < 1e-6
        assert per_call(annotate_event) < 1e-6
        assert per_call(record_sql, "SELECT 1", 0) < 1e-6


class TestInstrumentedPaths:
    def test_traced_integration_and_view_cover_all_stages(self, universe_dir):
        """A traced demo-universe run shows parse→import→compose→view."""
        from repro.core.genmapper import GenMapper

        replacement = Tracer(enabled=True, registry=MetricsRegistry())
        previous = set_tracer(replacement)
        try:
            with GenMapper() as gm:
                gm.integrate_directory(universe_dir)
                gm.generate_view("NetAffx", targets=["OMIM"])
        finally:
            set_tracer(previous)
        names = {
            span.name
            for root in replacement.finished
            for __, span in root.walk()
        }
        assert {
            "pipeline.integrate_directory",
            "pipeline.integrate_file",
            "pipeline.parse",
            "pipeline.import",
            "operator.generate_view",
            "operator.compose",
            "pathfinder.shortest_path",
        } <= names
        timings = replacement.registry.stage_timings()
        assert timings["pipeline.parse"]["count"] > 0

    def test_import_counters_recorded(self, universe_dir):
        from repro.core.genmapper import GenMapper
        from repro.obs import get_registry

        before = (
            get_registry()
            .snapshot()["counters"]
            .get("pipeline_objects_imported_total", 0.0)
        )
        with GenMapper() as gm:
            gm.integrate_directory(universe_dir)
        after = get_registry().snapshot()["counters"][
            "pipeline_objects_imported_total"
        ]
        assert after > before
