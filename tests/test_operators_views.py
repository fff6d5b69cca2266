"""Tests for AnnotationView: queryability, grouping, rendering, export."""

import json

import pytest

from repro.operators.views import AnnotationView


@pytest.fixture()
def view():
    return AnnotationView(
        ("LocusLink", "Hugo", "GO"),
        (
            ("353", "APRT", "GO:0009116"),
            ("354", "GP1BB", "GO:0007155"),
            ("354", "GP1BB", "GO:0009987"),
            ("355", None, None),
        ),
    )


class TestConstruction:
    def test_row_width_checked(self):
        with pytest.raises(ValueError, match="width"):
            AnnotationView(("A", "B"), (("only-one",),))

    @pytest.mark.parametrize("bad", [("x",), ("x", "y", "z")])
    def test_row_width_error_names_the_row(self, bad):
        rows = (("a", "b"), ("c", None), bad, ("d",))
        with pytest.raises(ValueError) as excinfo:
            AnnotationView(("A", "B"), rows)
        assert str(excinfo.value) == (
            f"row width {len(bad)} does not match 2 columns: {bad!r}"
        )

    def test_source_column_is_first(self, view):
        assert view.source_column == "LocusLink"

    def test_len_and_iter(self, view):
        assert len(view) == 4
        assert len(list(view)) == 4

    def test_is_empty(self):
        assert AnnotationView(("A",), ()).is_empty()


class TestQueryability:
    def test_column_values_distinct(self, view):
        assert view.column_values("Hugo") == ["APRT", "GP1BB"]

    def test_column_values_keep_duplicates_when_asked(self, view):
        assert view.column_values("Hugo", distinct=False) == [
            "APRT", "GP1BB", "GP1BB",
        ]

    def test_column_values_skip_nulls(self, view):
        assert None not in view.column_values("GO")

    def test_unknown_column_raises(self, view):
        with pytest.raises(KeyError, match="Nope"):
            view.column_values("Nope")

    def test_source_objects(self, view):
        assert view.source_objects() == ["353", "354", "355"]

    def test_filter_by_predicate(self, view):
        filtered = view.filter(lambda row: row["GO"] == "GO:0007155")
        assert len(filtered) == 1
        assert filtered.rows[0][0] == "354"

    def test_project_drops_duplicates(self, view):
        projected = view.project(["LocusLink", "Hugo"])
        assert set(projected.rows) == {
            ("353", "APRT"), ("354", "GP1BB"), ("355", None),
        }

    def test_sorted_puts_nulls_last(self):
        view = AnnotationView(("S", "T"), (("b", None), ("a", "x"), ("b", "y")))
        assert view.sorted().rows == (("a", "x"), ("b", "y"), ("b", None))


class TestGrouping:
    def test_grouped_by_source(self, view):
        grouped = view.grouped_by_source()
        assert len(grouped["354"]) == 2

    def test_annotation_profile(self, view):
        profile = view.annotation_profile("354")
        assert profile == {
            "Hugo": ["GP1BB"],
            "GO": ["GO:0007155", "GO:0009987"],
        }

    def test_annotation_profile_of_unannotated_object(self, view):
        profile = view.annotation_profile("355")
        assert profile == {"Hugo": [], "GO": []}


class TestRendering:
    def test_render_contains_header_and_nulls(self, view):
        text = view.render()
        assert "LocusLink" in text
        assert "-" in text  # the NULL display

    def test_render_truncates(self, view):
        text = view.render(max_rows=2)
        assert "more rows" in text

    def test_to_tsv_round_trips_header(self, view):
        lines = view.to_tsv().splitlines()
        assert lines[0] == "LocusLink\tHugo\tGO"
        assert lines[1] == "353\tAPRT\tGO:0009116"
        assert lines[4] == "355\t\t"

    def test_to_json(self, view):
        decoded = json.loads(view.to_json())
        assert decoded["columns"] == ["LocusLink", "Hugo", "GO"]
        assert decoded["rows"][3] == ["355", None, None]

    def test_to_dicts(self, view):
        dicts = view.to_dicts()
        assert dicts[0] == {
            "LocusLink": "353", "Hugo": "APRT", "GO": "GO:0009116",
        }
