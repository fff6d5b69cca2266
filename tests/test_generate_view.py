"""Tests for GenerateView (paper Figure 5), including a brute-force
reference implementation the operator must agree with."""

import pytest

from repro.gam.enums import CombineMethod
from repro.gam.errors import ViewGenerationError
from repro.operators.generate_view import TargetSpec, generate_view
from repro.operators.mapping import Mapping


def make_resolver(mappings):
    """A resolver over a dict {target_name: Mapping}."""

    def resolver(source, spec):
        return mappings[spec.name]

    return resolver


@pytest.fixture()
def world():
    """A small world: genes g1..g4 with partial annotations.

    g1: hugo A, go G1, omim O1
    g2: hugo B, go G1+G2
    g3: hugo C
    g4: (nothing)
    """
    return {
        "Hugo": Mapping.build(
            "S", "Hugo", [("g1", "A"), ("g2", "B"), ("g3", "C")]
        ),
        "GO": Mapping.build(
            "S", "GO", [("g1", "G1"), ("g2", "G1"), ("g2", "G2")]
        ),
        "OMIM": Mapping.build("S", "OMIM", [("g1", "O1")]),
    }


def reference_generate_view(mappings, source, objects, specs, combine):
    """Brute-force implementation of the Figure 5 pseudo-code.

    Returns the view's rows in order: objects sorted, each object's
    partners sorted and distinct, as the HTTP body lists them.
    """
    objects = sorted(set(objects))
    rows = [(obj,) for obj in objects]
    for spec in specs:
        mapping = mappings[spec.name]
        pairs = [
            (a.source_accession, a.target_accession)
            for a in mapping
            if a.source_accession in objects
            and (spec.restrict is None or a.target_accession in spec.restrict)
        ]
        if spec.negated:
            involved = {s for s, __ in pairs}
            uninvolved = [obj for obj in objects if obj not in involved]
            negated_pairs = [
                (a.source_accession, a.target_accession)
                for a in mapping
                if a.source_accession in uninvolved
            ]
            by_source = {}
            for s, t in negated_pairs:
                by_source.setdefault(s, []).append(t)
            for obj in uninvolved:
                by_source.setdefault(obj, [None])
            pairs_dict = by_source
        else:
            pairs_dict = {}
            for s, t in pairs:
                pairs_dict.setdefault(s, []).append(t)
        new_rows = []
        for row in rows:
            partners = sorted(
                set(pairs_dict.get(row[0], [])),
                key=lambda v: (v is None, v or ""),
            )
            if partners:
                new_rows.extend(row + (p,) for p in partners)
            elif combine == CombineMethod.OR:
                new_rows.append(row + (None,))
        rows = new_rows
    return rows


class TestBasicJoins:
    def test_and_keeps_fully_annotated_objects(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2", "g3", "g4"],
            [TargetSpec.of("Hugo"), TargetSpec.of("OMIM")], "AND",
        )
        assert set(view.rows) == {("g1", "A", "O1")}

    def test_or_preserves_unannotated_objects(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g4"],
            [TargetSpec.of("Hugo")], "OR",
        )
        assert set(view.rows) == {("g1", "A"), ("g4", None)}

    def test_multi_valued_targets_fan_out(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g2"], [TargetSpec.of("GO")], "AND"
        )
        assert set(view.rows) == {("g2", "G1"), ("g2", "G2")}

    def test_columns_are_source_then_targets(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1"],
            [TargetSpec.of("Hugo"), TargetSpec.of("GO")], "AND",
        )
        assert view.columns == ("S", "Hugo", "GO")

    def test_no_targets_returns_object_list(self, world):
        view = generate_view(make_resolver(world), "S", ["g2", "g1"], [], "AND")
        assert view.rows == (("g1",), ("g2",))

    def test_duplicate_targets_rejected(self, world):
        with pytest.raises(ViewGenerationError, match="duplicate"):
            generate_view(
                make_resolver(world), "S", ["g1"],
                [TargetSpec.of("Hugo"), TargetSpec.of("Hugo")], "AND",
            )

    def test_source_objects_deduplicated(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g1"], [TargetSpec.of("Hugo")],
            "AND",
        )
        assert len(view) == 1


class TestRestriction:
    def test_target_restriction_filters_range(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2"],
            [TargetSpec.of("GO", restrict={"G2"})], "AND",
        )
        assert set(view.rows) == {("g2", "G2")}

    def test_restriction_with_or_keeps_others_as_null(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2"],
            [TargetSpec.of("GO", restrict={"G2"})], "OR",
        )
        assert set(view.rows) == {("g1", None), ("g2", "G2")}


class TestNegation:
    def test_negated_target_keeps_objects_without_annotation(self, world):
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2", "g3"],
            [TargetSpec.of("OMIM", negated=True)], "AND",
        )
        # g1 has OMIM O1 and is excluded; g2/g3 have no OMIM at all and
        # are preserved with NULL (right outer join with si').
        assert set(view.rows) == {("g2", None), ("g3", None)}

    def test_negation_of_restricted_values_shows_other_annotations(self, world):
        # Negating GO IN (G2): g2 is excluded (has G2); g1 lacks G2 and its
        # other GO annotation (G1) is shown; g3 has no GO at all -> NULL.
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2", "g3"],
            [TargetSpec.of("GO", restrict={"G2"}, negated=True)], "AND",
        )
        assert set(view.rows) == {("g1", "G1"), ("g3", None)}

    def test_paper_query_pattern(self, world):
        # "genes with a GO function but not associated with OMIM diseases"
        view = generate_view(
            make_resolver(world), "S", ["g1", "g2", "g3", "g4"],
            [TargetSpec.of("GO"), TargetSpec.of("OMIM", negated=True)], "AND",
        )
        sources = {row[0] for row in view.rows}
        assert sources == {"g2"}


class TestAgainstReference:
    @pytest.mark.parametrize("combine", ["AND", "OR"])
    @pytest.mark.parametrize(
        "spec_list",
        [
            [TargetSpec.of("Hugo")],
            [TargetSpec.of("Hugo"), TargetSpec.of("GO")],
            [TargetSpec.of("GO", restrict={"G1"})],
            [TargetSpec.of("OMIM", negated=True)],
            [TargetSpec.of("Hugo"), TargetSpec.of("OMIM", negated=True)],
            [
                TargetSpec.of("Hugo"),
                TargetSpec.of("GO", restrict={"G2"}, negated=True),
                TargetSpec.of("OMIM"),
            ],
        ],
    )
    def test_matches_brute_force_reference(self, world, combine, spec_list):
        objects = ["g1", "g2", "g3", "g4"]
        view = generate_view(
            make_resolver(world), "S", objects, spec_list, combine
        )
        expected = reference_generate_view(
            world, "S", objects, spec_list, CombineMethod.parse(combine)
        )
        assert list(view.rows) == expected
