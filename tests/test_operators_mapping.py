"""Tests for the Mapping value object and its Table 2 operations."""

import pytest

from repro.gam.enums import RelType
from repro.gam.records import Association
from repro.operators.mapping import Mapping


@pytest.fixture()
def mapping():
    """The paper's Table 2 example: {s1<->t1, s2<->t2}."""
    return Mapping.build("S", "T", [("s1", "t1"), ("s2", "t2")])


class TestBuild:
    def test_build_deduplicates_pairs(self):
        mapping = Mapping.build("S", "T", [("s1", "t1"), ("s1", "t1")])
        assert len(mapping) == 1

    def test_build_keeps_highest_evidence(self):
        mapping = Mapping.build(
            "S", "T", [("s1", "t1", 0.4), ("s1", "t1", 0.9)]
        )
        assert mapping.associations[0].evidence == pytest.approx(0.9)

    def test_build_sorts_associations(self):
        mapping = Mapping.build("S", "T", [("s2", "t2"), ("s1", "t1")])
        assert [a.source_accession for a in mapping] == ["s1", "s2"]

    def test_default_evidence_is_one(self, mapping):
        assert all(a.evidence == 1.0 for a in mapping)


class TestTable2Operations:
    def test_domain_matches_paper_example(self, mapping):
        assert mapping.domain() == {"s1", "s2"}

    def test_range_matches_paper_example(self, mapping):
        assert mapping.range() == {"t1", "t2"}

    def test_restrict_domain_matches_paper_example(self, mapping):
        restricted = mapping.restrict_domain({"s1"})
        assert restricted.pair_set() == {("s1", "t1")}

    def test_restrict_range_matches_paper_example(self, mapping):
        restricted = mapping.restrict_range({"t2"})
        assert restricted.pair_set() == {("s2", "t2")}

    def test_restrict_domain_keeps_endpoints(self, mapping):
        restricted = mapping.restrict_domain({"s1"})
        assert restricted.source == "S"
        assert restricted.target == "T"

    def test_restrict_to_nothing_is_empty(self, mapping):
        assert mapping.restrict_domain(set()).is_empty()


class TestContainerProtocol:
    def test_len(self, mapping):
        assert len(mapping) == 2

    def test_iteration_yields_associations(self, mapping):
        assert all(isinstance(a, Association) for a in mapping)

    def test_contains_pair(self, mapping):
        assert ("s1", "t1") in mapping
        assert ("s1", "t2") not in mapping

    def test_contains_association(self, mapping):
        assert Association("s1", "t1") in mapping


class TestDerivedViews:
    def test_invert_swaps_orientation(self, mapping):
        inverted = mapping.invert()
        assert inverted.source == "T"
        assert inverted.target == "S"
        assert inverted.pair_set() == {("t1", "s1"), ("t2", "s2")}

    def test_invert_twice_is_identity(self, mapping):
        assert mapping.invert().invert().pair_set() == mapping.pair_set()

    def test_targets_of(self):
        mapping = Mapping.build("S", "T", [("s1", "t2"), ("s1", "t1")])
        assert mapping.targets_of("s1") == ["t1", "t2"]
        assert mapping.targets_of("missing") == []

    def test_partner_index_is_sorted_and_distinct(self):
        # Stored T -> S in load order, not sorted, with one pair twice.
        stored = [("t2", "s1"), ("t3", "s2"), ("t1", "s1"), ("t1", "s2")]
        mapping = Mapping(
            "T", "S", tuple(Association(*pair) for pair in stored + stored[:1])
        ).invert()
        assert mapping.partner_index() == {"s1": ("t1", "t2"), "s2": ("t1", "t3")}
        assert mapping.partner_index() is mapping.partner_index()
        assert mapping.targets_of("s1") == ["t1", "t2"]

    def test_as_dict_groups_by_source(self):
        mapping = Mapping.build("S", "T", [("s1", "t1"), ("s1", "t2")])
        grouped = mapping.as_dict()
        assert set(grouped) == {"s1"}
        assert len(grouped["s1"]) == 2

    def test_filter_evidence(self):
        mapping = Mapping.build(
            "S", "T", [("s1", "t1", 0.9), ("s2", "t2", 0.3)]
        )
        assert mapping.filter_evidence(0.5).pair_set() == {("s1", "t1")}

    def test_min_evidence(self):
        mapping = Mapping.build(
            "S", "T", [("s1", "t1", 0.9), ("s2", "t2", 0.3)]
        )
        assert mapping.min_evidence() == pytest.approx(0.3)

    def test_min_evidence_of_empty_mapping(self):
        assert Mapping.build("S", "T", []).min_evidence() == 1.0

    def test_describe_mentions_sizes(self, mapping):
        text = mapping.describe()
        assert "2 associations" in text
        assert "S" in text and "T" in text

    def test_rel_type_preserved_through_restrict(self):
        mapping = Mapping.build(
            "S", "T", [("s1", "t1")], rel_type=RelType.COMPOSED
        )
        assert mapping.restrict_domain({"s1"}).rel_type is RelType.COMPOSED
