"""Tests for the Compose operation (paper Section 4.2).

The pairwise fold (``compose_pair``, ``compose_mappings``) is the Python
oracle the SQL Compose is checked against; these tests pin its join and
evidence semantics.
"""

import pytest

from repro.gam.enums import RelType
from repro.gam.errors import UnknownMappingError
from repro.operators.compose import (
    compose,
    materialization_rows,
    min_evidence,
    product_evidence,
)
from repro.operators.mapping import Mapping
from tests.oracle import compose_mappings, compose_pair


def m(source, target, pairs, rel_type=RelType.FACT):
    return Mapping.build(source, target, pairs, rel_type)


class TestComposePair:
    def test_paper_example_unigene_go(self):
        # Unigene<->LocusLink composed with LocusLink<->GO gives Unigene<->GO.
        unigene_ll = m("Unigene", "LocusLink", [("Hs.28914", "353")])
        ll_go = m("LocusLink", "GO", [("353", "GO:0009116")])
        composed = compose_pair(unigene_ll, ll_go)
        assert composed.source == "Unigene"
        assert composed.target == "GO"
        assert composed.pair_set() == {("Hs.28914", "GO:0009116")}

    def test_result_is_composed_type(self):
        composed = compose_pair(
            m("A", "B", [("a", "b")]), m("B", "C", [("b", "c")])
        )
        assert composed.rel_type is RelType.COMPOSED

    def test_join_semantics_fan_out(self):
        first = m("A", "B", [("a1", "b1"), ("a2", "b1")])
        second = m("B", "C", [("b1", "c1"), ("b1", "c2")])
        composed = compose_pair(first, second)
        assert composed.pair_set() == {
            ("a1", "c1"), ("a1", "c2"), ("a2", "c1"), ("a2", "c2"),
        }

    def test_unmatched_intermediates_dropped(self):
        first = m("A", "B", [("a1", "b1"), ("a2", "b2")])
        second = m("B", "C", [("b1", "c1")])
        composed = compose_pair(first, second)
        assert composed.pair_set() == {("a1", "c1")}

    def test_mismatched_intermediate_rejected(self):
        with pytest.raises(ValueError, match="intermediate"):
            compose_pair(m("A", "B", []), m("X", "C", []))

    def test_product_evidence_combination(self):
        first = m("A", "B", [("a", "b", 0.8)])
        second = m("B", "C", [("b", "c", 0.5)])
        composed = compose_pair(first, second)
        assert composed.associations[0].evidence == pytest.approx(0.4)

    def test_min_evidence_combination(self):
        first = m("A", "B", [("a", "b", 0.8)])
        second = m("B", "C", [("b", "c", 0.5)])
        composed = compose_pair(first, second, combiner=min_evidence)
        assert composed.associations[0].evidence == pytest.approx(0.5)

    def test_strongest_chain_wins(self):
        # Two intermediate objects connect the same endpoints.
        first = m("A", "B", [("a", "b1", 1.0), ("a", "b2", 0.5)])
        second = m("B", "C", [("b1", "c", 0.6), ("b2", "c", 1.0)])
        composed = compose_pair(first, second)
        assert composed.associations[0].evidence == pytest.approx(0.6)


class TestComposeMappings:
    def test_single_mapping_passthrough(self):
        only = m("A", "B", [("a", "b")])
        assert compose_mappings([only]).pair_set() == only.pair_set()

    def test_three_leg_path(self):
        legs = [
            m("A", "B", [("a", "b")]),
            m("B", "C", [("b", "c")]),
            m("C", "D", [("c", "d")]),
        ]
        composed = compose_mappings(legs)
        assert composed.source == "A"
        assert composed.target == "D"
        assert composed.pair_set() == {("a", "d")}

    def test_associativity(self):
        legs = [
            m("A", "B", [("a1", "b1"), ("a2", "b2")]),
            m("B", "C", [("b1", "c1"), ("b2", "c1")]),
            m("C", "D", [("c1", "d1")]),
        ]
        left = compose_pair(compose_pair(legs[0], legs[1]), legs[2])
        right = compose_pair(legs[0], compose_pair(legs[1], legs[2]))
        assert left.pair_set() == right.pair_set()

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            compose_mappings([])


class TestComposeAgainstRepository:
    @pytest.fixture()
    def repo(self, paper_genmapper):
        return paper_genmapper.repository

    def test_two_source_path_returns_stored_mapping(self, repo):
        mapping = compose(repo, ["Unigene", "LocusLink"])
        assert mapping.rel_type is RelType.FACT
        assert ("Hs.28914", "353") in mapping

    def test_unigene_to_go_via_locuslink(self, repo):
        mapping = compose(repo, ["Unigene", "LocusLink", "GO"])
        assert mapping.pair_set() == {("Hs.28914", "GO:0009116")}
        assert mapping.rel_type is RelType.COMPOSED

    def test_missing_leg_raises(self, repo):
        with pytest.raises(UnknownMappingError):
            compose(repo, ["Unigene", "GO"])

    def test_short_path_rejected(self, repo):
        with pytest.raises(ValueError, match="two sources"):
            compose(repo, ["Unigene"])


class TestMaterializationRows:
    def test_rows_mirror_associations(self):
        mapping = m("A", "B", [("a", "b", 0.7)])
        assert materialization_rows(mapping) == [("a", "b", 0.7)]


class TestEvidenceCombiners:
    def test_product(self):
        assert product_evidence(0.5, 0.5) == pytest.approx(0.25)

    def test_min(self):
        assert min_evidence(0.5, 0.9) == pytest.approx(0.5)
