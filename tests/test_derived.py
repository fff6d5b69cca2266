"""Tests for derived relationships: Subsumed and Composed materialization."""

import pytest

from repro.derived.composed import derive_composed, materialize_mapping
from repro.derived.subsumed import (
    derive_subsumed,
    load_taxonomy,
    query_with_subsumption,
    rollup_mapping,
    subsumed_mapping,
)
from repro.gam.enums import RelType
from repro.gam.errors import UnknownMappingError
from repro.operators.mapping import Mapping
from repro.operators.simple import map_
from repro.taxonomy.dag import Taxonomy


class TestLoadTaxonomy:
    def test_loads_is_a_structure(self, paper_genmapper):
        taxonomy = load_taxonomy(paper_genmapper.repository, "GO")
        assert taxonomy.parents("GO:0009116") == {"GO:0009117"}
        assert taxonomy.roots() == {"GO:0008150"}

    def test_missing_structure_raises(self, paper_genmapper):
        with pytest.raises(UnknownMappingError, match="IS_A"):
            load_taxonomy(paper_genmapper.repository, "LocusLink")


class TestSubsumed:
    def test_subsumed_mapping_on_the_fly(self, paper_genmapper):
        mapping = subsumed_mapping(paper_genmapper.repository, "GO")
        assert ("GO:0008150", "GO:0009116") in mapping
        assert ("GO:0009117", "GO:0009116") in mapping
        assert mapping.rel_type is RelType.SUBSUMED

    def test_derive_subsumed_materializes(self, paper_genmapper):
        rel, inserted = derive_subsumed(paper_genmapper.repository, "GO")
        assert rel.type is RelType.SUBSUMED
        assert inserted == 3  # root->{0009117,0009116}, 0009117->0009116

    def test_derive_subsumed_idempotent(self, paper_genmapper):
        derive_subsumed(paper_genmapper.repository, "GO")
        __, second = derive_subsumed(paper_genmapper.repository, "GO")
        assert second == 0

    def test_derive_subsumed_round_trips_evidence(self, paper_genmapper):
        # Regression: materializing an in-memory Subsumed mapping used to
        # drop each association's evidence, silently resetting it to the
        # column default.
        repository = paper_genmapper.repository
        weighted = Mapping.build(
            "GO", "GO",
            [
                ("GO:0008150", "GO:0009116", 0.25),
                ("GO:0009117", "GO:0009116", 0.75),
            ],
            rel_type=RelType.SUBSUMED,
        )
        rel, inserted = materialize_mapping(
            repository, weighted, RelType.SUBSUMED
        )
        assert rel.type is RelType.SUBSUMED
        assert inserted == 2
        stored = {
            (assoc.source_accession, assoc.target_accession): assoc.evidence
            for assoc in repository.associations_of(rel)
        }
        assert stored == {
            ("GO:0008150", "GO:0009116"): 0.25,
            ("GO:0009117", "GO:0009116"): 0.75,
        }

    def test_query_with_subsumption_finds_specific_annotations(
        self, paper_genmapper
    ):
        # Locus 353 is annotated with the *specific* term GO:0009116;
        # querying with the more general GO:0009117 must find it.
        loci = query_with_subsumption(
            paper_genmapper.repository, "LocusLink", "GO", "GO:0009117"
        )
        assert loci == {"353"}

    def test_query_with_direct_term(self, paper_genmapper):
        loci = query_with_subsumption(
            paper_genmapper.repository, "LocusLink", "GO", "GO:0009116"
        )
        assert loci == {"353"}

    def test_query_with_unrelated_term(self, paper_genmapper):
        paper_genmapper.integrate_text(
            "[Term]\nid: GO:0099999\nname: other\nnamespace: biological_process\n"
            "is_a: GO:0008150\n",
            "GO",
        )
        loci = query_with_subsumption(
            paper_genmapper.repository, "LocusLink", "GO", "GO:0099999"
        )
        assert loci == set()


class TestRollup:
    def test_rollup_adds_ancestor_annotations(self):
        taxonomy = Taxonomy([("specific", "general"), ("general", "root")])
        annotation = Mapping.build("Gene", "GO", [("g1", "specific")])
        rolled = rollup_mapping(annotation, taxonomy)
        assert rolled.pair_set() == {
            ("g1", "specific"), ("g1", "general"), ("g1", "root"),
        }

    def test_rollup_without_direct(self):
        taxonomy = Taxonomy([("specific", "general")])
        annotation = Mapping.build("Gene", "GO", [("g1", "specific")])
        rolled = rollup_mapping(annotation, taxonomy, include_direct=False)
        assert rolled.pair_set() == {("g1", "general")}

    def test_rollup_keeps_unknown_terms(self):
        taxonomy = Taxonomy([("a", "b")])
        annotation = Mapping.build("Gene", "GO", [("g1", "not-in-taxonomy")])
        rolled = rollup_mapping(annotation, taxonomy)
        assert rolled.pair_set() == {("g1", "not-in-taxonomy")}

    def test_rollup_preserves_evidence(self):
        taxonomy = Taxonomy([("a", "b")])
        annotation = Mapping.build("Gene", "GO", [("g1", "a", 0.5)])
        rolled = rollup_mapping(annotation, taxonomy)
        for assoc in rolled:
            assert assoc.evidence == pytest.approx(0.5)


class TestComposedMaterialization:
    def test_materialize_then_map_retrieves(self, paper_genmapper):
        repo = paper_genmapper.repository
        mapping = Mapping.build(
            "Unigene", "GO", [("Hs.28914", "GO:0009116", 0.9)]
        )
        rel, inserted = materialize_mapping(repo, mapping)
        assert rel.type is RelType.COMPOSED
        assert inserted == 1
        stored = map_(repo, "Unigene", "GO")
        assert stored.pair_set() == {("Hs.28914", "GO:0009116")}
        assert stored.rel_type is RelType.COMPOSED

    def test_derive_composed_materializes_long_path(self, paper_genmapper):
        repo = paper_genmapper.repository
        mapping = derive_composed(
            repo, ["Unigene", "LocusLink", "GO"], materialize=True
        )
        assert mapping.pair_set() == {("Hs.28914", "GO:0009116")}
        # A direct Map must now succeed without composing again.
        stored = map_(repo, "Unigene", "GO")
        assert stored.rel_type is RelType.COMPOSED

    def test_derive_composed_without_materialize(self, paper_genmapper):
        repo = paper_genmapper.repository
        derive_composed(repo, ["Unigene", "LocusLink", "GO"], materialize=False)
        with pytest.raises(UnknownMappingError):
            map_(repo, "Unigene", "GO")

    def test_two_leg_path_never_materialized(self, paper_genmapper):
        repo = paper_genmapper.repository
        mapping = derive_composed(
            repo, ["Unigene", "LocusLink"], materialize=True
        )
        assert mapping.rel_type is RelType.FACT
        rels = repo.find_source_rels(rel_type=RelType.COMPOSED)
        assert rels == []
