"""Tests for the repository layer: CRUD plus duplicate elimination."""

import pytest

from repro.gam.database import GamDatabase
from repro.gam.enums import RelType, SourceContent, SourceStructure
from repro.gam.errors import (
    GamIntegrityError,
    UnknownMappingError,
    UnknownObjectError,
    UnknownSourceError,
)
from repro.gam.repository import GamRepository


@pytest.fixture()
def repo():
    db = GamDatabase()
    yield GamRepository(db)
    db.close()


@pytest.fixture()
def two_sources(repo):
    """LocusLink and GO with a few objects each."""
    locuslink = repo.add_source("LocusLink", SourceContent.GENE)
    go = repo.add_source("GO", SourceContent.OTHER, SourceStructure.NETWORK)
    repo.add_objects(locuslink, [("353", "APRT"), ("354", "GP1BB")])
    repo.add_objects(go, [("GO:0009116", "nucleoside metabolism"), ("GO:0007155",)])
    return locuslink, go


class TestSources:
    def test_add_and_get_by_name(self, repo):
        created = repo.add_source("LocusLink", "Gene", "Flat")
        fetched = repo.get_source("LocusLink")
        assert fetched == created

    def test_get_by_id(self, repo):
        created = repo.add_source("GO")
        assert repo.get_source(created.source_id) == created

    def test_unknown_source_raises(self, repo):
        with pytest.raises(UnknownSourceError):
            repo.get_source("Nope")

    def test_duplicate_name_returns_existing(self, repo):
        first = repo.add_source("GO", release="r1")
        second = repo.add_source("GO", release="r1")
        assert first.source_id == second.source_id

    def test_new_release_updates_audit_info(self, repo):
        first = repo.add_source("GO", release="r1", imported_at="2003-01-01")
        second = repo.add_source("GO", release="r2", imported_at="2003-06-01")
        assert second.source_id == first.source_id
        assert second.release == "r2"
        assert repo.get_source("GO").release == "r2"

    def test_target_stub_upgraded_to_network(self, repo):
        # A source first seen as an annotation target is Flat; its own
        # import may reveal Network structure.
        repo.add_source("GO")  # stub, Flat by default
        upgraded = repo.add_source("GO", structure="Network", release="r1")
        assert upgraded.structure is SourceStructure.NETWORK

    def test_network_never_downgraded(self, repo):
        repo.add_source("GO", structure="Network")
        again = repo.add_source("GO", structure="Flat")
        assert again.structure is SourceStructure.NETWORK

    def test_list_sources_ordered_by_id(self, repo):
        repo.add_source("B")
        repo.add_source("A")
        assert [s.name for s in repo.list_sources()] == ["B", "A"]


class TestObjects:
    def test_add_objects_returns_inserted_count(self, repo):
        src = repo.add_source("LL")
        assert repo.add_objects(src, [("1",), ("2",)]) == 2

    def test_duplicate_accessions_skipped(self, repo):
        src = repo.add_source("LL")
        repo.add_objects(src, [("1", "one")])
        assert repo.add_objects(src, [("1", "one again"), ("2",)]) == 1
        assert repo.count_objects(src) == 2

    def test_reimport_fills_missing_text(self, repo):
        src = repo.add_source("LL")
        repo.add_objects(src, [("1",)])
        repo.add_objects(src, [("1", "one")])
        assert repo.get_object(src, "1").text == "one"

    def test_reimport_does_not_erase_text(self, repo):
        src = repo.add_source("LL")
        repo.add_objects(src, [("1", "one")])
        repo.add_objects(src, [("1",)])
        assert repo.get_object(src, "1").text == "one"

    def test_identical_reimport_changes_no_rows(self, repo):
        src = repo.add_source("LL")
        rows = [("1", "one", 0.5), ("2", "two"), ("3",)]
        repo.add_objects(src, rows)
        connection = repo.db.connection
        before = connection.total_changes
        assert repo.add_objects(src, rows) == 0
        assert connection.total_changes == before
        # A changed value is still written, and only that row.
        repo.add_objects(src, [*rows, ("3", None, 2.0)])
        assert connection.total_changes == before + 1
        assert repo.get_object(src, "3").number == 2.0

    def test_get_object_with_number(self, repo):
        src = repo.add_source("Scores")
        repo.add_objects(src, [("s1", None, 0.75)])
        assert repo.get_object(src, "s1").number == pytest.approx(0.75)

    def test_unknown_object_raises(self, repo):
        repo.add_source("LL")
        with pytest.raises(UnknownObjectError):
            repo.get_object("LL", "999")

    def test_find_object_returns_none(self, repo):
        repo.add_source("LL")
        assert repo.find_object("LL", "999") is None

    def test_objects_of_sorted_by_accession(self, repo):
        src = repo.add_source("LL")
        repo.add_objects(src, [("b",), ("a",), ("c",)])
        assert [o.accession for o in repo.objects_of(src)] == ["a", "b", "c"]

    def test_objects_of_respects_limit(self, repo):
        src = repo.add_source("LL")
        repo.add_objects(src, [(str(i),) for i in range(10)])
        assert len(repo.objects_of(src, limit=3)) == 3

    def test_accession_lookup_table(self, repo, two_sources):
        locuslink, __ = two_sources
        table = repo.accession_to_id(locuslink)
        assert set(table) == {"353", "354"}


class TestSourceRels:
    def test_ensure_is_get_or_create(self, repo, two_sources):
        locuslink, go = two_sources
        first = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        second = repo.ensure_source_rel(locuslink, go, "Fact")
        assert first.src_rel_id == second.src_rel_id

    def test_different_types_are_distinct_rels(self, repo, two_sources):
        locuslink, go = two_sources
        fact = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        similarity = repo.ensure_source_rel(locuslink, go, RelType.SIMILARITY)
        assert fact.src_rel_id != similarity.src_rel_id

    def test_find_by_type(self, repo, two_sources):
        locuslink, go = two_sources
        repo.ensure_source_rel(locuslink, go, RelType.FACT)
        repo.ensure_source_rel(go, go, RelType.IS_A)
        facts = repo.find_source_rels(rel_type=RelType.FACT)
        assert len(facts) == 1
        assert facts[0].source1_id == locuslink.source_id

    def test_mappings_between_ignores_direction_by_default(
        self, repo, two_sources
    ):
        locuslink, go = two_sources
        repo.ensure_source_rel(go, locuslink, RelType.FACT)
        assert repo.mappings_between(locuslink, go)
        assert not repo.mappings_between(locuslink, go, directed=True)

    def test_structural_rels_are_not_mappings(self, repo, two_sources):
        __, go = two_sources
        repo.ensure_source_rel(go, go, RelType.IS_A)
        sources, mappings = repo.sources_and_mappings()
        assert [source.name for source in sources] == ["LocusLink", "GO"]
        assert mappings == []


class TestAssociations:
    def test_add_and_count(self, repo, two_sources):
        locuslink, go = two_sources
        rel = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        inserted = repo.add_associations(
            rel, [("353", "GO:0009116"), ("354", "GO:0007155")]
        )
        assert inserted == 2
        assert repo.count_associations(rel) == 2

    def test_duplicate_pairs_skipped(self, repo, two_sources):
        locuslink, go = two_sources
        rel = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        repo.add_associations(rel, [("353", "GO:0009116")])
        assert repo.add_associations(rel, [("353", "GO:0009116")]) == 0

    def test_strict_rejects_unknown_accession(self, repo, two_sources):
        locuslink, go = two_sources
        rel = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        with pytest.raises(GamIntegrityError, match="999"):
            repo.add_associations(rel, [("999", "GO:0009116")])

    def test_lenient_skips_unknown_accession(self, repo, two_sources):
        locuslink, go = two_sources
        rel = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        inserted = repo.add_associations(
            rel,
            [("999", "GO:0009116"), ("353", "GO:0009116")],
            strict=False,
        )
        assert inserted == 1

    def test_evidence_stored(self, repo, two_sources):
        locuslink, go = two_sources
        rel = repo.ensure_source_rel(locuslink, go, RelType.SIMILARITY)
        repo.add_associations(rel, [("353", "GO:0009116", 0.8)])
        associations = repo.associations_of(rel)
        assert associations[0].evidence == pytest.approx(0.8)

    def test_associations_materialize_accessions(self, repo, two_sources):
        locuslink, go = two_sources
        rel = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        repo.add_associations(rel, [("353", "GO:0009116")])
        assoc = repo.associations_of(rel)[0]
        assert assoc.source_accession == "353"
        assert assoc.target_accession == "GO:0009116"

    def test_intra_source_associations(self, repo, two_sources):
        __, go = two_sources
        rel = repo.ensure_source_rel(go, go, RelType.IS_A)
        assert repo.add_associations(rel, [("GO:0009116", "GO:0007155")]) == 1


class TestFetchMapping:
    def test_orients_stored_direction(self, repo, two_sources):
        locuslink, go = two_sources
        rel = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        repo.add_associations(rel, [("353", "GO:0009116")])
        __, associations = repo.fetch_mapping_associations(locuslink, go)
        assert associations[0].source_accession == "353"

    def test_orients_reverse_direction(self, repo, two_sources):
        locuslink, go = two_sources
        rel = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        repo.add_associations(rel, [("353", "GO:0009116")])
        __, associations = repo.fetch_mapping_associations(go, locuslink)
        assert associations[0].source_accession == "GO:0009116"
        assert associations[0].target_accession == "353"

    def test_missing_mapping_raises(self, repo, two_sources):
        locuslink, go = two_sources
        with pytest.raises(UnknownMappingError):
            repo.fetch_mapping_associations(locuslink, go)

    def test_prefers_imported_over_derived(self, repo, two_sources):
        locuslink, go = two_sources
        composed = repo.ensure_source_rel(locuslink, go, RelType.COMPOSED)
        repo.add_associations(composed, [("353", "GO:0007155")])
        fact = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        repo.add_associations(fact, [("353", "GO:0009116")])
        rel, associations = repo.fetch_mapping_associations(locuslink, go)
        assert rel.type is RelType.FACT
        assert associations[0].target_accession == "GO:0009116"


class TestObjectInfo:
    def test_annotations_of_object_collects_both_directions(
        self, repo, two_sources
    ):
        locuslink, go = two_sources
        rel = repo.ensure_source_rel(locuslink, go, RelType.FACT)
        repo.add_associations(rel, [("353", "GO:0009116")])
        info_ll = repo.annotations_of_object(locuslink, "353")
        info_go = repo.annotations_of_object(go, "GO:0009116")
        assert [(p, a.target_accession) for p, __, a in info_ll] == [
            ("GO", "GO:0009116")
        ]
        assert [(p, a.target_accession) for p, __, a in info_go] == [
            ("LocusLink", "353")
        ]


class TestLeanLoads:
    """Mapping loads stream their rows and share accession objects."""

    RAW = (
        "SELECT o1.accession AS acc1, o2.accession AS acc2, r.evidence"
        " FROM object_rel r"
        " JOIN object o1 ON o1.object_id = r.object1_id"
        " JOIN object o2 ON o2.object_id = r.object2_id"
        " WHERE r.src_rel_id = ? ORDER BY acc1, acc2"
    )

    @pytest.mark.parametrize(
        "source, target, forward",
        [("LocusLink", "GO", True), ("GO", "LocusLink", False)],
    )
    def test_loads_match_plain_sqlite(self, loaded_genmapper, source, target, forward):
        from repro.operators.simple import map_

        repo = loaded_genmapper.repository
        rel, __ = repo.fetch_mapping_associations(source, target)
        raw = [
            tuple(row)
            for row in repo.db.connection.execute(self.RAW, (rel.src_rel_id,))
        ]
        assert len(raw) > 50
        loaded = [
            (a.source_accession, a.target_accession, a.evidence)
            for a in repo.associations_of(rel)
        ]
        assert loaded == raw
        mapping = map_(repo, source, target)
        expected = raw if forward else [(b, a, ev) for a, b, ev in raw]
        assert [
            (a.source_accession, a.target_accession, a.evidence) for a in mapping
        ] == expected
        assert len({id(a.source_accession) for a in mapping}) == len(mapping.domain())
        assert len({id(a.target_accession) for a in mapping}) == len(mapping.range())
