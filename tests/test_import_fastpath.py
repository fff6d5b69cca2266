"""The bulk-ingest fast path: indexed datasets, counted writes, pushdown
derivation and parallel manifest import (see ``docs/performance.md``).

Locks the contracts the acceleration layer must keep: dataset indexes
agree with naive scans and invalidate on mutation, insert counts come
from the write cursor (concurrency-safe), the bulk accession cache stays
coherent across targets, both derivation engines store identical
associations, and a parallel manifest import produces the same reports
as a serial one.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.genmapper import GenMapper
from repro.datagen.emit import write_universe
from repro.datagen.universe import UniverseConfig, generate_universe
from repro.derived.composed import derive_composed
from repro.derived.subsumed import derive_subsumed
from repro.eav.model import (
    CONTAINS_TARGET,
    IS_A_TARGET,
    NAME_TARGET,
    EavRow,
)
from repro.eav.store import EavDataset, EavRowsView
from repro.gam.database import GamDatabase
from repro.gam.dump import canonical_snapshot
from repro.gam.enums import RelType
from repro.gam.errors import (
    GamIntegrityError,
    ImportError_,
    ParseError,
    UnknownMappingError,
)
from repro.gam.repository import GamRepository
from repro.importer.importer import GamImporter
from repro.importer.pipeline import ManifestEntry, write_manifest
from repro.reliability.checkpoint import ImportJournal
from tests import oracle
from tests.conftest import GO_MINI_OBO, LOCUS_353_RECORD


def _sample_dataset() -> EavDataset:
    return EavDataset(
        "S",
        [
            EavRow("a", NAME_TARGET, "a", text="gene a"),
            EavRow("a", "GO", "GO:1", evidence=0.5),
            EavRow("b", "GO", "GO:1"),
            EavRow("b", "GO", "GO:2"),
            EavRow("b", "OMIM", "1234"),
            EavRow("S.part", CONTAINS_TARGET, "a"),
            EavRow("S.part", CONTAINS_TARGET, "b"),
        ],
    )


class TestDatasetIndexes:
    def test_indexes_agree_with_naive_scans(self):
        dataset = _sample_dataset()
        for target in dataset.targets():
            naive = [row for row in dataset if row.target == target]
            assert list(dataset.rows_for_target(target)) == naive
        for entity in dataset.entities():
            naive = [row for row in dataset if row.entity == entity]
            assert list(dataset.rows_for_entity(entity)) == naive

    def test_orderings_are_first_seen(self):
        dataset = _sample_dataset()
        assert dataset.entities() == ["a", "b", "S.part"]
        assert dataset.targets() == [NAME_TARGET, "GO", "OMIM", CONTAINS_TARGET]
        assert dataset.annotation_targets() == ["GO", "OMIM"]

    def test_missing_keys_return_empty(self):
        dataset = _sample_dataset()
        assert dataset.rows_for_target("nope") == ()
        assert dataset.rows_for_entity("nope") == ()

    def test_partition_entities(self):
        dataset = _sample_dataset()
        assert dataset.partition_entities() == {"S.part"}

    def test_entity_with_contains_and_annotation_is_not_partition(self):
        dataset = _sample_dataset()
        dataset.append(EavRow("S.part", "GO", "GO:3"))
        assert dataset.partition_entities() == frozenset()

    def test_has_reduced_evidence(self):
        dataset = _sample_dataset()
        assert dataset.has_reduced_evidence("GO")
        assert not dataset.has_reduced_evidence("OMIM")

    def test_append_invalidates_indexes(self):
        dataset = _sample_dataset()
        assert len(dataset.rows_for_target("GO")) == 3
        dataset.append(EavRow("c", "GO", "GO:9"))
        assert len(dataset.rows_for_target("GO")) == 4
        assert "c" in dataset.entities()

    def test_extend_invalidates_indexes(self):
        dataset = _sample_dataset()
        assert not dataset.has_reduced_evidence("OMIM")
        dataset.extend([EavRow("d", "OMIM", "99", evidence=0.1)])
        assert dataset.has_reduced_evidence("OMIM")

    def test_target_counts(self):
        dataset = _sample_dataset()
        assert dataset.target_counts()["GO"] == 3
        assert dataset.target_counts()[CONTAINS_TARGET] == 2


class TestRowsView:
    def test_view_is_not_a_copy(self):
        dataset = _sample_dataset()
        assert dataset.rows is dataset.rows  # stable object, no per-access copy

    def test_view_is_live(self):
        dataset = _sample_dataset()
        view = dataset.rows
        before = len(view)
        dataset.append(EavRow("z", "GO", "GO:8"))
        assert len(view) == before + 1
        assert view[-1].entity == "z"

    def test_view_supports_sequence_protocol(self):
        dataset = _sample_dataset()
        view = dataset.rows
        assert isinstance(view, EavRowsView)
        assert view[0].entity == "a"
        assert [row.entity for row in view[:2]] == ["a", "a"]
        assert view == list(view)
        assert list(reversed(view))[0] == view[-1]
        assert view.count(view[0]) == 1
        assert view.index(view[1]) == 1

    def test_view_rejects_mutation(self):
        view = _sample_dataset().rows
        with pytest.raises(TypeError):
            view[0] = None
        with pytest.raises(AttributeError):
            view.append(EavRow("x", "GO", "GO:1"))


class TestCountedWrites:
    def test_executemany_counted_counts_only_inserts(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            sql = (
                "INSERT OR IGNORE INTO object (source_id, accession)"
                " VALUES (?, ?)"
            )
            assert db.executemany_counted(sql, [(1, "x"), (1, "y")]) == 2
            assert db.executemany_counted(sql, [(1, "x"), (1, "z")]) == 1
            assert db.executemany_counted(sql, [(1, "x"), (1, "y")]) == 0

    def test_executemany_counted_streams_generators_in_chunks(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            rows = ((1, f"acc{i}") for i in range(25))
            count = db.executemany_counted(
                "INSERT OR IGNORE INTO object (source_id, accession)"
                " VALUES (?, ?)",
                rows,
                chunk_size=4,
            )
            assert count == 25
            assert repo.count_objects("A") == 25

    def test_executemany_counted_rolls_back_on_error(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")

            def bad_rows():
                yield (1, "ok")
                raise RuntimeError("boom")

            with pytest.raises(RuntimeError):
                db.executemany_counted(
                    "INSERT OR IGNORE INTO object (source_id, accession)"
                    " VALUES (?, ?)",
                    bad_rows(),
                    chunk_size=1,
                )
            assert repo.count_objects("A") == 0

    def test_strict_error_rolls_back_partial_association_chunks(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            repo.add_objects("A", [("a1",), ("a2",)])
            rel = repo.ensure_source_rel("A", "A", RelType.FACT)
            rows = [("a1", "a2"), ("a2", "a1"), ("a1", "ghost")]
            with pytest.raises(GamIntegrityError, match="ghost"):
                repo.add_associations(rel, rows)
            assert repo.count_associations(rel) == 0

    def test_add_objects_upsert_semantics_preserved(self):
        # The split insert/update passes must behave exactly like the old
        # single upsert, including within-batch duplicate sequences.
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            inserted = repo.add_objects(
                "A", [("x", "first"), ("x", None, 5.0), ("x", "second")]
            )
            assert inserted == 1
            obj = repo.get_object("A", "x")
            assert obj.text == "second"
            assert obj.number == 5.0
            # Re-offering with nulls keeps stored values; with new text
            # overwrites.
            assert repo.add_objects("A", [("x",)]) == 0
            assert repo.get_object("A", "x").text == "second"
            assert repo.add_objects("A", [("x", "third")]) == 0
            assert repo.get_object("A", "x").text == "third"


class TestBulkImportCache:
    def test_cache_updates_incrementally(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            with repo.bulk_import():
                repo.add_objects("A", [("a1",), ("a2",)])
                # The cached map must already contain the fresh inserts.
                assert set(repo.accessions_of("A")) == {"a1", "a2"}
                rel = repo.ensure_source_rel("A", "A", RelType.FACT)
                assert repo.add_associations(rel, [("a1", "a2")]) == 1

    def test_nested_scopes_share_the_outer_cache(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            with repo.bulk_import():
                repo.add_objects("A", [("a1",)])
                with repo.bulk_import():
                    assert repo.accessions_of("A") == {"a1"}
                # The inner exit must not tear the outer scope down.
                assert repo._bulk_ids() is not None
            assert repo._bulk_ids() is None

    def test_cache_is_dropped_outside_the_scope(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            with repo.bulk_import():
                repo.add_objects("A", [("a1",)])
            # Outside the scope, lookups hit the database again.
            db.execute(
                "INSERT INTO object (source_id, accession) VALUES (1, 'a2')"
            )
            assert repo.accessions_of("A") == {"a1", "a2"}


class TestConcurrentImportCounts:
    def test_two_threads_importing_distinct_sources_count_exactly(self):
        """Regression: COUNT(*)-delta accounting let a pool-sibling writer
        skew another import's reported insert counts."""
        with GamDatabase() as db:
            def dataset_for(name: str) -> EavDataset:
                rows = [
                    EavRow(f"{name}-e{i}", "GO", f"GO:{i % 7}")
                    for i in range(200)
                ]
                return EavDataset(name, rows)

            importer = GamImporter(GamRepository(db))
            reports = {}
            errors = []

            def run(name: str) -> None:
                try:
                    reports[name] = importer.import_dataset(dataset_for(name))
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(name,))
                for name in ("SrcA", "SrcB")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for name in ("SrcA", "SrcB"):
                assert reports[name].new_objects == 200
                assert reports[name].new_associations["GO"] == 200
            # GO target objects are shared: exactly 7 exist, and the two
            # reports' inserted counts add up to exactly that.
            repo = GamRepository(db)
            assert repo.count_objects("GO") == 7
            assert (
                reports["SrcA"].new_target_objects["GO"]
                + reports["SrcB"].new_target_objects["GO"]
                == 7
            )


class TestReimportSemantics:
    def _dataset(self) -> EavDataset:
        return EavDataset(
            "S",
            [
                EavRow("a", NAME_TARGET, "a", text="gene a"),
                EavRow("a", "GO", "GO:1"),
                EavRow("a", "GO", "GO:1"),  # in-batch duplicate
                EavRow("b", "GO", "GO:2"),
                EavRow("b", IS_A_TARGET, "a"),
                EavRow("S.part", CONTAINS_TARGET, "a"),
                EavRow("S.part", CONTAINS_TARGET, "ghost"),
            ],
        )

    def test_second_import_inserts_nothing(self):
        with GamDatabase() as db:
            importer = GamImporter(GamRepository(db))
            first = importer.import_dataset(self._dataset())
            assert first.new_objects == 2
            assert first.new_associations["GO"] == 2  # duplicate row deduped
            assert first.new_associations[IS_A_TARGET] == 1
            assert first.new_associations["S.part"] == 1
            assert first.skipped_rows == 1  # the ghost member
            second = importer.import_dataset(self._dataset())
            assert second.new_objects == 0
            assert second.total_associations == 0
            assert second.new_target_objects["GO"] == 0
            # Skip accounting reflects offered rows, not stored state.
            assert second.skipped_rows == 1

    def test_partition_entity_never_becomes_an_object(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            importer = GamImporter(repo)
            importer.import_dataset(self._dataset())
            assert repo.accessions_of("S") == {"a", "b"}
            assert repo.find_object("S", "S.part") is None
            # The partition itself exists as a source holding every
            # offered member (only the ghost's membership is skipped).
            assert repo.accessions_of("S.part") == {"a", "ghost"}

    def test_strict_false_skips_unknown_accessions(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            repo.add_source("A")
            repo.add_objects("A", [("a1",), ("a2",)])
            rel = repo.ensure_source_rel("A", "A", RelType.FACT)
            inserted = repo.add_associations(
                rel,
                [("a1", "a2"), ("a1", "ghost"), ("ghost", "a2"), ("a2", "a1")],
                strict=False,
            )
            assert inserted == 2
            assert repo.count_associations(rel) == 2


class TestDerivationPushdown:
    def test_composed_engines_store_identical_associations(self, paper_genmapper):
        repo = paper_genmapper.repository
        path = ["Unigene", "LocusLink", "GO"]
        sql_mapping = derive_composed(repo, path)
        sql_rel = repo.find_source_rels("Unigene", "GO", RelType.COMPOSED)[0]
        sql_stored = set(repo.associations_of(sql_rel))
        # Wipe and re-derive through the Python oracle.
        repo.db.execute(
            "DELETE FROM object_rel WHERE src_rel_id = ?", (sql_rel.src_rel_id,)
        )
        oracle.derive_composed(repo, path)
        memory_stored = set(repo.associations_of(sql_rel))
        assert sql_stored == memory_stored
        assert sql_mapping == oracle.compose(repo, path)

    def test_composed_sql_materialization_idempotent(self, paper_genmapper):
        repo = paper_genmapper.repository
        path = ["Unigene", "LocusLink", "GO"]
        derive_composed(repo, path)
        rel = repo.find_source_rels("Unigene", "GO", RelType.COMPOSED)[0]
        count = repo.count_associations(rel)
        derive_composed(repo, path)
        assert repo.count_associations(rel) == count

    def test_composed_engine_validation(self, paper_genmapper):
        """The database evaluates only the named combiners; any other
        callable is refused before anything is written."""
        repo = paper_genmapper.repository
        with pytest.raises(ValueError, match="unsupported evidence combiner"):
            derive_composed(
                repo,
                ["Unigene", "LocusLink", "GO"],
                combiner=lambda a, b: a * b,
            )
        assert not repo.find_source_rels("Unigene", "GO", RelType.COMPOSED)

    def test_subsumed_engines_store_identical_associations(self, paper_genmapper):
        repo = paper_genmapper.repository
        rel, inserted = derive_subsumed(repo, "GO")
        sql_stored = set(repo.associations_of(rel))
        assert inserted == len(sql_stored) == 3
        repo.db.execute(
            "DELETE FROM object_rel WHERE src_rel_id = ?", (rel.src_rel_id,)
        )
        __, memory_inserted = oracle.derive_subsumed(repo, "GO")
        assert memory_inserted == 3
        assert set(repo.associations_of(rel)) == sql_stored

    def test_subsumed_sql_requires_is_a_structure(self, paper_genmapper):
        with pytest.raises(UnknownMappingError):
            derive_subsumed(paper_genmapper.repository, "LocusLink")

    def test_subsumed_sql_rejects_cycles(self):
        with GamDatabase() as db:
            repo = GamRepository(db)
            importer = GamImporter(repo)
            importer.import_dataset(
                EavDataset(
                    "Cyc",
                    [
                        EavRow("a", IS_A_TARGET, "b"),
                        EavRow("b", IS_A_TARGET, "a"),
                    ],
                )
            )
            with pytest.raises(GamIntegrityError, match="cycle"):
                derive_subsumed(repo, "Cyc")
            # The failed derivation must leave nothing behind.
            rel = repo.find_source_rels("Cyc", "Cyc", RelType.SUBSUMED)
            assert not rel or repo.count_associations(rel[0]) == 0


@pytest.fixture(scope="module")
def universe_dir(tmp_path_factory):
    universe = generate_universe(UniverseConfig(seed=5, n_genes=40, n_go_terms=30))
    directory = tmp_path_factory.mktemp("fastpath_universe")
    write_universe(universe, directory)
    return directory


#: Import timestamp of :func:`_import_directory`, so reports compare whole.
FIXED_CLOCK = "2003-10-01 00:00:00"


def _import_directory(gm: GenMapper, directory, workers: int) -> dict:
    """Import a manifest directory; everything the import decided."""
    gm.pipeline.importer = GamImporter(gm.repository, clock=lambda: FIXED_CLOCK)
    reports = gm.integrate_directory(directory, workers=workers)
    repo = gm.repository
    sources = [(source.source_id, source.name) for source in repo.list_sources()]
    state = {"tables": gm.db.counts()}
    for source in repo.list_sources():
        state[f"objects:{source.name}"] = repo.accessions_of(source)
    for rel in repo.find_source_rels():
        names = (
            repo.get_source(rel.source1_id).name,
            repo.get_source(rel.source2_id).name,
            rel.type.value,
        )
        state[f"rel:{names}"] = repo.count_associations(rel)
    return {
        "reports": reports,
        "sources": sources,
        "state": state,
        "snapshot": canonical_snapshot(repo),
    }


class TestParallelDirectoryImport:
    def test_parallel_matches_serial(self, universe_dir):
        """Parse processes change nothing the import decides: every
        ``workers=4`` run assigns the serial run's source ids, stores
        its database and returns its reports field for field."""
        with GenMapper() as serial_gm:
            serial = _import_directory(serial_gm, universe_dir, workers=1)
        assert len(serial["reports"]) > 1
        for __ in range(5):
            with GenMapper() as parallel_gm:
                parallel = _import_directory(parallel_gm, universe_dir, workers=4)
            assert parallel["sources"] == serial["sources"]
            assert parallel["reports"] == serial["reports"]
            assert parallel["state"] == serial["state"]
            assert parallel["snapshot"] == serial["snapshot"]

    def test_parallel_failure_keeps_earlier_sources_only(self, tmp_path):
        """A malformed third file stops a ``workers=2`` import where a
        serial import stops: the first two sources are imported and
        checkpointed, nothing after them is."""
        (tmp_path / "ll.txt").write_text(LOCUS_353_RECORD, encoding="utf-8")
        (tmp_path / "go.obo").write_text(GO_MINI_OBO, encoding="utf-8")
        (tmp_path / "unigene.txt").write_text(
            "ID          Hs.28914\nTITLE       APRT\nGENE\n", encoding="utf-8"
        )
        (tmp_path / "hugo.tsv").write_text(
            "symbol\tlocuslink\nAPRT\t353\n", encoding="utf-8"
        )
        entries = [
            ManifestEntry("ll.txt", "LocusLink", "r1"),
            ManifestEntry("go.obo", "GO", "r1"),
            ManifestEntry("unigene.txt", "Unigene", "r1"),
            ManifestEntry("hugo.tsv", "Hugo", "r1"),
        ]
        write_manifest(tmp_path / "manifest.tsv", entries)
        write_manifest(tmp_path / "first_two.tsv", entries[:2])
        with GenMapper() as expected_gm:
            expected_gm.pipeline.integrate_directory(
                tmp_path, manifest_name="first_two.tsv"
            )
            expected_sources = expected_gm.repository.list_sources()
            expected_snapshot = canonical_snapshot(expected_gm.repository)
        with GenMapper() as gm:
            with pytest.raises(ParseError, match="expected 'KEY value'") as caught:
                gm.integrate_directory(tmp_path, workers=2)
            assert caught.value.line_number == 3
            sources = gm.repository.list_sources()
            assert [(s.source_id, s.name) for s in sources] == [
                (s.source_id, s.name) for s in expected_sources
            ]
            assert {s.name for s in sources if s.release == "r1"} == {
                "LocusLink", "GO"
            }
            assert canonical_snapshot(gm.repository) == expected_snapshot
            assert sorted(ImportJournal(gm.db).entries()) == [
                "GO/go.obo", "LocusLink/ll.txt"
            ]

    def test_workers_env_default(self, universe_dir, monkeypatch):
        monkeypatch.setenv("REPRO_IMPORT_WORKERS", "4")
        with GenMapper() as gm:
            reports = gm.integrate_directory(universe_dir)
        assert len(reports) > 1
        assert all(report.new_objects >= 0 for report in reports)

    def test_parallel_missing_file_fails_before_importing(self, tmp_path):
        (tmp_path / "manifest.tsv").write_text(
            "# file\tsource\trelease\nmissing.txt\tLocusLink\t\n",
            encoding="utf-8",
        )
        with GenMapper() as gm:
            with pytest.raises(ImportError_, match="missing file"):
                gm.integrate_directory(tmp_path, workers=4)
            assert gm.sources() == []
