"""Tests for incremental view maintenance: the per-source generation
vector, scoped cache invalidation, import watermarks and the delta
refreshes (``repro.derived.refresh``)."""

import pytest

from repro.core.genmapper import GenMapper
from repro.derived import (
    derive_composed,
    derive_subsumed,
    refresh_composed,
    refresh_subsumed,
)
from repro.gam.database import GamDatabase
from repro.gam.dump import canonical_snapshot
from repro.gam.enums import RelType
from repro.gam.errors import GamIntegrityError
from repro.gam.repository import GamRepository
from repro.operators.compose import min_evidence
from repro.reliability.checkpoint import ImportJournal
from tests import oracle


@pytest.fixture()
def db():
    database = GamDatabase(":memory:")
    yield database
    database.close()


@pytest.fixture()
def repo(db):
    return GamRepository(db)


def _build_chain(repo, n_objects: int = 20):
    """Three sources A-B-C with a fact chain and an IS_A forest on C."""
    for name in ("A", "B", "C"):
        repo.add_source(name, "Gene" if name != "C" else "Other")
        repo.add_objects(
            name, [(f"{name.lower()}{i}", None, None) for i in range(n_objects)]
        )
    ab = repo.ensure_source_rel("A", "B", RelType.FACT)
    bc = repo.ensure_source_rel("B", "C", RelType.SIMILARITY)
    repo.add_associations(ab, [(f"a{i}", f"b{i}", 0.9) for i in range(10)])
    repo.add_associations(bc, [(f"b{i}", f"c{i % 5}", 0.8) for i in range(10)])
    isa = repo.ensure_source_rel("C", "C", RelType.IS_A)
    repo.add_associations(
        isa, [(f"c{i}", f"c{i // 2}", 1.0) for i in range(1, 10)]
    )
    return ab, bc, isa


# -- generation vector ------------------------------------------------------


class TestGenerationVector:
    def test_scoped_write_moves_only_named_sources(self, db):
        base_a = db.source_generation("A")
        base_b = db.source_generation("B")
        with db.write_scope("A"):
            db.bump_generation()
        assert db.source_generation("A") > base_a
        assert db.source_generation("B") == base_b

    def test_untagged_write_raises_the_floor(self, db):
        with db.write_scope("A"):
            db.bump_generation()
        tagged = db.source_generation("A")
        db.bump_generation(None)
        # The floor covers every source, named or not.
        assert db.source_generation("A") > tagged
        assert db.source_generation("never-written") == db.source_generation("A")

    def test_neutral_scope_bumps_clock_only(self, db):
        before_a = db.source_generation("A")
        clock_before = db.data_generation()
        with db.write_scope():
            db.bump_generation()
        assert db.source_generation("A") == before_a
        assert db.data_generation() > clock_before

    def test_generation_of_takes_max_over_sources(self, db):
        with db.write_scope("A"):
            db.bump_generation()
        with db.write_scope("B"):
            db.bump_generation()
        assert db.generation_of(["A", "B"]) == db.source_generation("B")
        assert db.generation_of(["A"]) == db.source_generation("A")
        assert db.generation_of([]) == db.generation_vector()["floor"]

    def test_transaction_commit_covers_written_sources(self, repo):
        db = repo.db
        repo.add_source("A", "Gene")
        gen_a = db.source_generation("A")
        gen_x = db.source_generation("X")
        repo.add_objects("A", [("a1", None, None)])
        assert db.source_generation("A") > gen_a
        assert db.source_generation("X") == gen_x

    def test_vector_survives_mixed_transaction(self, repo):
        """One transaction writing two sources tags both, not the floor."""
        db = repo.db
        repo.add_source("A", "Gene")
        repo.add_source("B", "Gene")
        floor = db.generation_vector()["floor"]
        with db.transaction():
            with db.write_scope("A"):
                db.execute(
                    "INSERT INTO object (source_id, accession) VALUES"
                    " ((SELECT source_id FROM source WHERE name='A'), 'a9')"
                )
            with db.write_scope("B"):
                db.execute(
                    "INSERT INTO object (source_id, accession) VALUES"
                    " ((SELECT source_id FROM source WHERE name='B'), 'b9')"
                )
        vector = db.generation_vector()
        assert vector["floor"] == floor
        assert vector["sources"]["A"] > floor
        assert vector["sources"]["B"] > floor


# -- scoped cache invalidation ---------------------------------------------


class TestScopedInvalidation:
    def test_untouched_pair_survives_other_sources_write(self):
        with GenMapper(enable_cache=True) as gm:
            repo = gm.repository
            _build_chain(repo)
            repo.add_source("D", "Gene")
            repo.add_objects("D", [(f"d{i}", None, None) for i in range(5)])
            cd = repo.ensure_source_rel("C", "D", RelType.FACT)
            repo.add_associations(cd, [("c1", "d1", 1.0)])

            gm.map("A", "B")
            gm.map("C", "D")
            hits_before = gm.cache_stats()["hits"]
            # Re-import style write into A-B only.
            ab = repo.find_source_rels("A", "B", RelType.FACT)[0]
            repo.add_associations(ab, [("a11", "b11", 0.5)])
            gm.map("C", "D")  # untouched pair: still warm
            assert gm.cache_stats()["hits"] == hits_before + 1
            gm.map("A", "B")  # touched pair: reloaded
            stats = gm.cache_stats()
            assert stats["hits"] == hits_before + 1
            assert stats["scoped_invalidations"] >= 1

    def test_dependencies_recorded_for_composed_path(self):
        with GenMapper(enable_cache=True) as gm:
            repo = gm.repository
            _build_chain(repo)
            gm.compose(["A", "B", "C"])
            from repro.cache.mapping_cache import MappingCache

            key = MappingCache.composed_key(["A", "B", "C"], "product")
            deps = gm.cache.dependencies(key)
            # Every source the chain touches, including the intermediate.
            assert deps == ("A", "B", "C")

    def test_intermediate_source_write_invalidates_composed(self):
        with GenMapper(enable_cache=True) as gm:
            repo = gm.repository
            _build_chain(repo)
            gm.compose(["A", "B", "C"])
            hits = gm.cache_stats()["hits"]
            # Write to B only — neither endpoint of the composed pair.
            repo.add_objects("B", [("b77", None, None)])
            gm.compose(["A", "B", "C"])
            assert gm.cache_stats()["hits"] == hits  # miss: reloaded


# -- import watermarks ------------------------------------------------------


class TestWatermarks:
    def test_table_watermarks_track_max_rowids(self, repo):
        journal = ImportJournal(repo.db)
        empty = journal.table_watermarks()
        assert empty == {"object": 0, "object_rel": 0, "source_rel": 0}
        _build_chain(repo)
        marks = journal.table_watermarks()
        assert marks["object"] > 0
        assert marks["object_rel"] > 0
        assert marks["source_rel"] > 0

    def test_record_and_read_watermarks(self, repo):
        journal = ImportJournal(repo.db)
        _build_chain(repo)
        marks = journal.table_watermarks()
        journal.record("GO", "go.obo", "abc", watermarks=marks)
        assert journal.watermarks("GO", "go.obo") == marks
        assert journal.watermarks("GO", "other.obo") is None

    def test_pipeline_records_preimport_watermarks(self, tmp_path):
        from tests.conftest import GO_MINI_OBO, LOCUS_353_RECORD

        (tmp_path / "ll.txt").write_text(LOCUS_353_RECORD)
        (tmp_path / "go.obo").write_text(GO_MINI_OBO)
        (tmp_path / "manifest.tsv").write_text(
            "ll.txt\tLocusLink\t\ngo.obo\tGO\t\n"
        )
        with GenMapper() as gm:
            gm.integrate_directory(tmp_path)
            journal = ImportJournal(gm.db)
            first = journal.watermarks("LocusLink", "ll.txt")
            assert first == {"object": 0, "object_rel": 0, "source_rel": 0}
            second = journal.watermarks("GO", "go.obo")
            # The GO import's watermark delimits the LocusLink rows that
            # were already present.
            assert second is not None
            assert second["object"] > 0

    def test_journal_write_is_generation_neutral(self, repo):
        journal = ImportJournal(repo.db)
        _build_chain(repo)
        vector_before = repo.db.generation_vector()
        journal.record("GO", "go.obo", "abc",
                       watermarks=journal.table_watermarks())
        vector_after = repo.db.generation_vector()
        assert vector_after["floor"] == vector_before["floor"]
        assert vector_after["sources"] == vector_before["sources"]


# -- delta refreshes --------------------------------------------------------

#: The refreshes under test: ``sql`` is the program's, ``memory`` the
#: Python oracle's (``tests/oracle.py``).  Both must equal a full
#: re-derivation.
REFRESHES = {
    "sql": (refresh_composed, refresh_subsumed),
    "memory": (oracle.refresh_composed, oracle.refresh_subsumed),
}


def _append_delta(repo, ab, bc, isa):
    repo.add_associations(ab, [(f"a{i}", f"b{i}", 0.7) for i in range(10, 15)])
    repo.add_associations(
        bc, [(f"b{i}", f"c{i % 7 + 5}", 0.95) for i in range(10, 15)]
    )
    repo.add_associations(
        isa, [(f"c{i}", f"c{i - 10}", 1.0) for i in range(10, 15)]
    )


def _watermark(db) -> int:
    return int(
        db.execute("SELECT coalesce(max(obj_rel_id), 0) FROM object_rel")
        .fetchone()[0]
    )


class TestRefreshEquivalence:
    @pytest.mark.parametrize("engine", ["sql", "memory"])
    def test_refresh_matches_full_rederive(self, engine):
        refresh_composed, refresh_subsumed = REFRESHES[engine]
        full_db = GamDatabase(":memory:")
        delta_db = GamDatabase(":memory:")
        full, delta = GamRepository(full_db), GamRepository(delta_db)
        rels_full = _build_chain(full)
        rels_delta = _build_chain(delta)
        derive_composed(delta, ["A", "B", "C"])
        derive_subsumed(delta, "C")
        watermark = _watermark(delta_db)
        _append_delta(full, *rels_full)
        _append_delta(delta, *rels_delta)
        derive_composed(full, ["A", "B", "C"])
        derive_subsumed(full, "C")
        refresh_composed(delta, ["A", "B", "C"], watermark=watermark)
        refresh_subsumed(delta, "C", watermark=watermark)
        assert canonical_snapshot(full) == canonical_snapshot(delta)
        full_db.close()
        delta_db.close()

    @pytest.mark.parametrize("engine", ["sql", "memory"])
    def test_zero_watermark_equals_full_derivation(self, repo, engine):
        refresh_composed, __ = REFRESHES[engine]
        _build_chain(repo)
        report = refresh_composed(repo, ["A", "B", "C"])
        assert report.watermark == 0
        assert report.changed > 0
        twin_db = GamDatabase(":memory:")
        twin = GamRepository(twin_db)
        _build_chain(twin)
        derive_composed(twin, ["A", "B", "C"])
        assert canonical_snapshot(twin) == canonical_snapshot(repo)
        twin_db.close()

    @pytest.mark.parametrize("engine", ["sql", "memory"])
    def test_min_combiner_supported(self, repo, engine):
        refresh_composed, __ = REFRESHES[engine]
        rels = _build_chain(repo)
        derive_composed(repo, ["A", "B", "C"], combiner=min_evidence)
        watermark = _watermark(repo.db)
        _append_delta(repo, *rels)
        report = refresh_composed(
            repo, ["A", "B", "C"], combiner=min_evidence, watermark=watermark
        )
        assert report.changed > 0
        twin_db = GamDatabase(":memory:")
        twin = GamRepository(twin_db)
        twin_rels = _build_chain(twin)
        _append_delta(twin, *twin_rels)
        derive_composed(twin, ["A", "B", "C"], combiner=min_evidence)
        assert canonical_snapshot(twin) == canonical_snapshot(repo)
        twin_db.close()


class TestRefreshBehavior:
    def test_noop_at_current_watermark(self, repo):
        _build_chain(repo)
        derive_composed(repo, ["A", "B", "C"])
        derive_subsumed(repo, "C")
        watermark = _watermark(repo.db)
        composed = refresh_composed(repo, ["A", "B", "C"], watermark=watermark)
        subsumed = refresh_subsumed(repo, "C", watermark=watermark)
        assert composed.delta_edges == 0 and composed.changed == 0
        assert subsumed.delta_edges == 0 and subsumed.changed == 0

    def test_noop_leaves_generation_vector_alone_for_others(self, repo):
        """A refresh only moves the generations of its own endpoints."""
        rels = _build_chain(repo)
        repo.add_source("D", "Gene")
        derive_composed(repo, ["A", "B", "C"])
        watermark = _watermark(repo.db)
        _append_delta(repo, *rels)
        gen_d = repo.db.source_generation("D")
        floor = repo.db.generation_vector()["floor"]
        refresh_composed(repo, ["A", "B", "C"], watermark=watermark)
        assert repo.db.source_generation("D") == gen_d
        assert repo.db.generation_vector()["floor"] == floor

    def test_evidence_upgraded_when_stronger_chain_appears(self, repo):
        rels = _build_chain(repo)
        derive_composed(repo, ["A", "B", "C"])
        watermark = _watermark(repo.db)
        # New hop a0-b5 (1.0) joins existing b5-c0 (0.8): chain 0.8 beats
        # the stored a0-c0 evidence 0.72.
        repo.add_associations(rels[0], [("a0", "b5", 1.0)])
        refresh_composed(repo, ["A", "B", "C"], watermark=watermark)
        row = repo.db.execute(
            "SELECT r.evidence FROM object_rel r"
            " JOIN object o1 ON o1.object_id = r.object1_id"
            " JOIN object o2 ON o2.object_id = r.object2_id"
            " JOIN source_rel sr ON sr.src_rel_id = r.src_rel_id"
            " WHERE sr.type = ? AND o1.accession = 'a0'"
            " AND o2.accession = 'c0'",
            (RelType.COMPOSED.value,),
        ).fetchone()
        assert row[0] == pytest.approx(0.8)

    @pytest.mark.parametrize("engine", ["sql", "memory"])
    def test_cycle_in_delta_rolls_back(self, repo, engine):
        __, refresh_subsumed = REFRESHES[engine]
        rels = _build_chain(repo)
        derive_subsumed(repo, "C")
        watermark = _watermark(repo.db)
        # c9 descends from c1, so c1 -> c9 closes a cycle.
        repo.add_associations(rels[2], [("c1", "c9", 1.0)])
        with pytest.raises(GamIntegrityError):
            refresh_subsumed(repo, "C", watermark=watermark)
        leaked = repo.db.execute(
            "SELECT count(*) FROM object_rel r"
            " JOIN source_rel sr ON sr.src_rel_id = r.src_rel_id"
            " WHERE sr.type = ? AND r.object1_id = r.object2_id",
            (RelType.SUBSUMED.value,),
        ).fetchone()[0]
        assert leaked == 0

    def test_watermark_dict_accepted(self, repo):
        rels = _build_chain(repo)
        derive_composed(repo, ["A", "B", "C"])
        journal = ImportJournal(repo.db)
        marks = journal.table_watermarks()
        _append_delta(repo, *rels)
        report = refresh_composed(repo, ["A", "B", "C"], watermark=marks)
        assert report.watermark == marks["object_rel"]
        assert report.changed > 0

    def test_delta_rows_metric_counts_changes(self, repo):
        from repro.obs import get_registry

        rels = _build_chain(repo)
        derive_composed(repo, ["A", "B", "C"])
        watermark = _watermark(repo.db)
        _append_delta(repo, *rels)
        counter = get_registry().counter("derived.delta_rows")
        before = counter.value
        report = refresh_composed(repo, ["A", "B", "C"], watermark=watermark)
        assert counter.value == before + report.changed


class TestFacadeAndCli:
    def test_facade_refresh_methods(self):
        with GenMapper() as gm:
            rels = _build_chain(gm.repository)
            gm.compose(["A", "B", "C"], materialize=True)
            gm.derive_subsumed("C")
            watermark = _watermark(gm.db)
            _append_delta(gm.repository, *rels)
            composed = gm.refresh_composed(["A", "B", "C"], watermark=watermark)
            subsumed = gm.refresh_subsumed("C", watermark=watermark)
            assert composed.changed > 0
            assert subsumed.changed > 0

    # SQL is the only engine of compose and subsume, so the former
    # ``--engine`` flag is refused as a usage error for every value it
    # once took, and the command runs without it.

    @pytest.mark.parametrize("engine", ["auto", "sql", "memory"])
    def test_cli_compose_engine_flag(self, tmp_path, capsys, engine):
        from repro.cli import main

        db = tmp_path / "gam.db"
        with GenMapper(db) as gm:
            _build_chain(gm.repository)
        with pytest.raises(SystemExit) as exit_info:
            main([
                "--db", str(db), "compose", "A", "B", "C",
                "--engine", engine, "--materialize",
            ])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err
        assert main(["--db", str(db), "compose", "A", "B", "C", "--materialize"]) == 0
        assert "materialized" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["auto", "sql", "memory"])
    def test_cli_subsume_engine_flag(self, tmp_path, capsys, engine):
        from repro.cli import main

        db = tmp_path / "gam.db"
        with GenMapper(db) as gm:
            _build_chain(gm.repository)
        with pytest.raises(SystemExit) as exit_info:
            main(["--db", str(db), "subsume", "C", "--engine", engine])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err
        assert main(["--db", str(db), "subsume", "C"]) == 0
        assert "Subsumed" in capsys.readouterr().out
