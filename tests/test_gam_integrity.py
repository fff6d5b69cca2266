"""Tests for the cross-table integrity checks."""

import pytest

from repro.gam.database import GamDatabase
from repro.gam.enums import RelType
from repro.gam.integrity import check
from repro.gam.repository import GamRepository


@pytest.fixture()
def db():
    database = GamDatabase()
    yield database
    database.close()


@pytest.fixture()
def repo(db):
    return GamRepository(db)


def _valid_world(repo):
    a = repo.add_source("A", "Gene", "Flat")
    b = repo.add_source("B", "Other", "Network")
    repo.add_objects(a, [("a1",), ("a2",)])
    repo.add_objects(b, [("b1",), ("b2",)])
    rel = repo.ensure_source_rel(a, b, RelType.FACT)
    repo.add_associations(rel, [("a1", "b1"), ("a2", "b2")])
    isa = repo.ensure_source_rel(b, b, RelType.IS_A)
    repo.add_associations(isa, [("b2", "b1")])
    return a, b


class TestIntegrityCheck:
    def test_valid_database_is_ok(self, db, repo):
        _valid_world(repo)
        report = check(db)
        assert report.ok
        assert str(report) == "integrity: OK"

    def test_detects_endpoint_mismatch(self, db, repo):
        a, b = _valid_world(repo)
        # Hand-craft an association whose object1 is not from source1.
        b1 = repo.get_object(b, "b1")
        rel = repo.find_source_rels(a, b, RelType.FACT)[0]
        db.execute(
            "INSERT INTO object_rel (src_rel_id, object1_id, object2_id)"
            " VALUES (?, ?, ?)",
            (rel.src_rel_id, b1.object_id, b1.object_id),
        )
        report = check(db)
        assert not report.ok
        assert any(v.rule == "association-endpoints" for v in report.violations)

    def test_detects_structural_rel_on_flat_source(self, db, repo):
        a, __ = _valid_world(repo)
        db.execute(
            "INSERT INTO source_rel (source1_id, source2_id, type)"
            " VALUES (?, ?, 'Is-a')",
            (a.source_id, a.source_id),
        )
        report = check(db)
        assert any(
            v.rule == "structural-needs-network" for v in report.violations
        )

    def test_detects_out_of_range_evidence(self, db, repo):
        _valid_world(repo)
        db.execute("UPDATE object_rel SET evidence = 1.5 WHERE obj_rel_id = 1")
        report = check(db)
        assert any(v.rule == "evidence-range" for v in report.violations)

    @pytest.mark.parametrize(
        ("dangling_row", "rule"),
        [
            pytest.param(
                "INSERT INTO object (source_id, accession) VALUES (999, 'x')",
                "object-source-fk",
                id="object-source-fk",
            ),
            pytest.param(
                "INSERT INTO source_rel (source1_id, source2_id, type)"
                " VALUES (1, 999, 'Fact')",
                "source-rel-source-fk",
                id="source-rel-source-fk",
            ),
            pytest.param(
                "INSERT INTO object_rel (src_rel_id, object1_id, object2_id)"
                " VALUES (999, 1, 3)",
                "object-rel-source-rel-fk",
                id="object-rel-source-rel-fk",
            ),
            pytest.param(
                "INSERT INTO object_rel (src_rel_id, object1_id, object2_id)"
                " VALUES (1, 998, 999)",
                "object-rel-object-fk",
                id="object-rel-object-fk",
            ),
        ],
    )
    def test_detects_dangling_row(self, db, repo, dangling_row, rule):
        _valid_world(repo)
        db.commit()  # pragma changes need to happen outside a transaction
        db.execute("PRAGMA foreign_keys = OFF")
        db.execute(dangling_row)
        report = check(db)
        assert rule in {v.rule for v in report.violations}

    def test_violation_rendering_mentions_rule(self, db, repo):
        _valid_world(repo)
        db.execute("UPDATE object_rel SET evidence = -0.5 WHERE obj_rel_id = 1")
        report = check(db)
        assert "evidence-range" in str(report)

    def test_max_violations_caps_report(self, db, repo):
        _valid_world(repo)
        db.execute("UPDATE object_rel SET evidence = 2.0")
        report = check(db, max_violations=2)
        assert len(report.violations) == 2
