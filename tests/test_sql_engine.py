"""Tests for the SQL view-compilation engine.

The central property: for every specification, the SQL engine and the
in-memory Figure 5 engine produce the same row set.
"""

import pytest

from repro.core.genmapper import GenMapper
from repro.gam.enums import CombineMethod, RelType
from repro.gam.errors import ViewGenerationError
from repro.operators.generate_view import TargetSpec
from repro.operators.sql_engine import SqlViewEngine
from repro.operators.views import row_sort_key


@pytest.fixture()
def engine(paper_genmapper):
    return SqlViewEngine(paper_genmapper.repository)


def both_engines(genmapper, source, targets, source_objects=None,
                 combine="AND"):
    memory = genmapper.generate_view(
        source, targets, source_objects=source_objects, combine=combine,
        engine="memory",
    )
    sql = genmapper.generate_view(
        source, targets, source_objects=source_objects, combine=combine,
        engine="sql",
    )
    return memory, sql


class TestBasicCompilation:
    def test_stored_mapping_view(self, paper_genmapper):
        memory, sql = both_engines(paper_genmapper, "LocusLink", ["GO"])
        assert set(sql.rows) == set(memory.rows)
        assert sql.columns == memory.columns

    def test_multi_target_and(self, paper_genmapper):
        memory, sql = both_engines(
            paper_genmapper, "LocusLink", ["Hugo", "GO", "Location"],
            combine="AND",
        )
        assert set(sql.rows) == set(memory.rows)

    def test_or_preserves_unannotated(self, paper_genmapper):
        paper_genmapper.integrate_text(
            ">>999\nOFFICIAL_SYMBOL: LONELY\n", "LocusLink"
        )
        memory, sql = both_engines(
            paper_genmapper, "LocusLink", ["OMIM"], combine="OR"
        )
        assert set(sql.rows) == set(memory.rows)
        assert ("999", None) in set(sql.rows)

    def test_composed_path_in_sql(self, paper_genmapper):
        # Unigene -> GO has no stored mapping; the engine must compile
        # the 2-hop path into chained object_rel joins.
        memory, sql = both_engines(paper_genmapper, "Unigene", ["GO"])
        assert set(sql.rows) == {("Hs.28914", "GO:0009116")}
        assert set(sql.rows) == set(memory.rows)

    def test_explicit_via_path(self, paper_genmapper):
        view = paper_genmapper.generate_view(
            "Unigene",
            [TargetSpec.of("GO", via=("LocusLink",))],
            combine="AND",
            engine="sql",
        )
        assert set(view.rows) == {("Hs.28914", "GO:0009116")}

    def test_source_object_restriction(self, paper_genmapper):
        paper_genmapper.integrate_text(
            ">>998\nOFFICIAL_SYMBOL: OTHER1\nGO: GO:0009116\n", "LocusLink"
        )
        memory, sql = both_engines(
            paper_genmapper, "LocusLink", ["GO"], source_objects=["353"]
        )
        assert set(sql.rows) == set(memory.rows)
        assert all(row[0] == "353" for row in sql.rows)

    def test_target_restriction(self, paper_genmapper):
        memory, sql = both_engines(
            paper_genmapper, "LocusLink",
            [TargetSpec.of("GO", restrict={"GO:9999999"})],
        )
        assert sql.is_empty()
        assert set(sql.rows) == set(memory.rows)

    def test_negation(self, paper_genmapper):
        paper_genmapper.integrate_text(
            ">>997\nOFFICIAL_SYMBOL: NOOMIM1\nGO: GO:0009116\n", "LocusLink"
        )
        memory, sql = both_engines(
            paper_genmapper, "LocusLink",
            ["GO", TargetSpec.of("OMIM", negated=True)], combine="AND",
        )
        assert set(sql.rows) == set(memory.rows)
        assert {row[0] for row in sql.rows} == {"997"}

    def test_negation_with_restriction(self, paper_genmapper):
        memory, sql = both_engines(
            paper_genmapper, "LocusLink",
            [TargetSpec.of("GO", restrict={"GO:0009116"}, negated=True)],
            combine="AND",
        )
        assert set(sql.rows) == set(memory.rows)

    def test_duplicate_targets_rejected(self, engine):
        with pytest.raises(ViewGenerationError, match="duplicate"):
            engine.compile(
                "LocusLink", None,
                [TargetSpec.of("GO"), TargetSpec.of("GO")],
            )

    def test_compile_returns_single_statement(self, engine):
        sql, parameters, columns = engine.compile(
            "LocusLink", None, [TargetSpec.of("GO")], CombineMethod.AND
        )
        assert sql.count("SELECT DISTINCT") >= 1
        assert sql.startswith("WITH")
        assert columns == ("LocusLink", "GO")
        assert parameters


class TestEquivalenceOverUniverse:
    @pytest.mark.parametrize("combine", ["AND", "OR"])
    @pytest.mark.parametrize(
        "target_names",
        [
            ["Hugo"],
            ["Hugo", "GO"],
            ["GO", "Location", "OMIM"],
            ["Unigene", "Enzyme"],
        ],
    )
    def test_engines_agree(self, loaded_genmapper, combine, target_names):
        memory, sql = both_engines(
            loaded_genmapper, "LocusLink", target_names, combine=combine
        )
        assert set(sql.rows) == set(memory.rows)

    def test_engines_agree_on_negation(self, loaded_genmapper):
        memory, sql = both_engines(
            loaded_genmapper, "LocusLink",
            ["GO", TargetSpec.of("OMIM", negated=True)], combine="AND",
        )
        assert set(sql.rows) == set(memory.rows)

    def test_engines_agree_on_composed_three_hop(self, loaded_genmapper):
        memory, sql = both_engines(
            loaded_genmapper, "NetAffx",
            [TargetSpec.of("GO", via=("Unigene", "LocusLink"))],
            combine="AND",
        )
        assert set(sql.rows) == set(memory.rows)
        assert len(sql) > 0

    def test_engines_agree_on_restricted_subset(
        self, loaded_genmapper, universe
    ):
        go_subset = set(universe.go.accessions()[:10])
        loci = [gene.locus for gene in universe.genes[:25]]
        memory, sql = both_engines(
            loaded_genmapper, "LocusLink",
            [TargetSpec.of("GO", restrict=go_subset), "Hugo"],
            source_objects=loci, combine="AND",
        )
        assert set(sql.rows) == set(memory.rows)

    def test_unknown_engine_rejected(self, loaded_genmapper):
        with pytest.raises(ValueError, match="engine"):
            loaded_genmapper.generate_view(
                "LocusLink", ["GO"], engine="quantum"
            )


class TestNullSafeOrdering:
    """Regression tests for sorting view rows that contain NULL cells."""

    def test_engines_agree_on_or_with_negation_and_nulls(
        self, loaded_genmapper
    ):
        memory, sql = both_engines(
            loaded_genmapper, "LocusLink",
            ["GO", TargetSpec.of("OMIM", negated=True)], combine="OR",
        )
        assert set(sql.rows) == set(memory.rows)
        # The OR view must actually exercise NULL cells, and both engines
        # must present them in the same deterministic (NULLs-last) order.
        assert any(None in row for row in sql.rows)
        assert sql.rows == tuple(sorted(sql.rows, key=row_sort_key))
        assert memory.rows == sql.rows

    def test_dangling_association_does_not_break_or_view(self):
        """Pre-fix, a NULL accession from a dangling association made the
        bare tuple sort raise ``TypeError: '<' not supported between
        instances of 'NoneType' and 'str'``."""
        gm = GenMapper()
        try:
            repo = gm.repository
            left = repo.add_source("L", "Gene", "Flat")
            right = repo.add_source("T", "Other", "Flat")
            repo.add_objects(left, [("l1",), ("l2",)])
            repo.add_objects(right, [("t0",)])
            rel = repo.ensure_source_rel(left, right, RelType.FACT)
            repo.add_associations(rel, [("l1", "t0")])
            repo.db.commit()  # pragma changes need a clean transaction state
            repo.db.execute("PRAGMA foreign_keys = OFF")
            dangling = repo.get_object(left, "l2")
            repo.db.execute(
                "INSERT INTO object_rel (src_rel_id, object1_id, object2_id)"
                " VALUES (?, ?, 999)",
                (rel.src_rel_id, dangling.object_id),
            )
            view = gm.generate_view("L", ["T"], combine="OR", engine="sql")
            rows = set(view.rows)
            assert ("l1", "t0") in rows
            assert ("l2", None) in rows
            assert view.rows == tuple(sorted(view.rows, key=row_sort_key))
        finally:
            gm.close()


class TestComposeSql:
    """The Compose pushdown streams its rows and shares accession objects."""

    @pytest.mark.parametrize(
        "path", [["NetAffx", "LocusLink", "GO"], ["GO", "LocusLink", "Hugo"]]
    )
    def test_equals_memory_compose(self, loaded_genmapper, path):
        from repro.operators.compose import compose
        from tests import oracle

        repository = loaded_genmapper.repository
        sql = compose(repository, path)
        assert len(sql) > 50
        assert sql == oracle.compose(repository, path)
        assert len({id(a.source_accession) for a in sql}) == len(sql.domain())
        assert len({id(a.target_accession) for a in sql}) == len(sql.range())
