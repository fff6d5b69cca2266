"""Tests for the interactive QuerySession (Figure 6 workflow)."""

import pytest

from repro.gam.errors import QuerySpecError, UnknownSourceError
from repro.query.session import QuerySession, run_query
from repro.query.spec import QuerySpec, QueryTarget


@pytest.fixture()
def session(paper_genmapper):
    return QuerySession(paper_genmapper)


class TestSourceSelection:
    def test_available_sources(self, session):
        assert "LocusLink" in session.available_sources()

    def test_select_unknown_source_rejected(self, session):
        with pytest.raises(UnknownSourceError):
            session.select_source("Nope")

    def test_actions_before_selection_rejected(self, session):
        with pytest.raises(QuerySpecError, match="select a source"):
            session.upload_accessions(["353"])


class TestAccessionUpload:
    def test_upload_list(self, session):
        session.select_source("LocusLink").upload_accessions(["353", " 354 "])
        assert session.spec
        spec = session.add_target("Hugo").spec()
        assert spec.accessions == frozenset({"353", "354"})

    def test_upload_file(self, session, tmp_path):
        path = tmp_path / "accessions.txt"
        path.write_text("353\n\n354\n")
        session.select_source("LocusLink").upload_accession_file(path)
        spec = session.add_target("Hugo").spec()
        assert spec.accessions == frozenset({"353", "354"})

    def test_entire_source_default(self, session):
        session.select_source("LocusLink")
        spec = session.add_target("Hugo").spec()
        assert spec.accessions is None


class TestTargetsAndPaths:
    def test_available_targets_reachable_only(self, session):
        session.select_source("LocusLink")
        targets = session.available_targets()
        assert "GO" in targets
        assert "LocusLink" not in targets

    def test_suggest_path(self, session):
        session.select_source("Unigene")
        assert session.suggest_path("GO") == ("Unigene", "LocusLink", "GO")

    def test_suggest_alternative_paths(self, session):
        session.select_source("Unigene")
        paths = session.suggest_paths("GO", k=2)
        assert paths[0] == ("Unigene", "LocusLink", "GO")

    def test_add_target_with_saved_path(self, session, paper_genmapper):
        paper_genmapper.save_path("route", ["Unigene", "LocusLink", "GO"])
        session.select_source("Unigene").add_target("GO", saved_path="route")
        spec = session.spec()
        assert spec.targets[0].via == ("LocusLink",)

    def test_saved_path_endpoints_checked(self, session, paper_genmapper):
        paper_genmapper.save_path("route", ["Unigene", "LocusLink", "GO"])
        session.select_source("LocusLink")
        with pytest.raises(QuerySpecError, match="connects"):
            session.add_target("GO", saved_path="route")

    def test_clear_targets(self, session):
        session.select_source("LocusLink").add_target("Hugo").clear_targets()
        with pytest.raises(QuerySpecError, match="at least one target"):
            session.spec()


class TestExecution:
    def test_run_produces_view(self, session):
        view = (
            session.select_source("LocusLink")
            .add_target("Hugo")
            .add_target("GO")
            .combine_with("OR")
            .run()
        )
        assert view.columns == ("LocusLink", "Hugo", "GO")
        assert ("353", "APRT", "GO:0009116") in view.rows

    def test_last_view_requires_run(self, session):
        session.select_source("LocusLink")
        with pytest.raises(QuerySpecError, match="no query"):
            session.last_view()

    def test_object_info_after_query(self, session):
        session.select_source("LocusLink").add_target("Hugo").run()
        info = session.object_info("353")
        assert any(partner == "Hugo" for partner, __, __a in info)

    def test_refine_restricts_next_query(self, session):
        session.select_source("LocusLink").add_target("Hugo").run()
        session.refine(["353"]).add_target("GO")
        spec = session.spec()
        assert spec.accessions == frozenset({"353"})
        assert [target.name for target in spec.targets] == ["GO"]

    def test_refine_rejects_foreign_accessions(self, session):
        session.select_source("LocusLink").add_target("Hugo").run()
        with pytest.raises(QuerySpecError, match="not in the last result"):
            session.refine(["999"])

    def test_export_last_view(self, session, tmp_path):
        session.select_source("LocusLink").add_target("Hugo").run()
        path = session.export(tmp_path / "view.tsv")
        assert path.read_text().startswith("LocusLink\tHugo")

    def test_reselecting_source_resets_state(self, session):
        session.select_source("LocusLink").upload_accessions(["353"])
        session.add_target("Hugo")
        session.select_source("Unigene")
        session.add_target("GO")
        spec = session.spec()
        assert spec.source == "Unigene"
        assert spec.accessions is None
        assert [t.name for t in spec.targets] == ["GO"]


class TestRunQueryFunction:
    def test_run_query_standalone(self, paper_genmapper):
        spec = QuerySpec.build(
            "LocusLink",
            [QueryTarget("GO"), QueryTarget("OMIM", negated=True)],
            combine="AND",
        )
        view = run_query(paper_genmapper, spec)
        # Locus 353 has both GO and OMIM annotations, so NOT OMIM drops it.
        assert view.is_empty()


class TestEngineChoice:
    def test_sql_engine_produces_same_view(self, paper_genmapper):
        memory_view = (
            QuerySession(paper_genmapper)
            .select_source("LocusLink")
            .add_target("Hugo")
            .add_target("GO")
            .combine_with("AND")
            .run()
        )
        sql_view = paper_genmapper.generate_view(
            "LocusLink", ["Hugo", "GO"], combine="AND", engine="sql"
        )
        assert set(sql_view.rows) == set(memory_view.rows)
