"""Tests for the Parse-then-Import orchestration pipeline."""

import pytest

from repro.eav.io import write_eav
from repro.eav.model import EavRow
from repro.eav.store import EavDataset
from repro.gam.database import GamDatabase
from repro.gam.errors import ImportError_, ParseError
from repro.gam.repository import GamRepository
from repro.importer.pipeline import (
    IntegrationPipeline,
    ManifestEntry,
    read_manifest,
    write_manifest,
)
from repro.parsers.generic_tsv import GenericTsvParser
from tests.conftest import LOCUS_353_RECORD


@pytest.fixture()
def pipeline():
    db = GamDatabase()
    yield IntegrationPipeline(GamRepository(db))
    db.close()


class TestIntegrateFile:
    def test_parses_and_imports_by_source_name(self, pipeline, tmp_path):
        path = tmp_path / "ll.txt"
        path.write_text(LOCUS_353_RECORD)
        report = pipeline.integrate_file(path, source_name="LocusLink",
                                         release="r1")
        assert report.source.name == "LocusLink"
        assert report.source.release == "r1"
        assert report.new_objects == 1

    def test_explicit_parser_instance(self, pipeline, tmp_path):
        path = tmp_path / "vendor.tsv"
        path.write_text("id\tGO\np1\tGO:1\n")
        parser = GenericTsvParser("VendorX", content="Gene")
        report = pipeline.integrate_file(path, parser=parser)
        assert report.source.name == "VendorX"

    def test_needs_source_name_or_parser(self, pipeline, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("")
        with pytest.raises(ImportError_, match="source_name or a parser"):
            pipeline.integrate_file(path)

    def test_integrate_eav_file(self, pipeline, tmp_path):
        dataset = EavDataset("Staged", [EavRow("1", "Hugo", "A")])
        path = tmp_path / "staged.eav"
        write_eav(dataset, path)
        report = pipeline.integrate_eav_file(path)
        assert report.source.name == "Staged"


class TestManifest:
    def test_round_trip(self, tmp_path):
        entries = [
            ManifestEntry("ll.txt", "LocusLink", "2003-10"),
            ManifestEntry("go.obo", "GO", None),
        ]
        path = tmp_path / "manifest.tsv"
        write_manifest(path, entries)
        assert read_manifest(path) == entries

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ImportError_, match="manifest"):
            read_manifest(tmp_path / "nope.tsv")

    def test_short_line_rejected(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("onlyonefield\n")
        with pytest.raises(ParseError):
            read_manifest(path)

    def test_comments_skipped(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("# comment\nll.txt\tLocusLink\t\n")
        entries = read_manifest(path)
        assert entries == [ManifestEntry("ll.txt", "LocusLink", None)]


class TestIntegrateDirectory:
    def test_imports_all_listed_sources(self, pipeline, tmp_path):
        (tmp_path / "ll.txt").write_text(LOCUS_353_RECORD)
        (tmp_path / "hugo.tsv").write_text("symbol\tlocuslink\nAPRT\t353\n")
        write_manifest(
            tmp_path / "manifest.tsv",
            [
                ManifestEntry("ll.txt", "LocusLink", "r1"),
                ManifestEntry("hugo.tsv", "Hugo", "r1"),
            ],
        )
        reports = pipeline.integrate_directory(tmp_path)
        assert [report.source.name for report in reports] == ["LocusLink", "Hugo"]

    @pytest.mark.parametrize("raw", ["abc", "0", "-2"])
    def test_bad_workers_variable_rejected_before_manifest(
        self, pipeline, tmp_path, monkeypatch, raw
    ):
        # No manifest in tmp_path: the worker count must fail first.
        monkeypatch.setenv("REPRO_IMPORT_WORKERS", raw)
        with pytest.raises(ImportError_, match="REPRO_IMPORT_WORKERS"):
            pipeline.integrate_directory(tmp_path)

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_bad_workers_argument_rejected_before_manifest(
        self, pipeline, tmp_path, workers
    ):
        with pytest.raises(ImportError_, match="workers must be"):
            pipeline.integrate_directory(tmp_path, workers=workers)

    @pytest.mark.parametrize("flag", ["0", "abc"])
    def test_bad_workers_flag_rejected(self, tmp_path, capsys, flag):
        from repro.cli import main

        with pytest.raises(SystemExit) as caught:
            main(["--db", str(tmp_path / "gam.db"), "import", str(tmp_path),
                  "--workers", flag])
        assert caught.value.code == 2
        assert "--workers: must be an integer >= 1" in capsys.readouterr().err

    def test_missing_file_rejected(self, pipeline, tmp_path):
        write_manifest(
            tmp_path / "manifest.tsv", [ManifestEntry("ghost.txt", "LocusLink")]
        )
        with pytest.raises(ImportError_, match="missing file"):
            pipeline.integrate_directory(tmp_path)
