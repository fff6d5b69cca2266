"""Parse-then-import orchestration (paper Figure 2, left side).

The pipeline ties the registry of source parsers to the generic importer:
point it at a downloaded flat file (or a directory of them with a manifest)
and it produces the GAM representation.  A manifest is a small TSV listing
one source per line::

    # file	source	release
    locuslink.txt	LocusLink	2003-10
    go.obo	GO	2003-10

Files are imported in manifest order, which matters only for reporting —
the GAM import itself is order-independent thanks to duplicate elimination.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
from pathlib import Path

from repro.eav.io import read_eav
from repro.eav.store import EavDataset
from repro.gam.errors import ImportError_, ParseError
from repro.gam.repository import GamRepository
from repro.importer.importer import GamImporter, ImportReport
from repro.obs import annotate_event, event_scope, get_registry, get_tracer
from repro.parsers.base import SourceParser, get_parser
from repro.reliability.checkpoint import ImportJournal, file_fingerprint

#: Environment switch: a truthy ``REPRO_IMPORT_RESUME`` makes directory
#: imports skip sources whose checkpoint matches the input file.
RESUME_ENV_VAR = "REPRO_IMPORT_RESUME"


@dataclasses.dataclass(frozen=True, slots=True)
class ManifestEntry:
    """One line of an import manifest."""

    file: str
    source: str
    release: str | None = None


class IntegrationPipeline:
    """Download → Parse → Import, for files already on disk."""

    def __init__(self, repository: GamRepository) -> None:
        self.repository = repository
        self.importer = GamImporter(repository)

    def integrate_file(
        self,
        path: str | Path,
        source_name: str | None = None,
        release: str | None = None,
        parser: SourceParser | None = None,
    ) -> ImportReport:
        """Parse one native flat file and import it.

        The parser is resolved from the registry by ``source_name`` unless
        an explicit ``parser`` instance is given (e.g. a configured
        :class:`~repro.parsers.generic_tsv.GenericTsvParser`).
        """
        path = Path(path)
        if parser is None:
            if source_name is None:
                raise ImportError_(
                    f"cannot integrate {path}: give source_name or a parser"
                )
            parser = get_parser(source_name)
        tracer = get_tracer()
        with event_scope(
            "import",
            source=source_name or type(parser).__name__,
            file=path.name,
        ), tracer.span(
            "pipeline.integrate_file",
            source=source_name or type(parser).__name__,
            file=path.name,
        ):
            with tracer.span("pipeline.parse", file=path.name) as span:
                dataset = parser.parse(path, release=release)
                span.tag(rows=len(dataset))
            report = self.importer.import_dataset(
                dataset, content=parser.content, structure=parser.structure
            )
            _record_import(report)
        return report

    def integrate_eav_file(self, path: str | Path) -> ImportReport:
        """Import a staged ``.eav`` file written by :func:`repro.eav.write_eav`.

        When a parser is registered for the staged source, its GAM
        classification (content/structure) is reused so staging loses no
        metadata versus the direct parse-and-import path.
        """
        with event_scope("import", file=Path(path).name), get_tracer().span(
            "pipeline.integrate_eav_file", file=Path(path).name
        ):
            dataset = read_eav(path)
            from repro.parsers.base import has_parser

            if has_parser(dataset.source_name):
                parser = get_parser(dataset.source_name)
                report = self.importer.import_dataset(
                    dataset, content=parser.content, structure=parser.structure
                )
            else:
                report = self.importer.import_dataset(dataset)
            _record_import(report)
        return report

    def integrate_dataset(
        self, dataset: EavDataset, parser: SourceParser | None = None
    ) -> ImportReport:
        """Import an in-memory dataset (mainly for tests and examples)."""
        with event_scope("import", source=dataset.source_name):
            if parser is None:
                report = self.importer.import_dataset(dataset)
            else:
                report = self.importer.import_dataset(
                    dataset, content=parser.content, structure=parser.structure
                )
            _record_import(report)
        return report

    def integrate_directory(
        self,
        directory: str | Path,
        manifest_name: str = "manifest.tsv",
        workers: int | None = None,
        resume: bool | None = None,
    ) -> list[ImportReport]:
        """Import every source listed in a directory's manifest.

        ``workers`` > 1 integrates the manifest entries on a thread pool
        over the connection pool: parsing overlaps across sources while
        each source's import stays one per-source transaction behind the
        single-writer lock.  The stored result and each source's
        association counts are identical to a serial run; only the
        *attribution* of shared target objects may shift between reports
        (whichever import completes first inserts them), exactly as a
        different manifest order would.  The returned list is always in
        manifest order.  ``workers=None`` reads ``REPRO_IMPORT_WORKERS``
        from the environment, defaulting to serial.

        Every completed source is checkpointed in the database
        (:class:`~repro.reliability.checkpoint.ImportJournal`); with
        ``resume=True`` (or a truthy ``REPRO_IMPORT_RESUME``) sources
        whose checkpoint matches the input file's content are skipped,
        so an import killed mid-run continues where it stopped instead
        of redoing finished work.  Skipped entries report zero counts,
        in manifest order like everything else.
        """
        if workers is None:
            workers = int(os.environ.get("REPRO_IMPORT_WORKERS", "1") or "1")
        if resume is None:
            resume = os.environ.get(RESUME_ENV_VAR, "").strip().lower() in (
                "1", "true", "yes", "on",
            )
        directory = Path(directory)
        manifest_path = directory / manifest_name
        entries = read_manifest(manifest_path)
        journal = ImportJournal(self.repository.db)
        with get_tracer().span(
            "pipeline.integrate_directory",
            directory=directory.name,
            sources=len(entries),
            workers=max(workers, 1),
        ):
            jobs, reports = self._plan_entries(
                directory, entries, journal, resume
            )
            if workers > 1 and len(jobs) > 1:
                self._integrate_entries_threaded(
                    jobs, reports, journal, workers
                )
            else:
                for index, entry, file_path, fingerprint in jobs:
                    reports[index] = self._integrate_checkpointed(
                        entry, file_path, fingerprint, journal
                    )
            # Refresh optimizer statistics once after the bulk load so SQL-
            # compiled views get index-driven join orders.
            with get_tracer().span("pipeline.analyze"):
                self.repository.db.analyze()
        return reports

    def _plan_entries(
        self,
        directory: Path,
        entries: "list[ManifestEntry]",
        journal: ImportJournal,
        resume: bool,
    ) -> tuple[list, list]:
        """Split manifest entries into work and already-done skips.

        Files are validated up front (a serial run discovers a missing
        file only when it reaches it; a resumed or parallel run must not
        start sibling imports it would then abandon).  Returns
        ``(jobs, reports)``: jobs as ``(index, entry, path, fingerprint)``
        tuples, and the manifest-ordered report list pre-filled with
        zero-count reports for skipped sources.
        """
        jobs = []
        reports: list[ImportReport | None] = [None] * len(entries)
        skipped = 0
        for index, entry in enumerate(entries):
            file_path = directory / entry.file
            if not file_path.exists():
                raise ImportError_(
                    f"manifest references missing file: {file_path}"
                )
            fingerprint = file_fingerprint(file_path)
            if resume and journal.completed(
                entry.source, entry.file, fingerprint, entry.release
            ):
                reports[index] = ImportReport(
                    source=self.repository.get_source(entry.source),
                    new_objects=0,
                    new_associations={},
                    new_target_objects={},
                    skipped_rows=0,
                )
                skipped += 1
                continue
            jobs.append((index, entry, file_path, fingerprint))
        if skipped:
            get_registry().counter("pipeline_sources_resumed_total").inc(skipped)
        return jobs, reports

    def _integrate_checkpointed(
        self,
        entry: "ManifestEntry",
        file_path: Path,
        fingerprint: str,
        journal: ImportJournal,
    ) -> ImportReport:
        """Integrate one manifest entry and checkpoint its completion.

        The checkpoint is written *after* the import transaction commits;
        a crash between the two re-imports just that source on resume,
        which the GAM duplicate elimination makes a no-op.  The row-id
        watermarks snapshotted *before* the import delimit its delta for
        incremental view maintenance (:mod:`repro.derived.refresh`).
        """
        watermarks = journal.table_watermarks()
        report = self.integrate_file(
            file_path, source_name=entry.source, release=entry.release
        )
        journal.record(
            entry.source,
            entry.file,
            fingerprint,
            entry.release,
            watermarks=watermarks,
        )
        return report

    def _integrate_entries_threaded(
        self,
        jobs: list,
        reports: "list[ImportReport | None]",
        journal: ImportJournal,
        workers: int,
    ) -> None:
        """Fan import jobs out over a thread pool, filling ``reports``
        in manifest order.  The first failing job's exception is
        re-raised, matching the serial contract.
        """
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=min(workers, len(jobs)),
            thread_name_prefix="repro-import",
        ) as executor:
            futures = [
                (
                    index,
                    executor.submit(
                        self._integrate_checkpointed,
                        entry,
                        file_path,
                        fingerprint,
                        journal,
                    ),
                )
                for index, entry, file_path, fingerprint in jobs
            ]
            for index, future in futures:
                reports[index] = future.result()


    def stage_directory(
        self,
        directory: str | Path,
        staging_dir: str | Path,
        manifest_name: str = "manifest.tsv",
    ) -> list[Path]:
        """Run only the Parse step: native files → staged ``.eav`` files.

        Decouples parsing from importing, as the paper's two-step design
        intends: the staged EAV output can be inspected, diffed and
        re-imported without re-parsing.  A new manifest referencing the
        ``.eav`` files is written into ``staging_dir``.
        """
        directory = Path(directory)
        staging_dir = Path(staging_dir)
        staging_dir.mkdir(parents=True, exist_ok=True)
        entries = read_manifest(directory / manifest_name)
        staged_paths = []
        staged_entries = []
        for entry in entries:
            parser = get_parser(entry.source)
            dataset = parser.parse(directory / entry.file, release=entry.release)
            staged_name = Path(entry.file).stem + ".eav"
            from repro.eav.io import write_eav

            write_eav(dataset, staging_dir / staged_name)
            staged_paths.append(staging_dir / staged_name)
            staged_entries.append(
                ManifestEntry(staged_name, entry.source, entry.release)
            )
        write_manifest(staging_dir / manifest_name, staged_entries)
        return staged_paths

    def import_staged_directory(
        self, staging_dir: str | Path, manifest_name: str = "manifest.tsv"
    ) -> list[ImportReport]:
        """Run only the Import step over a staged ``.eav`` directory."""
        staging_dir = Path(staging_dir)
        entries = read_manifest(staging_dir / manifest_name)
        reports = []
        for entry in entries:
            reports.append(self.integrate_eav_file(staging_dir / entry.file))
        self.repository.db.analyze()
        return reports


def _record_import(report: ImportReport) -> None:
    """Feed one import's outcome into the default metrics registry and
    the surrounding wide event (when an import scope is open)."""
    annotate_event(
        source=report.source.name,
        release=report.source.release,
        new_objects=report.new_objects,
        new_associations=report.total_associations,
        skipped_rows=report.skipped_rows,
    )
    registry = get_registry()
    registry.counter("pipeline_imports_total", source=report.source.name).inc()
    registry.counter("pipeline_objects_imported_total").inc(report.new_objects)
    registry.counter("pipeline_associations_imported_total").inc(
        report.total_associations
    )
    if report.skipped_rows:
        registry.counter("pipeline_rows_skipped_total").inc(report.skipped_rows)


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read an import manifest TSV."""
    path = Path(path)
    if not path.exists():
        raise ImportError_(f"no manifest at {path}")
    entries = []
    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            cells = [cell.strip() for cell in line.split("\t")]
            if len(cells) < 2:
                raise ParseError(
                    f"{path}: manifest line needs 'file<TAB>source'",
                    line_number=line_number,
                )
            release = cells[2] if len(cells) > 2 and cells[2] else None
            entries.append(ManifestEntry(cells[0], cells[1], release))
    return entries


def write_manifest(path: str | Path, entries: list[ManifestEntry]) -> None:
    """Write an import manifest TSV (used by the synthetic data generator)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write("# file\tsource\trelease\n")
        for entry in entries:
            handle.write(f"{entry.file}\t{entry.source}\t{entry.release or ''}\n")
