"""Parse-then-import orchestration (paper Figure 2, left side).

The pipeline ties the registry of source parsers to the generic importer:
point it at a downloaded flat file (or a directory of them with a manifest)
and it produces the GAM representation.  A manifest is a small TSV listing
one source per line::

    # file	source	release
    locuslink.txt	LocusLink	2003-10
    go.obo	GO	2003-10

Files are imported in manifest order, and every import is written by the
calling thread, so source ids, reports and the stored database do not
depend on how many parse processes ran.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import dataclasses
import functools
import itertools
import multiprocessing
import os
import pickle
import time
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import NamedTuple

from repro.eav.io import read_eav
from repro.eav.store import EavDataset
from repro.gam.errors import ImportError_, ParseError
from repro.gam.repository import GamRepository
from repro.importer.importer import GamImporter, ImportPlan, ImportReport, plan_import
from repro.obs import add_stage, annotate_event, event_scope, get_registry, get_tracer
from repro.parsers.base import SourceParser, get_parser
from repro.reliability.checkpoint import ImportJournal, file_fingerprint

#: Environment switch: a truthy ``REPRO_IMPORT_RESUME`` makes directory
#: imports skip sources whose checkpoint matches the input file.
RESUME_ENV_VAR = "REPRO_IMPORT_RESUME"

#: Default number of parse processes of ``integrate_directory``.
WORKERS_ENV_VAR = "REPRO_IMPORT_WORKERS"


@dataclasses.dataclass(frozen=True, slots=True)
class ManifestEntry:
    """One line of an import manifest."""

    file: str
    source: str
    release: str | None = None


class _Job(NamedTuple):
    """A manifest entry that still has to be imported."""

    index: int
    entry: ManifestEntry
    path: Path
    fingerprint: str
    parser: SourceParser


#: What one file's Parse step hands to the writer: the import plan, then
#: the seconds spent parsing and planning.
Planned = tuple[ImportPlan, float, float]


def _parse_and_plan(parser: SourceParser, path: Path, release: str | None) -> Planned:
    """Parse one native file and plan its import; touches no database."""
    started = time.perf_counter()
    dataset = parser.parse(path, release=release)
    parsed = time.perf_counter()
    # Parsers may adjust their classification from in-file directives
    # (GenericTsvParser's ``#content:``), so read it after parsing.
    plan = plan_import(dataset, content=parser.content, structure=parser.structure)
    return plan, parsed - started, time.perf_counter() - parsed


def _parse_and_plan_pickled(
    parser: SourceParser, path: Path, release: str | None
) -> bytes:
    """Parse-process entry point: :func:`_parse_and_plan`, pickled once.

    The caller keeps the bytes until it applies the plan, which holds a
    waiting plan in a fraction of the memory of its tuples.
    """
    return pickle.dumps(
        _parse_and_plan(parser, path, release), protocol=pickle.HIGHEST_PROTOCOL
    )


def _unpickle_result(future: concurrent.futures.Future) -> Planned:
    return pickle.loads(future.result())


#: Niceness increment of parse processes (see :func:`_yield_to_writer`).
_PARSE_NICENESS = 10


def _yield_to_writer() -> None:
    """Parse-process initializer: lower the process's CPU priority.

    The writer's applies are the import's critical path; on a machine
    with fewer cores than busy processes, the parses then use the
    writer's idle time instead of slowing it.
    """
    if hasattr(os, "nice"):
        os.nice(_PARSE_NICENESS)


@contextlib.contextmanager
def _planned_in_order(
    jobs: "list[_Job]", workers: int
) -> Iterator[Iterator[Callable[[], Planned]]]:
    """One callable per job, in job order, returning its :data:`Planned`.

    With ``workers`` > 1 and more than one job, every job after the first
    is parsed and planned at once in a pool of up to ``workers`` ``spawn``
    processes, and a plan waits as pickled bytes until its callable is
    called.  The first job is parsed in the calling thread while the pool
    starts, since the writer would only wait for it.  If the block fails,
    the queued parses are cancelled; the pool's processes are joined
    before the block is left either way.  Otherwise each callable parses
    in the calling thread.
    """
    in_thread = [
        functools.partial(_parse_and_plan, job.parser, job.path, job.entry.release)
        for job in jobs
    ]
    if workers < 2 or len(jobs) < 2:
        yield iter(in_thread)
        return
    rest = jobs[1:]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(workers, len(rest)),
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_yield_to_writer,
    ) as pool:
        futures = collections.deque(
            pool.submit(
                _parse_and_plan_pickled, job.parser, job.path, job.entry.release
            )
            for job in rest
        )
        try:
            # Popped, so a plan's bytes are freed once it is applied.
            yield itertools.chain(
                in_thread[:1],
                (functools.partial(_unpickle_result, futures.popleft()) for __ in rest),
            )
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


@contextlib.contextmanager
def _file_scope(path: Path, label: str):
    """The wide event and span of one file's integration."""
    with event_scope("import", source=label, file=path.name), get_tracer().span(
        "pipeline.integrate_file", source=label, file=path.name
    ):
        yield


def _worker_count(workers: int | None) -> int:
    """``workers``, or ``REPRO_IMPORT_WORKERS`` when None (default 1).

    Anything but an integer >= 1 is refused, naming where it came from.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "").strip() or "1"
        if not raw.isdecimal() or int(raw) < 1:
            raise ImportError_(
                f"{WORKERS_ENV_VAR} must be an integer >= 1, got {raw!r}"
            )
        return int(raw)
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise ImportError_(f"workers must be an integer >= 1, got {workers!r}")
    return workers


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
        with _file_scope(path, source_name or type(parser).__name__):
            return self._apply(path, *_parse_and_plan(parser, path, release))

    def _apply(
        self, path: Path, plan: ImportPlan, parse_s: float, plan_s: float
    ) -> ImportReport:
        """Write one file's plan, recording its Parse step first.

        The parse and plan may have run in another process, so their
        timings arrive as numbers and become finished spans and stages
        of the file's wide event.
        """
        tracer = get_tracer()
        tracer.record("pipeline.parse", parse_s, file=path.name, rows=plan.rows)
        tracer.record("pipeline.plan", plan_s, file=path.name)
        add_stage("pipeline.parse", parse_s)
        add_stage("pipeline.plan", plan_s)
        annotate_event(eav_rows=plan.rows)
        report = self.importer.apply(plan)
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

        ``workers`` > 1 parses and plans the manifest's files in up to
        that many processes (the calling thread parses the first file
        while they start) and the calling thread writes the plans, one
        per-source transaction each, strictly in manifest order.  Source
        ids, reports and the stored database are therefore the same as
        a serial run's.  Plans cross the process boundary as plain
        tuples (:class:`~repro.importer.importer.ImportPlan`), and the
        processes are started with ``spawn``, so a script that passes
        ``workers`` > 1 needs an ``if __name__ == "__main__":`` guard.
        ``workers=None`` reads ``REPRO_IMPORT_WORKERS`` from the
        environment, defaulting to serial; anything but an integer >= 1
        is refused before the manifest is read.

        Every completed source is checkpointed in the database
        (:class:`~repro.reliability.checkpoint.ImportJournal`); with
        ``resume=True`` (or a truthy ``REPRO_IMPORT_RESUME``) sources
        whose checkpoint matches the input file's content are skipped,
        so an import killed mid-run continues where it stopped instead
        of redoing finished work.  Skipped entries report zero counts,
        in manifest order like everything else.  The first failure
        stops the import: earlier sources stay imported and
        checkpointed, later ones are not touched.
        """
        workers = _worker_count(workers)
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
            workers=workers,
        ):
            jobs, reports = self._plan_entries(
                directory, entries, journal, resume
            )
            with _planned_in_order(jobs, workers) as planned:
                for job, plan in zip(jobs, planned):
                    reports[job.index] = self._integrate_checkpointed(
                        job, journal, plan
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
    ) -> "tuple[list[_Job], list[ImportReport | None]]":
        """Split manifest entries into work and already-done skips.

        Files and parsers are resolved up front, so a missing file or an
        unknown source fails before any import starts.  Returns ``(jobs,
        reports)``: the jobs in manifest order, and the manifest-ordered
        report list pre-filled with zero-count reports for skipped
        sources.
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
            parser = get_parser(entry.source)
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
            jobs.append(_Job(index, entry, file_path, fingerprint, parser))
        if skipped:
            get_registry().counter("pipeline_sources_resumed_total").inc(skipped)
        return jobs, reports

    def _integrate_checkpointed(
        self, job: _Job, journal: ImportJournal, plan: Callable[[], Planned]
    ) -> ImportReport:
        """Apply one manifest entry's plan and checkpoint its completion.

        ``plan()`` returns the entry's :data:`Planned` result.  The
        checkpoint is written *after* the import transaction commits; a
        crash between the two re-imports just that source on resume,
        which the GAM duplicate elimination makes a no-op.  The row-id
        watermarks snapshotted *before* the import delimit its delta for
        incremental view maintenance (:mod:`repro.derived.refresh`).
        """
        watermarks = journal.table_watermarks()
        with _file_scope(job.path, job.entry.source):
            report = self._apply(job.path, *plan())
        journal.record(
            job.entry.source,
            job.entry.file,
            job.fingerprint,
            job.entry.release,
            watermarks=watermarks,
        )
        return report

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
