"""Experiment: the bulk-ingest fast path (docs/performance.md).

Two claims are measured and enforced here:

1. **The indexed ingest path is ≥3x faster end-to-end** on a ~100k-row
   multi-target import than the pre-PR path (full row-list scans per
   entity/target lookup, quadratic partition-entity detection, before/
   after ``COUNT(*)`` insert accounting, per-target accession→id
   reloads).  The legacy path is replicated verbatim below so the
   comparison stays honest as the production code evolves.
2. **Both paths produce byte-identical import reports** — same inserted
   object/association counts per target, same skipped rows, on the first
   import and on a dedup-only re-import (the golden comparison).

The bench bodies run through pytest-benchmark so CI snapshots land in the
``BENCH_pr4_import.json``-style artifact next to the other benches.
"""

from __future__ import annotations

import random
import time

from repro.eav.model import CONTAINS_TARGET, IS_A_TARGET, NAME_TARGET, EavRow
from repro.eav.store import EavDataset
from repro.gam.database import GamDatabase
from repro.gam.enums import RelType, SourceContent, SourceStructure
from repro.gam.errors import GamIntegrityError, ImportError_
from repro.gam.records import Source
from repro.gam.repository import GamRepository
from repro.importer.importer import GamImporter, ImportReport
from repro.obs import get_tracer

#: Minimum end-to-end speedup the indexed ingest path must deliver over
#: the replicated pre-PR path (observed: well above this floor; the
#: legacy partition check alone is O(entities × rows)).
MIN_IMPORT_SPEEDUP = 3.0

#: Shape of the benchmark dataset: ~100k rows across 8 annotation
#: targets, Name rows, an IS_A family layer and two CONTAINS partitions.
N_ENTITIES = 1000
N_TARGETS = 8
ROWS_PER_TARGET = 12
ACCESSION_POOL = 2000


def build_import_dataset(
    n_entities: int = N_ENTITIES,
    n_targets: int = N_TARGETS,
    rows_per_target: int = ROWS_PER_TARGET,
) -> EavDataset:
    """A deterministic multi-target EAV dataset of ~100k rows.

    Accessions are drawn with replacement from a bounded pool per target,
    so the importer's association/object dedup does real work; the last
    target carries reduced evidence (flips its mapping to Similarity);
    two CONTAINS partitions cover the entities and reference a few ghost
    members that must land in ``skipped_rows``.
    """
    rng = random.Random(20040315)
    dataset = EavDataset("BenchSource", release="bench-1")
    targets = [f"Ref{chr(ord('A') + i)}" for i in range(n_targets)]
    for index in range(n_entities):
        entity = f"E{index:05d}"
        dataset.append(EavRow(entity, NAME_TARGET, entity, text=f"entity {index}"))
        for t_index, target in enumerate(targets):
            reduced = t_index == n_targets - 1
            for __ in range(rows_per_target):
                accession = f"ACC_{target}_{rng.randrange(ACCESSION_POOL):05d}"
                dataset.append(
                    EavRow(
                        entity,
                        target,
                        accession,
                        evidence=0.8 if reduced else 1.0,
                    )
                )
        if index < 100:
            dataset.append(
                EavRow(entity, IS_A_TARGET, f"FAM_{index % 10:02d}")
            )
    for p_index in range(2):
        partition = f"BenchSource.P{p_index}"
        for index in range(p_index, n_entities, 2):
            dataset.append(EavRow(partition, CONTAINS_TARGET, f"E{index:05d}"))
        for ghost in range(5):
            dataset.append(
                EavRow(partition, CONTAINS_TARGET, f"GHOST_{p_index}_{ghost}")
            )
    return dataset


# -- the replicated pre-PR (seed) ingest path -------------------------------
#
# These subclasses restore, line for line, the code the fast path replaced:
# full row-list scans per lookup, the quadratic partition-entity check,
# COUNT(*)-delta insert accounting and per-target accession→id reloads.


def _scan_rows_for_target(dataset: EavDataset, target: str) -> list[EavRow]:
    return [row for row in dataset.rows if row.target == target]


def _scan_rows_for_entity(dataset: EavDataset, entity: str) -> list[EavRow]:
    return [row for row in dataset.rows if row.entity == entity]


class LegacyRepository(GamRepository):
    """``GamRepository`` with the seed's write accounting restored."""

    def add_objects(self, source, rows) -> int:
        src = self.get_source(source)
        normalized = []
        for row in rows:
            accession = str(row[0])
            text = row[1] if len(row) > 1 else None
            number = row[2] if len(row) > 2 else None
            normalized.append((src.source_id, accession, text, number))
        before = self._object_count(src.source_id)
        self.db.executemany(
            "INSERT INTO object (source_id, accession, text, number)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT (source_id, accession) DO UPDATE SET"
            "   text = coalesce(excluded.text, object.text),"
            "   number = coalesce(excluded.number, object.number)",
            normalized,
        )
        return self._object_count(src.source_id) - before

    def add_associations(self, rel, rows, strict: bool = True) -> int:
        ids1 = self.accession_to_id(rel.source1_id)
        ids2 = (
            ids1
            if rel.source2_id == rel.source1_id
            else self.accession_to_id(rel.source2_id)
        )
        resolved = []
        for row in rows:
            acc1, acc2 = str(row[0]), str(row[1])
            evidence = float(row[2]) if len(row) > 2 else 1.0
            id1 = ids1.get(acc1)
            id2 = ids2.get(acc2)
            if id1 is None or id2 is None:
                if strict:
                    missing = acc1 if id1 is None else acc2
                    raise GamIntegrityError(
                        f"association references unknown accession {missing!r}"
                        f" (source_rel {rel.src_rel_id})"
                    )
                continue
            resolved.append((rel.src_rel_id, id1, id2, evidence))
        before = self.count_associations(rel)
        self.db.executemany(
            "INSERT OR IGNORE INTO object_rel"
            " (src_rel_id, object1_id, object2_id, evidence) VALUES (?, ?, ?, ?)",
            resolved,
        )
        return self.count_associations(rel) - before

    def accessions_of(self, source) -> set[str]:
        src = self.get_source(source)
        rows = self.db.execute(
            "SELECT accession FROM object WHERE source_id = ?", (src.source_id,)
        ).fetchall()
        return {row[0] for row in rows}


class LegacyImporter(GamImporter):
    """``GamImporter`` with the seed's per-lookup row scans restored.

    It carries its own ``import_dataset``, the pre-plan/apply body, so
    the ``_import_*`` overrides below are what it runs.
    """

    def import_dataset(
        self,
        dataset: EavDataset,
        content: SourceContent | str = SourceContent.OTHER,
        structure: SourceStructure | str = SourceStructure.FLAT,
    ) -> ImportReport:
        if not dataset.source_name:
            raise ImportError_("dataset has no source name")
        repo = self.repository
        tracer = get_tracer()
        with tracer.span(
            "pipeline.import", source=dataset.source_name, rows=len(dataset)
        ) as import_span, repo.db.transaction(), repo.bulk_import():
            source = repo.add_source(
                dataset.source_name,
                content=content,
                structure=self._structure_for(dataset, structure),
                release=dataset.release,
                imported_at=self._clock(),
            )
            with tracer.span("pipeline.import.entities") as span:
                new_objects = self._import_entities(source, dataset)
                span.tag(inserted=new_objects)
            new_associations: dict[str, int] = {}
            new_target_objects: dict[str, int] = {}
            skipped = 0
            with tracer.span("pipeline.import.structure"):
                skipped += self._import_structure(source, dataset, new_associations)
            for target in dataset.annotation_targets():
                if target == CONTAINS_TARGET:
                    continue
                with tracer.span("pipeline.import.target", target=target) as span:
                    inserted_objs, inserted_assocs = self._import_target(
                        source, dataset, target
                    )
                    span.tag(objects=inserted_objs, associations=inserted_assocs)
                new_target_objects[target] = inserted_objs
                new_associations[target] = inserted_assocs
            import_span.tag(
                new_objects=new_objects,
                new_associations=sum(new_associations.values()),
                skipped=skipped,
            )
        return ImportReport(
            source=source,
            new_objects=new_objects,
            new_associations=new_associations,
            new_target_objects=new_target_objects,
            skipped_rows=skipped,
        )

    @staticmethod
    def _structure_for(
        dataset: EavDataset, declared: SourceStructure | str
    ) -> SourceStructure:
        declared = SourceStructure.parse(declared)
        targets = set(dataset.targets())
        if IS_A_TARGET in targets or CONTAINS_TARGET in targets:
            return SourceStructure.NETWORK
        return declared

    def _import_entities(self, source: Source, dataset: EavDataset) -> int:
        from repro.eav.model import NUMBER_TARGET

        texts: dict[str, str] = {}
        numbers: dict[str, float] = {}
        for row in dataset:
            if row.target == NAME_TARGET and row.text:
                texts.setdefault(row.entity, row.text)
            elif row.target == NUMBER_TARGET and row.number is not None:
                numbers.setdefault(row.entity, row.number)
        entity_rows = [
            (entity, texts.get(entity), numbers.get(entity))
            for entity in dataset.entities()
            if not self._is_partition_entity(entity, dataset)
        ]
        return self.repository.add_objects(source, entity_rows)

    @staticmethod
    def _is_partition_entity(entity: str, dataset: EavDataset) -> bool:
        return any(
            row.entity == entity and row.target == CONTAINS_TARGET
            for row in _scan_rows_for_entity(dataset, entity)
        ) and all(
            row.target == CONTAINS_TARGET
            for row in _scan_rows_for_entity(dataset, entity)
        )

    def _import_target(self, source, dataset, target):
        from repro.parsers.targets import target_info

        repo = self.repository
        rows = _scan_rows_for_target(dataset, target)
        info = target_info(target)
        if info.name.lower() == source.name.lower():
            target_source = source
        else:
            target_source = repo.add_source(
                info.name, content=info.content, structure=info.structure
            )
        object_rows: dict = {}
        for row in rows:
            existing = object_rows.get(row.accession)
            if existing is None or (existing[1] is None and row.text):
                object_rows[row.accession] = (row.accession, row.text, row.number)
        inserted_objects = repo.add_objects(target_source, object_rows.values())
        rel_type = info.rel_type
        if rel_type == RelType.FACT and any(row.evidence < 1.0 for row in rows):
            rel_type = RelType.SIMILARITY
        rel = repo.ensure_source_rel(source, target_source, rel_type)
        association_rows = [
            (row.entity, row.accession, row.evidence) for row in rows
        ]
        inserted_assocs = repo.add_associations(rel, association_rows, strict=True)
        return inserted_objects, inserted_assocs

    def _import_structure(self, source, dataset, new_associations):
        from collections import defaultdict

        repo = self.repository
        skipped = 0
        is_a_rows = _scan_rows_for_target(dataset, IS_A_TARGET)
        if is_a_rows:
            endpoints = {row.entity for row in is_a_rows}
            endpoints.update(row.accession for row in is_a_rows)
            repo.add_objects(source, [(accession,) for accession in sorted(endpoints)])
            rel = repo.ensure_source_rel(source, source, RelType.IS_A)
            new_associations[IS_A_TARGET] = repo.add_associations(
                rel, [(row.entity, row.accession) for row in is_a_rows]
            )
        contains_rows = _scan_rows_for_target(dataset, CONTAINS_TARGET)
        if contains_rows:
            by_partition: dict[str, list[str]] = defaultdict(list)
            for row in contains_rows:
                by_partition[row.entity].append(row.accession)
            for partition_name, members in sorted(by_partition.items()):
                partition = repo.add_source(
                    partition_name,
                    content=source.content,
                    structure=SourceStructure.NETWORK,
                )
                repo.add_objects(partition, [(member,) for member in members])
                known = repo.accessions_of(source)
                rel = repo.ensure_source_rel(source, partition, RelType.CONTAINS)
                member_rows = []
                for member in members:
                    if member not in known:
                        skipped += 1
                        continue
                    member_rows.append((member, member))
                new_associations[partition_name] = repo.add_associations(
                    rel, member_rows
                )
        return skipped


# -- harness ----------------------------------------------------------------


def _run_import(dataset: EavDataset, legacy: bool) -> tuple[ImportReport, ImportReport]:
    """Import ``dataset`` twice into a fresh in-memory database.

    Returns the first-import report and the dedup-only re-import report.
    """
    db = GamDatabase(":memory:")
    try:
        if legacy:
            importer = LegacyImporter(LegacyRepository(db))
        else:
            importer = GamImporter(GamRepository(db))
        first = importer.import_dataset(dataset)
        second = importer.import_dataset(dataset)
        return first, second
    finally:
        db.close()


def _report_key(report: ImportReport) -> tuple:
    """Everything an ImportReport says, as a comparable value."""
    return (
        report.source.name,
        report.source.release,
        report.new_objects,
        sorted(report.new_associations.items()),
        sorted(report.new_target_objects.items()),
        report.skipped_rows,
    )


def _best_of(fn, repetitions: int) -> float:
    best = float("inf")
    for __ in range(repetitions):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# -- claim 2: golden report comparison --------------------------------------


def test_reports_identical_between_paths():
    dataset = build_import_dataset(n_entities=60, rows_per_target=8)
    legacy_first, legacy_second = _run_import(dataset, legacy=True)
    fast_first, fast_second = _run_import(dataset, legacy=False)
    assert _report_key(fast_first) == _report_key(legacy_first)
    assert _report_key(fast_second) == _report_key(legacy_second)
    # The re-import must be pure dedup on both paths.
    assert fast_second.new_objects == 0
    assert fast_second.total_associations == 0
    assert fast_second.skipped_rows == fast_first.skipped_rows


def test_ghost_partition_members_are_skipped():
    dataset = build_import_dataset(n_entities=40, rows_per_target=4)
    report, __ = _run_import(dataset, legacy=False)
    assert report.skipped_rows == 10  # 5 ghosts per partition, 2 partitions


# -- claim 1: the asserted speedup gate -------------------------------------


def test_import_fast_path_speedup():
    dataset = build_import_dataset()
    dataset.rows_for_target(NAME_TARGET)  # build indexes outside the clock
    legacy = _best_of(lambda: _run_import(dataset, legacy=True), 1)
    fast = _best_of(lambda: _run_import(dataset, legacy=False), 3)
    assert legacy / fast >= MIN_IMPORT_SPEEDUP, (
        f"import speedup {legacy / fast:.1f}x below the"
        f" {MIN_IMPORT_SPEEDUP}x floor (legacy {legacy:.2f}s, fast {fast:.2f}s)"
    )


# -- pytest-benchmark snapshots ---------------------------------------------


def test_bench_import_fast(benchmark):
    dataset = build_import_dataset()
    result = benchmark.pedantic(
        _run_import, args=(dataset, False), rounds=3, iterations=1
    )
    benchmark.extra_info["experiment"] = "Ingest: indexed fast path (~100k rows)"
    benchmark.extra_info["rows"] = len(dataset)
    benchmark.extra_info["new_objects"] = result[0].new_objects
    benchmark.extra_info["new_associations"] = result[0].total_associations


def test_bench_import_legacy(benchmark):
    dataset = build_import_dataset()
    result = benchmark.pedantic(
        _run_import, args=(dataset, True), rounds=1, iterations=1
    )
    benchmark.extra_info["experiment"] = "Ingest: replicated pre-PR path (~100k rows)"
    benchmark.extra_info["rows"] = len(dataset)
    benchmark.extra_info["new_objects"] = result[0].new_objects
    benchmark.extra_info["new_associations"] = result[0].total_associations


def test_bench_import_parallel_directory(benchmark, bench_universe_dir):
    """Multi-source manifest ingest over the connection pool (workers=4)."""
    from repro.core.genmapper import GenMapper

    def _integrate() -> int:
        gm = GenMapper()
        try:
            reports = gm.integrate_directory(bench_universe_dir, workers=4)
            return sum(report.new_objects for report in reports)
        finally:
            gm.close()

    objects = benchmark.pedantic(_integrate, rounds=3, iterations=1)
    benchmark.extra_info["experiment"] = "Ingest: parallel manifest import (workers=4)"
    benchmark.extra_info["new_objects"] = objects
