"""The generic Import step: EAV → GAM transformation (paper Section 4.1).

``Import`` is implemented once and reused for every source — that is the
point of the Parse/Import split.  It:

1. registers the parsed source (duplicate elimination at the source level
   compares name and release audit information),
2. inserts the source's entities as objects (duplicate elimination at the
   object level compares accessions; re-import only inserts new objects),
3. for every annotation target, registers the target source, inserts the
   referenced target objects, and stores the associations under a
   Fact/Similarity mapping,
4. materializes structural rows: ``IS_A`` becomes an intra-source Is-a
   relationship, ``CONTAINS`` becomes a Contains relationship between the
   source and a partition source (e.g. GO and GO.BiologicalProcess).

Re-importing a source against an already-populated database therefore only
relates the new objects with the existing ones, exactly as the paper
describes for re-importing LocusLink after GO is present.
"""

from __future__ import annotations

import dataclasses
import datetime
from collections import defaultdict

from repro.eav.model import (
    CONTAINS_TARGET,
    IS_A_TARGET,
    NAME_TARGET,
    NUMBER_TARGET,
)
from repro.eav.store import EavDataset
from repro.gam.enums import RelType, SourceContent, SourceStructure
from repro.gam.errors import ImportError_
from repro.gam.records import Source
from repro.gam.repository import GamRepository
from repro.obs import get_tracer
from repro.parsers.targets import target_info


@dataclasses.dataclass(frozen=True, slots=True)
class ImportReport:
    """What one import run did, per target."""

    source: Source
    new_objects: int
    #: target name -> number of associations inserted.
    new_associations: dict[str, int]
    #: target name -> number of new target objects inserted.
    new_target_objects: dict[str, int]
    #: Rows skipped because their target objects could not be created.
    skipped_rows: int

    @property
    def total_associations(self) -> int:
        """Total associations inserted across all targets."""
        return sum(self.new_associations.values())

    def summary(self) -> str:
        """One-line description used by the CLI and logs."""
        return (
            f"imported {self.source.name}: +{self.new_objects} objects,"
            f" +{self.total_associations} associations"
            f" across {len(self.new_associations)} mappings"
        )


class GamImporter:
    """Generic EAV-to-GAM importer bound to one repository."""

    def __init__(self, repository: GamRepository, clock=None) -> None:
        self.repository = repository
        self._clock = clock or (lambda: datetime.datetime.now().isoformat(" ", "seconds"))

    def import_dataset(
        self,
        dataset: EavDataset,
        content: SourceContent | str = SourceContent.OTHER,
        structure: SourceStructure | str = SourceStructure.FLAT,
    ) -> ImportReport:
        """Transform one parsed dataset into the GAM representation.

        ``content`` and ``structure`` classify the *parsed* source; target
        sources are classified via :mod:`repro.parsers.targets`.
        """
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
                # The entity/association dedup of Section 4.1 happens
                # inside add_objects/add_associations: the difference
                # between offered and inserted rows is the duplicate work.
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

    # -- pieces ------------------------------------------------------------

    def _structure_for(
        self, dataset: EavDataset, declared: SourceStructure | str
    ) -> SourceStructure:
        """A source with structural rows must be Network regardless of the
        declared default."""
        declared = SourceStructure.parse(declared)
        targets = set(dataset.targets())
        if IS_A_TARGET in targets or CONTAINS_TARGET in targets:
            return SourceStructure.NETWORK
        return declared

    def _import_entities(self, source: Source, dataset: EavDataset) -> int:
        """Insert the parsed entities, enriched with Name/Number rows."""
        texts: dict[str, str] = {}
        numbers: dict[str, float] = {}
        for row in dataset.rows_for_target(NAME_TARGET):
            if row.text:
                texts.setdefault(row.entity, row.text)
        for row in dataset.rows_for_target(NUMBER_TARGET):
            if row.number is not None:
                numbers.setdefault(row.entity, row.number)
        # CONTAINS rows use the partition name as their entity; the
        # partition is a source, not an object of the parsed source.
        partitions = dataset.partition_entities()
        entity_rows = (
            (entity, texts.get(entity), numbers.get(entity))
            for entity in dataset.entities()
            if entity not in partitions
        )
        return self.repository.add_objects(source, entity_rows)

    def _import_target(
        self, source: Source, dataset: EavDataset, target: str
    ) -> tuple[int, int]:
        """Import one annotation target: objects, mapping, associations."""
        repo = self.repository
        rows = dataset.rows_for_target(target)
        info = target_info(target)
        # Self-references (e.g. a LocusLink record citing another locus)
        # reuse the parsed source itself as the target source.
        if info.name.lower() == source.name.lower():
            target_source = source
        else:
            target_source = repo.add_source(
                info.name, content=info.content, structure=info.structure
            )
        object_rows: dict[str, tuple[str, str | None, float | None]] = {}
        for row in rows:
            existing = object_rows.get(row.accession)
            if existing is None or (existing[1] is None and row.text):
                object_rows[row.accession] = (row.accession, row.text, row.number)
        inserted_objects = repo.add_objects(target_source, object_rows.values())
        rel_type = info.rel_type
        if rel_type == RelType.FACT and dataset.has_reduced_evidence(target):
            rel_type = RelType.SIMILARITY
        rel = repo.ensure_source_rel(source, target_source, rel_type)
        association_rows = (
            (row.entity, row.accession, row.evidence) for row in rows
        )
        inserted_assocs = repo.add_associations(rel, association_rows, strict=True)
        return inserted_objects, inserted_assocs

    def _import_structure(
        self,
        source: Source,
        dataset: EavDataset,
        new_associations: dict[str, int],
    ) -> int:
        """Materialize IS_A and CONTAINS rows; returns skipped-row count."""
        repo = self.repository
        skipped = 0
        is_a_rows = dataset.rows_for_target(IS_A_TARGET)
        if is_a_rows:
            # Parents may not appear as entities (e.g. synthesized EC
            # classes); make sure every endpoint exists as an object.
            endpoints = {row.entity for row in is_a_rows}
            endpoints.update(row.accession for row in is_a_rows)
            repo.add_objects(source, [(accession,) for accession in sorted(endpoints)])
            rel = repo.ensure_source_rel(source, source, RelType.IS_A)
            new_associations[IS_A_TARGET] = repo.add_associations(
                rel, [(row.entity, row.accession) for row in is_a_rows]
            )
        contains_rows = dataset.rows_for_target(CONTAINS_TARGET)
        if contains_rows:
            by_partition: dict[str, list[str]] = defaultdict(list)
            for row in contains_rows:
                by_partition[row.entity].append(row.accession)
            # Partition members must exist as objects of the parsed source;
            # the loop below only writes to the partition sources, so the
            # parsed source's accession set is loop-invariant.
            known = repo.accessions_of(source)
            for partition_name, members in sorted(by_partition.items()):
                partition = repo.add_source(
                    partition_name,
                    content=source.content,
                    structure=SourceStructure.NETWORK,
                )
                repo.add_objects(partition, [(member,) for member in members])
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
