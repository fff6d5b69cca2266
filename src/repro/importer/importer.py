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

Import runs in two halves.  :func:`plan_import` groups a parsed dataset
into plain-tuple rows per source, target, IS_A and CONTAINS, with no
database access, so it can run in a parse process
(:meth:`~repro.importer.pipeline.IntegrationPipeline.integrate_directory`
with ``workers > 1``).  :meth:`GamImporter.apply` does every database
write of one plan as one transaction behind the writer lock.
"""

from __future__ import annotations

import dataclasses
import datetime
from collections import defaultdict
from typing import NamedTuple

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


class ImportPlan(NamedTuple):
    """Everything the Import step writes for one parsed source, as plain
    tuples.

    :func:`plan_import` builds it from an :class:`EavDataset` without
    touching a database, so a parse process can build it and hand it to
    the writer: plain tuples pickle about ten times faster than the
    frozen :class:`~repro.eav.model.EavRow` objects they come from.
    :meth:`GamImporter.apply` writes it.
    """

    source_name: str
    release: str | None
    content: SourceContent
    structure: SourceStructure
    #: EAV rows the plan was built from.
    rows: int
    #: ``(accession, text, number)`` per entity of the parsed source.
    entities: list[tuple[str, str | None, float | None]]
    #: ``(term, parent)`` per IS_A row.
    is_a: list[tuple[str, str]]
    #: ``(partition, member accessions)`` per CONTAINS partition, by name.
    partitions: list[tuple[str, list[str]]]
    #: ``(target, reduced evidence, objects, associations)`` per
    #: annotation target in first-seen order; objects are ``(accession,
    #: text, number)``, associations ``(entity, accession, evidence)``.
    targets: list[tuple[str, bool, list[tuple], list[tuple[str, str, float]]]]


def plan_import(
    dataset: EavDataset,
    content: SourceContent | str = SourceContent.OTHER,
    structure: SourceStructure | str = SourceStructure.FLAT,
) -> ImportPlan:
    """Group one parsed dataset into the rows :meth:`GamImporter.apply`
    writes.

    ``content`` and ``structure`` classify the *parsed* source; a source
    with structural rows is Network regardless of the declared default.
    """
    if not dataset.source_name:
        raise ImportError_("dataset has no source name")
    structure = SourceStructure.parse(structure)
    if {IS_A_TARGET, CONTAINS_TARGET} & set(dataset.targets()):
        structure = SourceStructure.NETWORK
    # Entities, enriched with Name/Number rows.  CONTAINS rows use the
    # partition name as their entity; the partition is a source, not an
    # object of the parsed source.
    texts: dict[str, str] = {}
    numbers: dict[str, float] = {}
    for row in dataset.rows_for_target(NAME_TARGET):
        if row.text:
            texts.setdefault(row.entity, row.text)
    for row in dataset.rows_for_target(NUMBER_TARGET):
        if row.number is not None:
            numbers.setdefault(row.entity, row.number)
    partition_entities = dataset.partition_entities()
    entities = [
        (entity, texts.get(entity), numbers.get(entity))
        for entity in dataset.entities()
        if entity not in partition_entities
    ]
    by_partition: dict[str, list[str]] = defaultdict(list)
    for row in dataset.rows_for_target(CONTAINS_TARGET):
        by_partition[row.entity].append(row.accession)
    targets = []
    for target in dataset.annotation_targets():
        rows = dataset.rows_for_target(target)
        objects: dict[str, tuple[str, str | None, float | None]] = {}
        for row in rows:
            existing = objects.get(row.accession)
            if existing is None or (existing[1] is None and row.text):
                objects[row.accession] = (row.accession, row.text, row.number)
        targets.append((
            target,
            dataset.has_reduced_evidence(target),
            list(objects.values()),
            [(row.entity, row.accession, row.evidence) for row in rows],
        ))
    is_a = [(row.entity, row.accession) for row in dataset.rows_for_target(IS_A_TARGET)]
    return ImportPlan(
        source_name=dataset.source_name,
        release=dataset.release,
        content=SourceContent.parse(content),
        structure=structure,
        rows=len(dataset),
        entities=entities,
        is_a=is_a,
        partitions=sorted(by_partition.items()),
        targets=targets,
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
        return self.apply(plan_import(dataset, content, structure))

    def apply(self, plan: ImportPlan) -> ImportReport:
        """Write one plan as a single transaction behind the writer lock.

        Duplicate elimination happens inside ``add_objects`` and
        ``add_associations``: the difference between offered and inserted
        rows is the duplicate work.
        """
        repo = self.repository
        tracer = get_tracer()
        new_associations: dict[str, int] = {}
        new_target_objects: dict[str, int] = {}
        skipped = 0
        with tracer.span(
            "pipeline.import", source=plan.source_name, rows=plan.rows
        ) as import_span, repo.db.transaction(), repo.bulk_import():
            source = repo.add_source(
                plan.source_name,
                content=plan.content,
                structure=plan.structure,
                release=plan.release,
                imported_at=self._clock(),
            )
            with tracer.span("pipeline.import.entities") as span:
                new_objects = repo.add_objects(source, plan.entities)
                span.tag(inserted=new_objects)
            with tracer.span("pipeline.import.structure"):
                if plan.is_a:
                    # Parents may not appear as entities (e.g. synthesized
                    # EC classes); make sure every endpoint is an object.
                    endpoints = {accession for pair in plan.is_a for accession in pair}
                    repo.add_objects(source, [(acc,) for acc in sorted(endpoints)])
                    rel = repo.ensure_source_rel(source, source, RelType.IS_A)
                    new_associations[IS_A_TARGET] = repo.add_associations(
                        rel, plan.is_a
                    )
                # Partition members must exist as objects of the parsed
                # source; the loop only writes to the partition sources,
                # so the parsed source's accession set is loop-invariant.
                known = repo.accessions_of(source) if plan.partitions else set()
                for partition_name, members in plan.partitions:
                    partition = repo.add_source(
                        partition_name,
                        content=source.content,
                        structure=SourceStructure.NETWORK,
                    )
                    repo.add_objects(partition, [(member,) for member in members])
                    rel = repo.ensure_source_rel(source, partition, RelType.CONTAINS)
                    member_rows = [(m, m) for m in members if m in known]
                    skipped += len(members) - len(member_rows)
                    new_associations[partition_name] = repo.add_associations(
                        rel, member_rows
                    )
            for target, reduced, objects, associations in plan.targets:
                with tracer.span("pipeline.import.target", target=target) as span:
                    info = target_info(target)
                    # Self-references (e.g. a LocusLink record citing
                    # another locus) reuse the parsed source itself.
                    if info.name.lower() == source.name.lower():
                        target_source = source
                    else:
                        target_source = repo.add_source(
                            info.name, content=info.content, structure=info.structure
                        )
                    inserted_objects = repo.add_objects(target_source, objects)
                    rel_type = info.rel_type
                    if rel_type == RelType.FACT and reduced:
                        rel_type = RelType.SIMILARITY
                    rel = repo.ensure_source_rel(source, target_source, rel_type)
                    inserted_assocs = repo.add_associations(
                        rel, associations, strict=True
                    )
                    span.tag(objects=inserted_objects, associations=inserted_assocs)
                new_target_objects[target] = inserted_objects
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
