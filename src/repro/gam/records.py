"""Plain record types mirroring the four GAM tables (paper Figure 4).

These are lightweight, immutable dataclasses returned by the repository
layer.  They deliberately mirror the relational rows one-to-one so that code
reading them reads like the paper: ``source.content``, ``obj.accession``,
``rel.type``, ``assoc.evidence``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

from repro.gam.enums import RelType, SourceContent, SourceStructure


@dataclasses.dataclass(frozen=True, slots=True)
class Source:
    """A row of the SOURCE table.

    A source is any predefined set of objects: a public collection of genes,
    an ontology, or a database schema.
    """

    source_id: int
    name: str
    content: SourceContent
    structure: SourceStructure
    #: Release label of the imported snapshot, used for duplicate
    #: elimination at the source level together with ``name``.
    release: str | None = None
    #: Import date audit information (ISO format).
    imported_at: str | None = None

    def __str__(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True, slots=True)
class GamObject:
    """A row of the OBJECT table.

    Each object carries its source-specific identifier (``accession``),
    optionally accompanied by a textual component (e.g. the object name) or a
    numeric representation.
    """

    object_id: int
    source_id: int
    accession: str
    text: str | None = None
    number: float | None = None

    def __str__(self) -> str:
        return self.accession


@dataclasses.dataclass(frozen=True, slots=True)
class SourceRel:
    """A row of the SOURCE_REL table: a typed relationship between sources.

    A source relationship of an annotation or derived type is a *mapping*
    and typically consists of many object-level associations.
    """

    src_rel_id: int
    source1_id: int
    source2_id: int
    type: RelType

    @property
    def is_mapping(self) -> bool:
        """True when object associations of this rel connect two sources."""
        return self.type.is_annotation or self.type.is_derived


@dataclasses.dataclass(frozen=True, slots=True)
class ObjectRel:
    """A row of the OBJECT_REL table: one association between two objects.

    ``evidence`` captures the computed plausibility of the association; fact
    associations default to ``1.0``.
    """

    obj_rel_id: int
    src_rel_id: int
    object1_id: int
    object2_id: int
    evidence: float = 1.0


@dataclasses.dataclass(frozen=True, slots=True)
class Association:
    """A single object-level association materialized with accessions.

    This is the operator-facing unit: the ``Map`` operator returns
    associations keyed by accession so that views and exports never need to
    resolve internal object ids again.
    """

    source_accession: str
    target_accession: str
    evidence: float = 1.0

    def reversed(self) -> "Association":
        """Return the same association with source and target swapped."""
        return Association(self.target_accession, self.source_accession, self.evidence)


def shared_associations(rows: Iterable[Sequence]) -> list[Association]:
    """Associations of ``(accession1, accession2, evidence)`` rows, in order.

    Each distinct accession and each distinct evidence value becomes one
    object shared by every association holding it.  A database cursor
    returns fresh objects per cell, so a loaded mapping would otherwise
    hold an accession once per row it appears in.
    """
    shared_accession = {}.setdefault
    shared_evidence = {}.setdefault
    return [
        Association(
            shared_accession(acc1, acc1),
            shared_accession(acc2, acc2),
            shared_evidence(evidence, evidence),
        )
        for acc1, acc2, evidence in rows
    ]
