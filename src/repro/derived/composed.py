"""Materialization of Composed relationships (paper Sections 1 and 3).

Results of ``Compose`` that are of general interest — e.g. the derived
mapping Unigene ↔ GO — can be materialized in the central database so that
subsequent ``Map`` calls and annotation views retrieve them like any
imported mapping, without re-running the join.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.gam.enums import RelType
from repro.gam.records import Source, SourceRel
from repro.gam.repository import GamRepository
from repro.operators.compose import (
    EvidenceCombiner,
    combiner_name,
    compose,
    materialization_rows,
    materialize_composed_sql,
    product_evidence,
)
from repro.operators.mapping import Mapping


def materialize_mapping(
    repository: GamRepository,
    mapping: Mapping,
    rel_type: RelType = RelType.COMPOSED,
) -> tuple[SourceRel, int]:
    """Store an in-memory mapping as a source relationship + associations.

    Target objects referenced by the mapping must already exist (they do,
    for any mapping produced by Map/Compose over imported data).  Returns
    the relationship and the number of associations inserted.
    """
    source = repository.get_source(mapping.source)
    target = repository.get_source(mapping.target)
    with repository.db.transaction():
        rel = repository.ensure_source_rel(source, target, rel_type)
        inserted = repository.add_associations(rel, materialization_rows(mapping))
    return rel, inserted


def derive_composed(
    repository: GamRepository,
    path: Sequence["str | Source"],
    combiner: EvidenceCombiner = product_evidence,
    materialize: bool = True,
) -> Mapping:
    """Compose along ``path`` and optionally materialize the result.

    The classic example: ``derive_composed(repo, ["Unigene", "LocusLink",
    "GO"])`` derives and stores Unigene ↔ GO.  The derived associations
    are written by one ``INSERT ... SELECT`` chain join inside SQLite
    (:func:`~repro.operators.compose.materialize_composed_sql`) instead of
    round-tripping accession lists through Python.
    """
    mapping = compose(repository, path, combiner)
    if materialize and len(path) > 2:
        names = [
            step.name if isinstance(step, Source) else str(step) for step in path
        ]
        with repository.db.write_scope(
            names[0], names[-1]
        ), repository.db.transaction():
            rel = repository.ensure_source_rel(
                names[0], names[-1], RelType.COMPOSED
            )
            materialize_composed_sql(
                repository, names, combiner_name(combiner), rel
            )
    return mapping
