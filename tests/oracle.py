"""Python oracles for Compose and the derivations.

The program runs Compose, ``derive_composed``, ``derive_subsumed`` and
both delta refreshes inside SQLite (:mod:`repro.operators.compose`,
:mod:`repro.derived`).  This module implements the same operators a
second, independent way — dict joins over mappings loaded through
``Map`` and the in-memory :class:`~repro.taxonomy.dag.Taxonomy` closure —
so that tests can compare the SQL with it.  The functions mirror the
program's signatures; each derivation and refresh writes through the
repository's generic ``add_associations`` path.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Sequence

from repro.derived.composed import materialize_mapping
from repro.derived.refresh import RefreshReport
from repro.derived.subsumed import load_taxonomy, subsumed_mapping
from repro.gam.enums import RelType
from repro.gam.errors import GamIntegrityError, UnknownMappingError
from repro.gam.records import SourceRel
from repro.gam.repository import GamRepository
from repro.operators.compose import (
    EvidenceCombiner,
    product_evidence,
    resolve_hop_rel,
)
from repro.operators.mapping import Mapping
from repro.operators.simple import map_

# -- Compose ----------------------------------------------------------------


def compose_pair(
    first: Mapping,
    second: Mapping,
    combiner: EvidenceCombiner = product_evidence,
) -> Mapping:
    """Join two mappings sharing an intermediate source.

    ``first``: S1 ↔ S2 and ``second``: S2 ↔ S3 produce S1 ↔ S3.  The join
    is on target accessions of ``first`` and source accessions of
    ``second`` (the relational join of the paper); per endpoint pair the
    strongest chain wins.  Raises ``ValueError`` when the mappings do not
    share the intermediate source.
    """
    if first.target != second.source:
        raise ValueError(
            f"cannot compose {first.source}↔{first.target} with"
            f" {second.source}↔{second.target}: intermediate sources differ"
        )
    by_intermediate: dict[str, list] = defaultdict(list)
    for assoc in second:
        by_intermediate[assoc.source_accession].append(assoc)
    best: dict[tuple[str, str], float] = {}
    for left in first:
        for right in by_intermediate.get(left.target_accession, ()):
            key = (left.source_accession, right.target_accession)
            evidence = combiner(left.evidence, right.evidence)
            if key not in best or evidence > best[key]:
                best[key] = evidence
    return Mapping.build(
        first.source,
        second.target,
        ((acc1, acc2, evidence) for (acc1, acc2), evidence in best.items()),
        rel_type=RelType.COMPOSED,
    )


def compose_mappings(
    mappings: Sequence[Mapping],
    combiner: EvidenceCombiner = product_evidence,
) -> Mapping:
    """Fold :func:`compose_pair` over a mapping path of length >= 1."""
    if not mappings:
        raise ValueError("compose needs at least one mapping")
    result = mappings[0]
    for mapping in mappings[1:]:
        result = compose_pair(result, mapping, combiner)
    return result


def compose(
    repository: GamRepository,
    path: Sequence[str],
    combiner: EvidenceCombiner = product_evidence,
) -> Mapping:
    """``Compose`` by loading every leg through ``Map`` and folding."""
    names = [str(step) for step in path]
    legs = [
        map_(repository, source, target)
        for source, target in zip(names, names[1:])
    ]
    return compose_mappings(legs, combiner)


# -- full derivations -------------------------------------------------------


def derive_composed(
    repository: GamRepository,
    path: Sequence[str],
    combiner: EvidenceCombiner = product_evidence,
) -> tuple[SourceRel, int]:
    """Materialize the folded composition as a Composed relationship."""
    return materialize_mapping(
        repository, compose(repository, path, combiner), RelType.COMPOSED
    )


def derive_subsumed(
    repository: GamRepository, source: str
) -> tuple[SourceRel, int]:
    """Materialize the Taxonomy's closure as a Subsumed relationship;
    the Taxonomy itself rejects cyclic IS_A structures."""
    return materialize_mapping(
        repository, subsumed_mapping(repository, source), RelType.SUBSUMED
    )


# -- delta refreshes --------------------------------------------------------

#: Insert new pairs; raise a stored pair's evidence when a stronger chain
#: appears.
_UPSERT = (
    "INSERT INTO object_rel (src_rel_id, object1_id, object2_id, evidence)"
    " VALUES (?, ?, ?, ?)"
    " ON CONFLICT (src_rel_id, object1_id, object2_id)"
    " DO UPDATE SET evidence = excluded.evidence"
    " WHERE excluded.evidence > object_rel.evidence"
)


def hop_mapping(
    repository: GamRepository,
    rel: SourceRel,
    forward: bool,
    source: str,
    target: str,
    min_rowid: int | None = None,
) -> Mapping:
    """One hop's associations as an oriented Mapping, optionally only
    the delta rows (``obj_rel_id > min_rowid``)."""
    sql = (
        "SELECT o1.accession AS acc1, o2.accession AS acc2, r.evidence"
        " FROM object_rel r"
        " JOIN object o1 ON o1.object_id = r.object1_id"
        " JOIN object o2 ON o2.object_id = r.object2_id"
        " WHERE r.src_rel_id = ?"
    )
    params: tuple = (rel.src_rel_id,)
    if min_rowid is not None:
        sql += " AND r.obj_rel_id > ?"
        params = (rel.src_rel_id, min_rowid)
    rows = repository.db.execute_read(sql, params).fetchall()
    if forward:
        triples = ((row["acc1"], row["acc2"], row["evidence"]) for row in rows)
    else:
        triples = ((row["acc2"], row["acc1"], row["evidence"]) for row in rows)
    return Mapping.build(source, target, triples, rel_type=rel.type)


def refresh_composed(
    repository: GamRepository,
    path: Sequence[str],
    combiner: EvidenceCombiner = product_evidence,
    watermark: int = 0,
) -> RefreshReport:
    """For each hop position, compose the full legs around that hop's
    delta rows, take the per-pair evidence max across positions, and
    upsert it into the Composed relationship."""
    names = [str(step) for step in path]
    hops = [
        (*resolve_hop_rel(repository, source, target), source, target)
        for source, target in zip(names, names[1:])
    ]
    full_legs = [
        hop_mapping(repository, rel, forward, source, target)
        for rel, forward, source, target in hops
    ]
    best: dict[tuple[str, str], float] = {}
    delta_edges = 0
    for index, (hop_rel, forward, source, target) in enumerate(hops):
        delta_leg = hop_mapping(
            repository, hop_rel, forward, source, target, min_rowid=watermark
        )
        delta_edges += len(delta_leg)
        if delta_leg.is_empty():
            continue
        legs = list(full_legs)
        legs[index] = delta_leg
        for assoc in compose_mappings(legs, combiner):
            key = (assoc.source_accession, assoc.target_accession)
            if key not in best or assoc.evidence > best[key]:
                best[key] = assoc.evidence
    with repository.db.write_scope(
        names[0], names[-1]
    ), repository.db.transaction():
        rel = repository.ensure_source_rel(names[0], names[-1], RelType.COMPOSED)
        ids1 = repository.accession_to_id(names[0])
        ids2 = repository.accession_to_id(names[-1])
        changed = repository.db.executemany_counted(
            _UPSERT,
            (
                (rel.src_rel_id, ids1[acc1], ids2[acc2], evidence)
                for (acc1, acc2), evidence in best.items()
            ),
        )
    return RefreshReport(
        rel=rel, watermark=watermark, delta_edges=delta_edges, changed=changed
    )


def refresh_subsumed(
    repository: GamRepository, source: str, watermark: int = 0
) -> RefreshReport:
    """Each new IS_A edge child → parent adds ancestors(parent) ×
    descendants(child) over the full (post-import) Taxonomy."""
    src = repository.get_source(source)
    is_a_rels = repository.find_source_rels(src, src, RelType.IS_A)
    if not is_a_rels:
        raise UnknownMappingError(src.name, src.name, "no IS_A structure stored")
    placeholders = ", ".join("?" for _ in is_a_rels)
    delta_rows = repository.db.execute_read(
        "SELECT o1.accession AS child, o2.accession AS parent"
        " FROM object_rel r"
        " JOIN object o1 ON o1.object_id = r.object1_id"
        " JOIN object o2 ON o2.object_id = r.object2_id"
        f" WHERE r.src_rel_id IN ({placeholders}) AND r.obj_rel_id > ?",
        (*(rel.src_rel_id for rel in is_a_rels), watermark),
    ).fetchall()
    pairs: set[tuple[str, str]] = set()
    if delta_rows:
        taxonomy = load_taxonomy(repository, src)
        for row in delta_rows:
            for ancestor in taxonomy.ancestors(row["parent"], include_self=True):
                for descendant in taxonomy.descendants(
                    row["child"], include_self=True
                ):
                    if ancestor == descendant:
                        raise GamIntegrityError(
                            f"IS_A structure of {src.name!r} contains a cycle"
                        )
                    pairs.add((ancestor, descendant))
    with repository.db.write_scope(src.name), repository.db.transaction():
        rel = repository.ensure_source_rel(src, src, RelType.SUBSUMED)
        changed = repository.add_associations(
            rel, ((ancestor, descendant, 1.0) for ancestor, descendant in pairs)
        )
    return RefreshReport(
        rel=rel, watermark=watermark, delta_edges=len(delta_rows), changed=changed
    )
