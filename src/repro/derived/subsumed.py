"""Derivation of Subsumed relationships (paper Section 3).

A Subsumed relationship is computed automatically from the IS_A structure
of a Network source: it associates every term with all terms it subsumes
(its descendants in the term hierarchy).  The paper's motivation: a gene
annotated with a GO term should be found when querying with any ancestor of
that term.

Two operations are provided:

* :func:`derive_subsumed` materializes the Subsumed mapping in the GAM
  database, so frequent queries can use it like any stored mapping;
* :func:`rollup_mapping` expands an annotation mapping (e.g. genes → GO)
  so every object is also associated with the ancestors of its terms —
  the rollup used by the Section 5.2 statistical analysis.
"""

from __future__ import annotations

from repro.cache.deps import record_dependency
from repro.gam.enums import RelType
from repro.gam.errors import GamIntegrityError, UnknownMappingError
from repro.gam.records import Source, SourceRel
from repro.gam.repository import GamRepository
from repro.operators.mapping import Mapping
from repro.operators.simple import map_
from repro.taxonomy.dag import Taxonomy


def load_taxonomy(repository: GamRepository, source: "str | Source") -> Taxonomy:
    """Build the IS_A taxonomy of a Network source from the database."""
    src = repository.get_source(source)
    # Scoped cache invalidation: a cached taxonomy (and anything built on
    # it) depends on its source alone.
    record_dependency(src.name)
    rels = repository.find_source_rels(src, src, RelType.IS_A)
    if not rels:
        raise UnknownMappingError(src.name, src.name, "no IS_A structure stored")
    pairs: list[tuple[str, str]] = []
    for rel in rels:
        for assoc in repository.associations_of(rel):
            pairs.append((assoc.source_accession, assoc.target_accession))
    return Taxonomy(pairs)


def subsumed_mapping(
    repository: GamRepository, source: "str | Source"
) -> Mapping:
    """The term → subsumed-term mapping of a source, computed on the fly."""
    src = repository.get_source(source)
    taxonomy = load_taxonomy(repository, src)
    return Mapping.build(
        src.name,
        src.name,
        taxonomy.subsumed_pairs(),
        rel_type=RelType.SUBSUMED,
    )


def derive_subsumed(
    repository: GamRepository, source: "str | Source"
) -> tuple[SourceRel, int]:
    """Materialize the Subsumed relationship of a source in the database.

    Returns the source relationship and the number of associations stored.
    Re-running is idempotent (associations are deduplicated by key).

    The transitive closure is computed and written by one recursive-CTE
    ``INSERT ... SELECT`` inside SQLite; the IS_A edges never round-trip
    through a Python :class:`~repro.taxonomy.dag.Taxonomy`.  IS_A
    associations are stored child→parent (``object1_id`` is the child);
    Subsumed pairs run ancestor→descendant.  The seed base is every
    reversed IS_A edge and the recursion extends each pair one more IS_A
    level downward.  ``UNION`` (not ``UNION ALL``) deduplicates visited
    pairs, so the recursion terminates even on cyclic input — a cycle
    instead shows up as a self-subsumed term, which is detected afterwards
    inside the same transaction and rolls everything back with
    :class:`~repro.gam.errors.GamIntegrityError`.
    """
    src = repository.get_source(source)
    is_a_rels = repository.find_source_rels(src, src, RelType.IS_A)
    if not is_a_rels:
        raise UnknownMappingError(src.name, src.name, "no IS_A structure stored")
    rel_ids = tuple(rel.src_rel_id for rel in is_a_rels)
    placeholders = ", ".join("?" for _ in rel_ids)
    sql = (
        "INSERT OR IGNORE INTO object_rel"
        " (src_rel_id, object1_id, object2_id, evidence)"
        " WITH RECURSIVE closure(ancestor, descendant) AS ("
        f"   SELECT object2_id, object1_id FROM object_rel"
        f"    WHERE src_rel_id IN ({placeholders})"
        "   UNION"
        "   SELECT closure.ancestor, edge.object1_id"
        "     FROM closure JOIN object_rel edge"
        "       ON edge.object2_id = closure.descendant"
        f"      AND edge.src_rel_id IN ({placeholders})"
        " )"
        " SELECT ?, ancestor, descendant, 1.0 FROM closure"
    )
    with repository.db.write_scope(src.name), repository.db.transaction():
        rel = repository.ensure_source_rel(src, src, RelType.SUBSUMED)
        cursor = repository.db.execute(
            sql, (*rel_ids, *rel_ids, rel.src_rel_id)
        )
        inserted = max(cursor.rowcount, 0)
        reject_self_subsumption(repository, src, rel)
    return rel, inserted


def reject_self_subsumption(
    repository: GamRepository, src: Source, rel: SourceRel
) -> None:
    """Raise :class:`GamIntegrityError` if ``rel`` subsumes a term under
    itself, the trace an IS_A cycle leaves in the closure; called inside
    the writing transaction, so the raise rolls the closure back."""
    cyclic = repository.db.execute_read(
        "SELECT 1 FROM object_rel"
        " WHERE src_rel_id = ? AND object1_id = object2_id LIMIT 1",
        (rel.src_rel_id,),
    ).fetchone()
    if cyclic is not None:
        raise GamIntegrityError(
            f"IS_A structure of {src.name!r} contains a cycle"
            " (self-subsumption detected)"
        )


def rollup_mapping(
    annotation: Mapping, taxonomy: Taxonomy, include_direct: bool = True
) -> Mapping:
    """Expand an object → term mapping up the taxonomy.

    Every association (object, term) contributes (object, ancestor) for all
    ancestors of the term, so that querying with a general term finds
    objects annotated with any of its subsumed (more specific) terms.
    Terms not present in the taxonomy keep only their direct association.
    """
    pairs: list[tuple[str, str, float]] = []
    for assoc in annotation:
        term = assoc.target_accession
        if include_direct:
            pairs.append((assoc.source_accession, term, assoc.evidence))
        if term in taxonomy:
            for ancestor in taxonomy.ancestors(term):
                pairs.append((assoc.source_accession, ancestor, assoc.evidence))
    return Mapping.build(
        annotation.source, annotation.target, pairs, rel_type=RelType.SUBSUMED
    )


def query_with_subsumption(
    repository: GamRepository,
    annotation_source: "str | Source",
    taxonomy_source: "str | Source",
    term: str,
) -> set[str]:
    """Objects annotated with ``term`` or any of its subsumed terms.

    The direct use case from the paper: "if a gene is annotated with a
    particular GO term, it is often necessary to consider the subsumed
    terms for more detailed gene functions".
    """
    annotation = map_(repository, annotation_source, taxonomy_source)
    taxonomy = load_taxonomy(repository, taxonomy_source)
    wanted = {term}
    if term in taxonomy:
        wanted.update(taxonomy.descendants(term))
    return annotation.restrict_range(wanted).domain()
