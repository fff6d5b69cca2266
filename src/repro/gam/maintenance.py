"""Maintenance operations on a GAM database.

The paper's deployment is long-lived: sources are re-imported, derived
mappings are rebuilt, obsolete sources retired.  These operations keep the
central database healthy through that lifecycle:

* :func:`delete_source` — cascade-remove a source, its objects, every
  relationship touching it and all their associations;
* :func:`drop_derived` — remove materialized Composed/Subsumed mappings
  (so they can be re-derived after new imports);
* :func:`prune_orphan_objects` — delete objects no association or
  structural relationship references (e.g. left behind by target removal);
* :func:`vacuum` — reclaim file space after large deletes.

All mutating operations run in one transaction and return counts of the
rows they removed.
"""

from __future__ import annotations

import dataclasses

from repro.gam.database import GamDatabase
from repro.gam.enums import RelType
from repro.gam.records import Source
from repro.gam.repository import GamRepository


@dataclasses.dataclass(frozen=True, slots=True)
class DeletionReport:
    """What a cascade deletion removed."""

    source: str
    objects: int
    source_rels: int
    associations: int

    def summary(self) -> str:
        return (
            f"deleted {self.source}: {self.objects} objects,"
            f" {self.source_rels} relationships,"
            f" {self.associations} associations"
        )


def delete_source(
    repository: GamRepository, source: "str | Source"
) -> DeletionReport:
    """Cascade-remove one source from the database.

    Relationships in either direction and their associations go first,
    then the source's objects, then the source row itself.
    """
    src = repository.get_source(source)
    db = repository.db
    # Scoped to the deleted source: cache entries that read any mapping
    # touching it recorded it as a dependency and invalidate; entries for
    # unrelated source pairs stay warm.
    with db.write_scope(src.name), db.transaction():
        rel_rows = db.execute(
            "SELECT src_rel_id FROM source_rel"
            " WHERE source1_id = ? OR source2_id = ?",
            (src.source_id, src.source_id),
        ).fetchall()
        rel_ids = [row[0] for row in rel_rows]
        associations = 0
        for rel_id in rel_ids:
            cursor = db.execute(
                "DELETE FROM object_rel WHERE src_rel_id = ?", (rel_id,)
            )
            associations += cursor.rowcount
        db.execute(
            "DELETE FROM source_rel WHERE source1_id = ? OR source2_id = ?",
            (src.source_id, src.source_id),
        )
        cursor = db.execute(
            "DELETE FROM object WHERE source_id = ?", (src.source_id,)
        )
        objects = cursor.rowcount
        db.execute("DELETE FROM source WHERE source_id = ?", (src.source_id,))
    return DeletionReport(
        source=src.name,
        objects=objects,
        source_rels=len(rel_ids),
        associations=associations,
    )


def drop_derived(repository: GamRepository) -> int:
    """Remove every materialized Composed and Subsumed relationship.

    Returns the number of relationships dropped.  Imported (Fact,
    Similarity) and structural (Contains, Is-a) relationships are never
    touched — derived knowledge can always be recomputed from them.
    """
    db = repository.db
    derived_types = (RelType.COMPOSED.value, RelType.SUBSUMED.value)
    with db.transaction():
        rel_rows = db.execute(
            "SELECT src_rel_id FROM source_rel WHERE type IN (?, ?)",
            derived_types,
        ).fetchall()
        for row in rel_rows:
            db.execute(
                "DELETE FROM object_rel WHERE src_rel_id = ?", (row[0],)
            )
        db.execute(
            "DELETE FROM source_rel WHERE type IN (?, ?)", derived_types
        )
    return len(rel_rows)


def prune_orphan_objects(
    repository: GamRepository, source: "str | Source | None" = None
) -> int:
    """Delete objects referenced by no association.

    Useful after :func:`delete_source`: objects of *other* sources that
    existed only as annotation values of the deleted source become
    unreachable knowledge.

    Without ``source``, a conservative database-wide rule applies: only
    objects whose source still participates in at least one relationship
    are pruned — a source with zero relationships (freshly imported, not
    yet linked) keeps its objects, since being unlinked is its normal
    state.  With an explicit ``source``, *its* unreferenced objects are
    pruned unconditionally.
    """
    db = repository.db
    unreferenced = (
        "NOT EXISTS ("
        " SELECT 1 FROM object_rel r"
        " WHERE r.object1_id = o.object_id OR r.object2_id = o.object_id)"
    )
    with db.transaction():
        if source is not None:
            src = repository.get_source(source)
            cursor = db.execute(
                "DELETE FROM object WHERE object_id IN ("
                " SELECT o.object_id FROM object o"
                f" WHERE o.source_id = ? AND {unreferenced})",
                (src.source_id,),
            )
        else:
            cursor = db.execute(
                "DELETE FROM object WHERE object_id IN ("
                " SELECT o.object_id FROM object o"
                " WHERE EXISTS ("
                "  SELECT 1 FROM source_rel sr"
                "  WHERE sr.source1_id = o.source_id"
                "     OR sr.source2_id = o.source_id)"
                f" AND {unreferenced})"
            )
        return cursor.rowcount


def vacuum(db: GamDatabase) -> None:
    """Reclaim space after large deletions (no-op for in-memory DBs)."""
    db.commit()
    db.execute("VACUUM")
