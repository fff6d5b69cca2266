"""Repository: typed CRUD over the four GAM tables.

This is the only layer that writes SQL against the GAM schema.  Everything
above it (importer, operators, analysis) talks in terms of
:class:`~repro.gam.records.Source`, :class:`~repro.gam.records.GamObject`,
mappings and associations.

Duplicate elimination (paper Section 4.1) lives here:

* at the *source* level, ``add_source`` compares name and release audit
  information and returns the existing row instead of inserting again;
* at the *object* level, ``add_objects`` compares accessions per source and
  only inserts unseen ones;
* at the *association* level, a unique index makes re-imported associations
  idempotent.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from collections.abc import Iterable, Iterator, Sequence

from repro.cache.deps import record_dependency
from repro.gam.database import GamDatabase
from repro.gam.enums import MAPPING_TYPES, RelType, SourceContent, SourceStructure
from repro.gam.errors import (
    GamIntegrityError,
    UnknownMappingError,
    UnknownObjectError,
    UnknownSourceError,
)
from repro.gam.records import (
    Association,
    GamObject,
    ObjectRel,
    Source,
    SourceRel,
    shared_associations,
)

#: Rows accepted by ``add_objects``: (accession,), (accession, text) or
#: (accession, text, number).
ObjectRow = Sequence[object]

#: Rows accepted by ``add_associations``: (accession1, accession2) or
#: (accession1, accession2, evidence).
AssociationRow = Sequence[object]

#: Accessions per ``WHERE accession IN (...)`` chunk when fetching ids of
#: freshly inserted objects back into the bulk cache (well under SQLite's
#: bound-parameter limit).
_ID_FETCH_CHUNK = 500


class GamRepository:
    """Typed access to one GAM database."""

    def __init__(self, db: GamDatabase) -> None:
        self.db = db
        self._bulk = threading.local()

    # -- bulk-import scope -------------------------------------------------

    @contextlib.contextmanager
    def bulk_import(self) -> Iterator[None]:
        """Scope in which accession→id maps are cached per source.

        Inside the scope, :meth:`add_objects` and :meth:`add_associations`
        share one accession→id map per source, loaded once and updated
        incrementally as objects are inserted — instead of re-reading the
        whole object table per annotation target, which dominated import
        time on wide sources.  The cache is thread-local, so concurrent
        imports on pool siblings never observe each other's partial state;
        reentrant scopes share the outermost cache.
        """
        depth = getattr(self._bulk, "depth", 0)
        if depth == 0:
            self._bulk.ids = {}
        self._bulk.depth = depth + 1
        try:
            yield
        finally:
            self._bulk.depth = depth
            if depth == 0:
                del self._bulk.ids

    def _bulk_ids(self) -> "dict[int, dict[str, int]] | None":
        """This thread's bulk cache, or None outside a bulk scope."""
        if getattr(self._bulk, "depth", 0) > 0:
            return self._bulk.ids
        return None

    def _accession_ids(self, source_id: int) -> dict[str, int]:
        """Accession→object_id map for a source, cached in bulk scope.

        Callers must treat the result as read-only: inside a bulk scope it
        is the live cache that :meth:`add_objects` appends to.
        """
        cache = self._bulk_ids()
        if cache is None:
            return self._load_accession_ids(source_id)
        ids = cache.get(source_id)
        if ids is None:
            ids = cache[source_id] = self._load_accession_ids(source_id)
        return ids

    def _load_accession_ids(self, source_id: int) -> dict[str, int]:
        rows = self.db.execute_read(
            "SELECT accession, object_id FROM object WHERE source_id = ?",
            (source_id,),
        ).fetchall()
        return {row[0]: row[1] for row in rows}

    # -- sources ---------------------------------------------------------

    def add_source(
        self,
        name: str,
        content: SourceContent | str = SourceContent.OTHER,
        structure: SourceStructure | str = SourceStructure.FLAT,
        release: str | None = None,
        imported_at: str | None = None,
    ) -> Source:
        """Register a source, or return the existing one.

        Duplicate elimination at the source level compares the source name
        and the release audit information (paper Section 4.1).  The name is
        the source's identity: re-importing a source with a newer release
        reuses the same source row — only its audit columns move forward —
        so object-level duplicate elimination can relate the new snapshot's
        objects with the existing ones.  A source auto-registered as an
        annotation target (no release) is upgraded in place when the source
        itself is imported later.  Importing the same (name, release) pair
        twice is a no-op.
        """
        content = SourceContent.parse(content)
        structure = SourceStructure.parse(structure)
        existing = self.find_source(name)
        if existing is not None:
            return self._refresh_source(existing, structure, release, imported_at)
        with self.db.write_scope(name):
            cursor = self.db.execute(
                "INSERT INTO source (name, content, structure, release, imported_at)"
                " VALUES (?, ?, ?, ?, ?)",
                (name, content.value, structure.value, release, imported_at),
            )
        return Source(
            source_id=int(cursor.lastrowid),
            name=name,
            content=content,
            structure=structure,
            release=release,
            imported_at=imported_at,
        )

    def _refresh_source(
        self,
        existing: Source,
        structure: SourceStructure,
        release: str | None,
        imported_at: str | None,
    ) -> Source:
        """Move an existing source's audit/structure columns forward."""
        updates: dict[str, object] = {}
        if release is not None and release != existing.release:
            updates["release"] = release
        if (
            imported_at is not None
            and imported_at != existing.imported_at
            and (release is None or release != existing.release)
        ):
            updates["imported_at"] = imported_at
        # A target-registered Flat source becomes Network when its own
        # import reveals structure; never downgrade Network to Flat.
        if (
            structure == SourceStructure.NETWORK
            and existing.structure == SourceStructure.FLAT
        ):
            updates["structure"] = structure.value
        if not updates:
            return existing
        assignments = ", ".join(f"{column} = ?" for column in updates)
        with self.db.write_scope(existing.name):
            self.db.execute(
                f"UPDATE source SET {assignments} WHERE source_id = ?",
                (*updates.values(), existing.source_id),
            )
        replacements = {
            key: (SourceStructure.parse(value) if key == "structure" else value)
            for key, value in updates.items()
        }
        return dataclasses.replace(existing, **replacements)

    def find_source(self, name: str, release: str | None = None) -> Source | None:
        """Return the source with this name (and release), or None."""
        if release is None:
            row = self.db.execute(
                "SELECT * FROM source WHERE name = ? ORDER BY source_id DESC LIMIT 1",
                (name,),
            ).fetchone()
        else:
            row = self.db.execute(
                "SELECT * FROM source WHERE name = ? AND release = ?",
                (name, release),
            ).fetchone()
        return self._source_from_row(row) if row is not None else None

    def get_source(self, ref: "int | str | Source") -> Source:
        """Resolve a source by id, name or identity; raise if unknown."""
        if isinstance(ref, Source):
            return ref
        if isinstance(ref, int):
            row = self.db.execute(
                "SELECT * FROM source WHERE source_id = ?", (ref,)
            ).fetchone()
        else:
            row = self.db.execute(
                "SELECT * FROM source WHERE name = ? ORDER BY source_id DESC LIMIT 1",
                (ref,),
            ).fetchone()
        if row is None:
            raise UnknownSourceError(ref)
        return self._source_from_row(row)

    def list_sources(self) -> list[Source]:
        """All registered sources, ordered by id."""
        rows = self.db.execute("SELECT * FROM source ORDER BY source_id").fetchall()
        return [self._source_from_row(row) for row in rows]

    @staticmethod
    def _source_from_row(row: object) -> Source:
        return Source(
            source_id=row["source_id"],
            name=row["name"],
            content=SourceContent.parse(row["content"]),
            structure=SourceStructure.parse(row["structure"]),
            release=row["release"],
            imported_at=row["imported_at"],
        )

    # -- objects ---------------------------------------------------------

    def add_objects(
        self, source: "int | str | Source", rows: Iterable[ObjectRow]
    ) -> int:
        """Insert objects for a source, skipping existing accessions.

        Each row is ``(accession,)``, ``(accession, text)`` or
        ``(accession, text, number)``.  Returns the number of objects that
        were actually inserted (duplicates are eliminated by accession).
        """
        src = self.get_source(source)
        cache = self._bulk_ids()
        known = self._accession_ids(src.source_id)
        # Split offered rows into genuinely new accessions (insert pass,
        # counted from the write cursor) and enrichment of existing ones
        # (coalesce-update pass).  Together the two passes reproduce the
        # seed's upsert exactly — new non-null text/number overwrites, null
        # keeps the stored value, later in-batch rows win — while the
        # insert count comes from ``rowcount`` instead of before/after
        # ``COUNT(*)`` scans a pool-sibling writer could skew.
        inserts: list[tuple] = []
        updates: list[tuple] = []
        fresh: set[str] = set()
        for row in rows:
            accession = str(row[0])
            text = row[1] if len(row) > 1 else None
            number = row[2] if len(row) > 2 else None
            if accession in known or accession in fresh:
                if text is not None or number is not None:
                    updates.append((text, number, src.source_id, accession))
            else:
                fresh.add(accession)
                inserts.append((src.source_id, accession, text, number))
        with self.db.write_scope(src.name), self.db.transaction():
            inserted = self.db.executemany_counted(
                "INSERT OR IGNORE INTO object (source_id, accession, text, number)"
                " VALUES (?, ?, ?, ?)",
                inserts,
            )
            if updates:
                # Rows whose values would not change are left alone: a
                # re-import offers mostly unchanged objects.
                self.db.executemany(
                    "UPDATE object SET text = coalesce(?1, text),"
                    " number = coalesce(?2, number)"
                    " WHERE source_id = ?3 AND accession = ?4"
                    " AND (text IS NOT coalesce(?1, text)"
                    " OR number IS NOT coalesce(?2, number))",
                    updates,
                )
            if cache is not None and fresh:
                self._fetch_new_ids(known, src.source_id, fresh)
        return inserted

    def _fetch_new_ids(
        self, ids: dict[str, int], source_id: int, accessions: Iterable[str]
    ) -> None:
        """Pull ids of freshly inserted accessions into the bulk cache."""
        pending = list(accessions)
        for start in range(0, len(pending), _ID_FETCH_CHUNK):
            chunk = pending[start : start + _ID_FETCH_CHUNK]
            placeholders = ", ".join("?" for _ in chunk)
            rows = self.db.execute_read(
                "SELECT accession, object_id FROM object"
                f" WHERE source_id = ? AND accession IN ({placeholders})",
                (source_id, *chunk),
            ).fetchall()
            for row in rows:
                ids[row[0]] = row[1]

    def _object_count(self, source_id: int) -> int:
        row = self.db.execute(
            "SELECT count(*) FROM object WHERE source_id = ?", (source_id,)
        ).fetchone()
        return int(row[0])

    def count_objects(self, source: "int | str | Source | None" = None) -> int:
        """Number of objects, optionally restricted to one source."""
        if source is None:
            row = self.db.execute("SELECT count(*) FROM object").fetchone()
            return int(row[0])
        return self._object_count(self.get_source(source).source_id)

    def get_object(self, source: "int | str | Source", accession: str) -> GamObject:
        """Resolve one object by source and accession; raise if unknown."""
        src = self.get_source(source)
        row = self.db.execute(
            "SELECT * FROM object WHERE source_id = ? AND accession = ?",
            (src.source_id, accession),
        ).fetchone()
        if row is None:
            raise UnknownObjectError((src.name, accession))
        return self._object_from_row(row)

    def find_object(
        self, source: "int | str | Source", accession: str
    ) -> GamObject | None:
        """Like :meth:`get_object` but returns None instead of raising."""
        try:
            return self.get_object(source, accession)
        except (UnknownObjectError, UnknownSourceError):
            return None

    def objects_of(
        self, source: "int | str | Source", limit: int | None = None
    ) -> list[GamObject]:
        """All objects of a source, ordered by accession."""
        src = self.get_source(source)
        sql = "SELECT * FROM object WHERE source_id = ? ORDER BY accession"
        params: tuple = (src.source_id,)
        if limit is not None:
            sql += " LIMIT ?"
            params = (src.source_id, limit)
        rows = self.db.execute(sql, params).fetchall()
        return [self._object_from_row(row) for row in rows]

    def objects_page(
        self,
        source: "int | str | Source",
        limit: int,
        after: str | None = None,
        offset: int = 0,
    ) -> list[GamObject]:
        """One accession-ordered page of a source's objects.

        The HTTP edge's pagination query, pushed down to the unique
        ``(source_id, accession)`` index instead of slicing a fully
        loaded object list: ``after`` seeks past an accession (keyset
        pagination — O(page) regardless of position), while ``offset``
        is the legacy skip-scan (O(offset + page), kept for clients that
        jump to arbitrary pages).  ``after`` wins when both are given.
        """
        src = self.get_source(source)
        if after is not None:
            rows = self.db.execute_read(
                "SELECT * FROM object WHERE source_id = ? AND accession > ?"
                " ORDER BY accession LIMIT ?",
                (src.source_id, after, limit),
            ).fetchall()
        else:
            rows = self.db.execute_read(
                "SELECT * FROM object WHERE source_id = ?"
                " ORDER BY accession LIMIT ? OFFSET ?",
                (src.source_id, limit, offset),
            ).fetchall()
        return [self._object_from_row(row) for row in rows]

    def iter_objects_of(
        self, source: "int | str | Source", after: str | None = None
    ) -> Iterator[GamObject]:
        """Stream a source's objects in accession order, bounded memory.

        Backs the edge's unbounded listings (``limit=0``): rows come off
        the index via :meth:`GamDatabase.execute_read_iter` in batches,
        never materializing the whole source.
        """
        src = self.get_source(source)
        if after is not None:
            rows = self.db.execute_read_iter(
                "SELECT * FROM object WHERE source_id = ? AND accession > ?"
                " ORDER BY accession",
                (src.source_id, after),
            )
        else:
            rows = self.db.execute_read_iter(
                "SELECT * FROM object WHERE source_id = ? ORDER BY accession",
                (src.source_id,),
            )
        for row in rows:
            yield self._object_from_row(row)

    def accessions_of(self, source: "int | str | Source") -> set[str]:
        """The accession set of a source."""
        src = self.get_source(source)
        if self._bulk_ids() is not None:
            return set(self._accession_ids(src.source_id))
        rows = self.db.execute(
            "SELECT accession FROM object WHERE source_id = ?", (src.source_id,)
        ).fetchall()
        return {row[0] for row in rows}

    def accession_to_id(self, source: "int | str | Source") -> dict[str, int]:
        """Mapping accession -> object_id for one source (bulk lookups)."""
        src = self.get_source(source)
        rows = self.db.execute(
            "SELECT accession, object_id FROM object WHERE source_id = ?",
            (src.source_id,),
        ).fetchall()
        return {row[0]: row[1] for row in rows}

    @staticmethod
    def _object_from_row(row: object) -> GamObject:
        return GamObject(
            object_id=row["object_id"],
            source_id=row["source_id"],
            accession=row["accession"],
            text=row["text"],
            number=row["number"],
        )

    # -- source relationships (mappings) ---------------------------------

    def ensure_source_rel(
        self,
        source1: "int | str | Source",
        source2: "int | str | Source",
        rel_type: RelType | str,
    ) -> SourceRel:
        """Get or create the source relationship of this type."""
        rel_type = RelType.parse(rel_type)
        src1 = self.get_source(source1)
        src2 = self.get_source(source2)
        row = self.db.execute(
            "SELECT * FROM source_rel"
            " WHERE source1_id = ? AND source2_id = ? AND type = ?",
            (src1.source_id, src2.source_id, rel_type.value),
        ).fetchone()
        if row is not None:
            return self._source_rel_from_row(row)
        with self.db.write_scope(src1.name, src2.name):
            cursor = self.db.execute(
                "INSERT INTO source_rel (source1_id, source2_id, type)"
                " VALUES (?, ?, ?)",
                (src1.source_id, src2.source_id, rel_type.value),
            )
        return SourceRel(
            src_rel_id=int(cursor.lastrowid),
            source1_id=src1.source_id,
            source2_id=src2.source_id,
            type=rel_type,
        )

    def find_source_rels(
        self,
        source1: "int | str | Source | None" = None,
        source2: "int | str | Source | None" = None,
        rel_type: RelType | str | None = None,
    ) -> list[SourceRel]:
        """Source relationships filtered by endpoints and/or type."""
        clauses = []
        params: list[object] = []
        if source1 is not None:
            clauses.append("source1_id = ?")
            params.append(self.get_source(source1).source_id)
        if source2 is not None:
            clauses.append("source2_id = ?")
            params.append(self.get_source(source2).source_id)
        if rel_type is not None:
            clauses.append("type = ?")
            params.append(RelType.parse(rel_type).value)
        sql = "SELECT * FROM source_rel"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY src_rel_id"
        rows = self.db.execute(sql, tuple(params)).fetchall()
        return [self._source_rel_from_row(row) for row in rows]

    def mappings_between(
        self,
        source1: "int | str | Source",
        source2: "int | str | Source",
        directed: bool = False,
    ) -> list[SourceRel]:
        """Mapping-type relationships between two sources.

        With ``directed=False`` (default) relationships stored in either
        direction are returned, since associations are navigable both ways.
        """
        src1 = self.get_source(source1)
        src2 = self.get_source(source2)
        types = tuple(sorted(t.value for t in MAPPING_TYPES))
        placeholders = ", ".join("?" for _ in types)
        sql = (
            f"SELECT * FROM source_rel WHERE type IN ({placeholders})"
            " AND ((source1_id = ? AND source2_id = ?)"
        )
        params: list[object] = [*types, src1.source_id, src2.source_id]
        if directed:
            sql += ")"
        else:
            sql += " OR (source1_id = ? AND source2_id = ?))"
            params.extend([src2.source_id, src1.source_id])
        sql += " ORDER BY src_rel_id"
        rows = self.db.execute(sql, tuple(params)).fetchall()
        return [self._source_rel_from_row(row) for row in rows]

    def sources_and_mappings(self) -> tuple[list[Source], list[SourceRel]]:
        """Every source (by id) and every mapping-type relationship (by id).

        One statement reads both — each source joined to the mappings it
        starts — so every mapping's endpoints are among the sources
        returned, even while another connection commits new sources and
        mappings.
        """
        types = tuple(sorted(t.value for t in MAPPING_TYPES))
        placeholders = ", ".join("?" for _ in types)
        rows = self.db.execute(
            "SELECT s.*, r.src_rel_id, r.source1_id, r.source2_id, r.type"
            " FROM source s LEFT JOIN source_rel r"
            f" ON r.source1_id = s.source_id AND r.type IN ({placeholders})"
            " ORDER BY s.source_id",
            types,
        ).fetchall()
        sources: dict[int, Source] = {}
        mappings = []
        for row in rows:
            if row["source_id"] not in sources:
                sources[row["source_id"]] = self._source_from_row(row)
            if row["src_rel_id"] is not None:
                mappings.append(self._source_rel_from_row(row))
        mappings.sort(key=lambda rel: rel.src_rel_id)
        return list(sources.values()), mappings

    @staticmethod
    def _source_rel_from_row(row: object) -> SourceRel:
        return SourceRel(
            src_rel_id=row["src_rel_id"],
            source1_id=row["source1_id"],
            source2_id=row["source2_id"],
            type=RelType.parse(row["type"]),
        )

    # -- object associations ---------------------------------------------

    def add_associations(
        self,
        rel: SourceRel,
        rows: Iterable[AssociationRow],
        strict: bool = True,
    ) -> int:
        """Insert object associations for a source relationship.

        Rows reference objects by accession: ``(acc1, acc2)`` or
        ``(acc1, acc2, evidence)``.  Accessions are resolved against the
        relationship's two endpoint sources.  With ``strict=True`` an
        unknown accession raises :class:`GamIntegrityError`; otherwise the
        row is skipped.  Returns the number of associations inserted
        (existing pairs are left untouched; the count comes from the write
        cursor, so concurrent writers cannot skew it).

        ``rows`` may be a generator: resolution streams into chunked
        ``executemany`` batches without materializing the resolved list.
        """
        ids1 = self._accession_ids(rel.source1_id)
        ids2 = (
            ids1
            if rel.source2_id == rel.source1_id
            else self._accession_ids(rel.source2_id)
        )

        def _resolved() -> Iterator[tuple]:
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
                yield (rel.src_rel_id, id1, id2, evidence)

        # The transaction (a savepoint when nested) keeps the seed's
        # all-or-nothing contract: a strict resolution error mid-stream
        # rolls back any chunks already written.  The write is scoped to
        # the relationship's endpoint sources so only cache entries
        # depending on them are invalidated.
        name1 = self.get_source(rel.source1_id).name
        name2 = (
            name1
            if rel.source2_id == rel.source1_id
            else self.get_source(rel.source2_id).name
        )
        with self.db.write_scope(name1, name2), self.db.transaction():
            return self.db.executemany_counted(
                "INSERT OR IGNORE INTO object_rel"
                " (src_rel_id, object1_id, object2_id, evidence)"
                " VALUES (?, ?, ?, ?)",
                _resolved(),
            )

    def count_associations(self, rel: SourceRel | None = None) -> int:
        """Number of object associations, optionally for one relationship."""
        if rel is None:
            row = self.db.execute("SELECT count(*) FROM object_rel").fetchone()
        else:
            row = self.db.execute(
                "SELECT count(*) FROM object_rel WHERE src_rel_id = ?",
                (rel.src_rel_id,),
            ).fetchone()
        return int(row[0])

    def associations_of(self, rel: SourceRel) -> list[Association]:
        """All associations of a relationship, materialized with accessions.

        Rows stream from the cursor in batches, and each distinct
        accession and evidence value is one object per load
        (:func:`~repro.gam.records.shared_associations`).
        """
        rows = self.db.execute_read_iter(
            "SELECT o1.accession AS acc1, o2.accession AS acc2, r.evidence"
            " FROM object_rel r"
            " JOIN object o1 ON o1.object_id = r.object1_id"
            " JOIN object o2 ON o2.object_id = r.object2_id"
            " WHERE r.src_rel_id = ?"
            " ORDER BY acc1, acc2",
            (rel.src_rel_id,),
        )
        return shared_associations(rows)

    def object_rels_of(self, rel: SourceRel) -> list[ObjectRel]:
        """Raw object-relationship rows of one source relationship."""
        rows = self.db.execute(
            "SELECT * FROM object_rel WHERE src_rel_id = ? ORDER BY obj_rel_id",
            (rel.src_rel_id,),
        ).fetchall()
        return [
            ObjectRel(
                obj_rel_id=row["obj_rel_id"],
                src_rel_id=row["src_rel_id"],
                object1_id=row["object1_id"],
                object2_id=row["object2_id"],
                evidence=row["evidence"],
            )
            for row in rows
        ]

    def annotations_of_object(
        self, source: "int | str | Source", accession: str
    ) -> list[tuple[str, RelType, Association]]:
        """Every association touching one object, with the partner source.

        Returns ``(partner_source_name, rel_type, association)`` triples
        where the association is oriented from the queried object to its
        partner.  This backs the Figure 1 / Figure 6c "object information"
        display.
        """
        obj = self.get_object(source, accession)
        results: list[tuple[str, RelType, Association]] = []
        rows = self.db.execute(
            "SELECT s.name AS partner, sr.type AS rel_type,"
            "       o2.accession AS other, r.evidence AS evidence"
            " FROM object_rel r"
            " JOIN source_rel sr ON sr.src_rel_id = r.src_rel_id"
            " JOIN object o2 ON o2.object_id = r.object2_id"
            " JOIN source s ON s.source_id = sr.source2_id"
            " WHERE r.object1_id = ?",
            (obj.object_id,),
        ).fetchall()
        for row in rows:
            results.append(
                (
                    row["partner"],
                    RelType.parse(row["rel_type"]),
                    Association(accession, row["other"], row["evidence"]),
                )
            )
        rows = self.db.execute(
            "SELECT s.name AS partner, sr.type AS rel_type,"
            "       o1.accession AS other, r.evidence AS evidence"
            " FROM object_rel r"
            " JOIN source_rel sr ON sr.src_rel_id = r.src_rel_id"
            " JOIN object o1 ON o1.object_id = r.object1_id"
            " JOIN source s ON s.source_id = sr.source1_id"
            " WHERE r.object2_id = ?",
            (obj.object_id,),
        ).fetchall()
        for row in rows:
            results.append(
                (
                    row["partner"],
                    RelType.parse(row["rel_type"]),
                    Association(accession, row["other"], row["evidence"]),
                )
            )
        results.sort(key=lambda item: (item[0], item[2].target_accession))
        return results

    # -- mapping retrieval for operators ----------------------------------

    def fetch_mapping_associations(
        self, source: "int | str | Source", target: "int | str | Source"
    ) -> tuple[SourceRel, list[Association]]:
        """Find a stored mapping between two sources and load it.

        Associations are oriented source→target even when the relationship
        row is stored in the opposite direction.  Raises
        :class:`UnknownMappingError` when no mapping exists.
        """
        src = self.get_source(source)
        tgt = self.get_source(target)
        # Scoped cache invalidation: any cached value built from this
        # mapping depends on both endpoint sources.
        record_dependency(src.name, tgt.name)
        rels = self.mappings_between(src, tgt)
        if not rels:
            raise UnknownMappingError(src.name, tgt.name)
        # Prefer imported annotation mappings over derived ones.
        rels.sort(key=lambda r: (r.type.is_derived, r.src_rel_id))
        rel = rels[0]
        associations = self.associations_of(rel)
        if rel.source1_id != src.source_id:
            associations = [assoc.reversed() for assoc in associations]
        return rel, associations
