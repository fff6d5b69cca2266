"""DDL for the GAM relational schema (paper Figure 4).

The schema is deliberately generic: four tables hold every source, object,
mapping and association regardless of where the data came from.  This is the
property that lets GenMapper integrate a new source without any schema
change — only a parser has to be written.

Index choice follows the access paths of the operators:

* ``Map(S, T)`` scans OBJECT_REL by ``src_rel_id`` → index on src_rel_id.
* Duplicate elimination compares accessions per source → unique index on
  ``(source_id, accession)``.
* Mapping lookup between two sources → unique index on
  ``(source1_id, source2_id, type)``.
* ``Compose`` and the Subsumed closure join associations on shared
  object ids in both directions → the unique index serves
  ``(src_rel_id, object1_id)`` probes and ``idx_object_rel_obj2``
  serves ``(src_rel_id, object2_id)``.  The latter *covers*
  ``object1_id`` on purpose: the recursive-CTE closure reads it per
  matched edge, and SQLite's cost model only picks the two-column probe
  when it needs no table lookup.
"""

from __future__ import annotations

import sqlite3

from repro.gam.errors import GamSchemaError

#: Schema version recorded in the database; bumped on incompatible change.
SCHEMA_VERSION = 1

GAM_TABLES = ("source", "object", "source_rel", "object_rel")

_DDL = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS source (
    source_id   INTEGER PRIMARY KEY,
    name        TEXT NOT NULL,
    content     TEXT NOT NULL CHECK (content IN ('Gene', 'Protein', 'Other')),
    structure   TEXT NOT NULL CHECK (structure IN ('Flat', 'Network')),
    release     TEXT,
    imported_at TEXT
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_source_name
    ON source (name);

CREATE TABLE IF NOT EXISTS object (
    object_id INTEGER PRIMARY KEY,
    source_id INTEGER NOT NULL REFERENCES source (source_id),
    accession TEXT NOT NULL,
    text      TEXT,
    number    REAL
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_object_source_accession
    ON object (source_id, accession);

CREATE TABLE IF NOT EXISTS source_rel (
    src_rel_id INTEGER PRIMARY KEY,
    source1_id INTEGER NOT NULL REFERENCES source (source_id),
    source2_id INTEGER NOT NULL REFERENCES source (source_id),
    type       TEXT NOT NULL CHECK (type IN
        ('Fact', 'Similarity', 'Contains', 'Is-a', 'Composed', 'Subsumed'))
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_source_rel_endpoints
    ON source_rel (source1_id, source2_id, type);
CREATE INDEX IF NOT EXISTS idx_source_rel_source2
    ON source_rel (source2_id);

CREATE TABLE IF NOT EXISTS object_rel (
    obj_rel_id INTEGER PRIMARY KEY,
    src_rel_id INTEGER NOT NULL REFERENCES source_rel (src_rel_id),
    object1_id INTEGER NOT NULL REFERENCES object (object_id),
    object2_id INTEGER NOT NULL REFERENCES object (object_id),
    evidence   REAL NOT NULL DEFAULT 1.0
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_object_rel_unique
    ON object_rel (src_rel_id, object1_id, object2_id);
CREATE INDEX IF NOT EXISTS idx_object_rel_obj2
    ON object_rel (src_rel_id, object2_id, object1_id);
"""


def refuse_retired_layout(connection: sqlite3.Connection, path: str) -> None:
    """Raise :class:`GamSchemaError` for a file of the retired sharded layout.

    That engine kept ``object``, ``source_rel`` and ``object_rel`` in
    per-source side files and marked its main file with ``layout =
    sharded`` in ``meta``.  The main file holds the full schema with
    those tables empty, so opening it would silently show an empty
    database.  Its data survives only through a dump.
    """
    has_meta = connection.execute(
        "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'meta'"
    ).fetchone()
    if has_meta is None:
        return
    row = connection.execute(
        "SELECT value FROM meta WHERE key = 'layout'"
    ).fetchone()
    if row is not None and row[0] == "sharded":
        raise GamSchemaError(
            f"{path} uses the source-sharded storage layout, which is no"
            " longer supported: run 'repro --db <file> dump <dump>' from a"
            " release that still has the sharded engine, then"
            " 'repro --db <new file> load <dump>' into a new database"
        )


def _upgrade_indices(connection: sqlite3.Connection) -> None:
    """Rebuild indices whose definition changed since the database was
    created (``CREATE INDEX IF NOT EXISTS`` keeps the old shape).

    ``idx_object_rel_obj2`` must *cover* ``object1_id``: without it the
    planner refuses the index for the recursive-CTE closure join (the
    non-covering two-column probe loses to a covering one-column scan in
    its cost model) and every recursion step scans all edges of the
    relationship — quadratic on paper-scale taxonomies.
    """
    row = connection.execute(
        "SELECT sql FROM sqlite_master"
        " WHERE type = 'index' AND name = 'idx_object_rel_obj2'"
    ).fetchone()
    if row is not None and "object1_id" not in (row[0] or ""):
        connection.execute("DROP INDEX idx_object_rel_obj2")


def create_schema(connection: sqlite3.Connection) -> None:
    """Create the GAM tables and indices if they do not exist yet."""
    _upgrade_indices(connection)
    connection.executescript(_DDL)
    connection.execute(
        "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema_version', ?)",
        (str(SCHEMA_VERSION),),
    )
    connection.commit()


def schema_exists(connection: sqlite3.Connection) -> bool:
    """Return True when all four GAM tables are present."""
    rows = connection.execute(
        "SELECT name FROM sqlite_master WHERE type = 'table'"
    ).fetchall()
    existing = {row[0] for row in rows}
    return all(table in existing for table in GAM_TABLES)


def validate_schema(connection: sqlite3.Connection) -> None:
    """Raise :class:`GamSchemaError` unless the database holds a GAM schema
    of a compatible version."""
    if not schema_exists(connection):
        raise GamSchemaError("database does not contain the GAM tables")
    row = connection.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone()
    if row is None:
        raise GamSchemaError("GAM schema is missing its version record")
    version = int(row[0])
    if version != SCHEMA_VERSION:
        raise GamSchemaError(
            f"GAM schema version {version} is not supported "
            f"(expected {SCHEMA_VERSION})"
        )
