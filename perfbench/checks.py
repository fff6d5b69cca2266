"""Output checks, run after the timed phases.

Sampled view bodies are compared row for row with an independent
evaluation (``GenMapper.generate_view(..., engine="sql")`` on its own
connection, cache off); sampled mapping downloads with the stored rows
read through plain ``sqlite3``; a release's derived mappings with a
from-scratch re-derivation on a copy of the database.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sqlite3
from pathlib import Path

from common import import_program

_DERIVED_ROWS = (
    "SELECT r.type, s1.name, s2.name, o1.accession, o2.accession,"
    " round(x.evidence, 9)"
    " FROM object_rel x JOIN source_rel r USING (src_rel_id)"
    " JOIN source s1 ON s1.source_id = r.source1_id"
    " JOIN source s2 ON s2.source_id = r.source2_id"
    " JOIN object o1 ON o1.object_id = x.object1_id"
    " JOIN object o2 ON o2.object_id = x.object2_id"
    " WHERE r.type IN ('Composed', 'Subsumed')"
    " ORDER BY 1, 2, 3, 4, 5"
)


def _genmapper(db: Path):
    import_program()
    from repro.core.genmapper import GenMapper

    return GenMapper(db, enable_cache=False)


def check_views(db: Path, samples: list[tuple[bytes, bytes]]) -> list[str]:
    """``samples`` pairs a ``POST /query`` body with the response body."""
    from repro.operators.generate_view import TargetSpec

    problems = []
    with _genmapper(db) as genmapper:
        for request_body, response_body in samples:
            spec = json.loads(request_body)
            view = genmapper.generate_view(
                spec["source"],
                [
                    TargetSpec.of(t["name"], negated=t.get("negated", False))
                    for t in spec["targets"]
                ],
                source_objects=spec.get("accessions"),
                combine=spec["combine"],
                engine="sql",
            )
            got = json.loads(response_body)
            want_rows = [list(row) for row in view.rows]
            if got["columns"] != list(view.columns) or got["rows"] != want_rows:
                problems.append(
                    f"view mismatch: {len(got['rows'])} rows served,"
                    f" {len(want_rows)} expected for {spec['targets']}"
                )
            elif got["row_count"] != len(want_rows):
                problems.append("view row_count disagrees with its rows")
    return problems


def check_maps(db: Path, samples: list[tuple[str, str, bytes]]) -> list[str]:
    """Compare ``GET /map`` downloads with the stored association rows."""
    problems = []
    connection = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        for source, target, body in samples:
            rows = connection.execute(
                "SELECT s1.name, o1.accession, o2.accession, x.evidence"
                " FROM object_rel x JOIN source_rel r USING (src_rel_id)"
                " JOIN source s1 ON s1.source_id = r.source1_id"
                " JOIN source s2 ON s2.source_id = r.source2_id"
                " JOIN object o1 ON o1.object_id = x.object1_id"
                " JOIN object o2 ON o2.object_id = x.object2_id"
                " WHERE r.type = 'Fact' AND ((s1.name = ? AND s2.name = ?)"
                " OR (s1.name = ? AND s2.name = ?))",
                (source, target, target, source),
            ).fetchall()
            want = sorted(
                [a, b, e] if first == source else [b, a, e]
                for first, a, b, e in rows
            )
            got = json.loads(body)
            if sorted(got["associations"]) != want:
                problems.append(f"mapping {source}->{target} differs from storage")
            elif got["association_count"] != len(want):
                problems.append(f"mapping {source}->{target} count disagrees")
    finally:
        connection.close()
    return problems


def checkpoint(db: Path) -> None:
    """Fold the WAL into the main file (no reader or writer is running)."""
    connection = sqlite3.connect(db)
    try:
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    finally:
        connection.close()


def bytes_per_assoc(db: Path) -> float:
    """Database plus WAL bytes after a checkpoint, per stored association."""
    checkpoint(db)
    wal = db.with_name(db.name + "-wal")
    size = db.stat().st_size + (wal.stat().st_size if wal.exists() else 0)
    connection = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        associations = connection.execute(
            "SELECT count(*) FROM object_rel"
        ).fetchone()[0]
    finally:
        connection.close()
    return size / associations


def derived_digest(db: Path) -> tuple[int, str]:
    """Row count and SHA-256 of every Composed and Subsumed association."""
    digest = hashlib.sha256()
    count = 0
    connection = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    try:
        cursor = connection.execute(_DERIVED_ROWS)
        while True:
            rows = cursor.fetchmany(20_000)
            if not rows:
                break
            count += len(rows)
            digest.update(repr(rows).encode())
    finally:
        connection.close()
    return count, digest.hexdigest()[:16]


def rederive_digest(
    db: Path, scratch: Path, taxonomy: str, paths: list[list[str]]
) -> tuple[int, str]:
    """Digest of the derived mappings re-derived from scratch on a copy."""
    checkpoint(db)
    shutil.copyfile(db, scratch)
    from release_worker import drop_derived

    with _genmapper(scratch) as genmapper:
        drop_derived(genmapper)
        genmapper.derive_subsumed(taxonomy)
        for path in paths:
            genmapper.compose(path, materialize=True)
    checkpoint(scratch)
    return derived_digest(scratch)


def integrity_problems(db: Path) -> list[str]:
    with _genmapper(db) as genmapper:
        report = genmapper.check_integrity()
    return [] if report.ok else [str(report)]
