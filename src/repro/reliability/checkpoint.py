"""Crash-safe import resume: per-source checkpoints in the GAM database.

``integrate_directory`` imports each manifest source inside one
transaction, so a crash (OOM kill, power loss, fatal disk error) leaves
the database with some sources fully imported and the in-flight one
rolled back.  The :class:`ImportJournal` records a checkpoint in the
database's ``meta`` table after each source commits; a resumed run skips
every checkpointed source whose file content is unchanged and continues
with the rest.

Why this is correct without two-phase anything:

* the checkpoint is written *after* the source's import transaction
  commits, on the same database — it can never claim work that was
  rolled back;
* if the crash lands in the tiny window between the commit and the
  checkpoint write, the resumed run re-imports that one source, and the
  GAM duplicate elimination (source/object/association level — see
  ``docs/performance.md``) makes the re-import a no-op;
* the checkpoint stores a content fingerprint of the input file, so a
  *changed* file is never wrongly skipped.

Checkpoints are keyed by (source name, manifest file name) under
``import_ckpt:`` keys, living in the same ``meta`` table that holds
saved paths — no schema change, and they travel with the database.

Each checkpoint also stores the **per-table row-id watermarks** observed
*before* the source was imported (``max(object_id)``,
``max(obj_rel_id)``, ``max(src_rel_id)``): rows above a watermark are
exactly the import's delta, which the incremental refreshes
(:mod:`repro.derived.refresh`) feed into delta chain joins and
delta closures instead of recomputing materialized mappings from
scratch (``docs/performance.md``).  Checkpoint writes themselves run in
a *neutral* write scope — they change no mapping data, so they must not
invalidate warm cache entries.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: database.py imports this package
    from repro.gam.database import GamDatabase

_KEY_PREFIX = "import_ckpt:"

#: Tables whose max row-id is snapshotted before each source import.
WATERMARK_TABLES = {
    "object": "object_id",
    "object_rel": "obj_rel_id",
    "source_rel": "src_rel_id",
}


def file_fingerprint(path: str | Path) -> str:
    """SHA-1 of the file's content (identity of "the same input")."""
    digest = hashlib.sha1()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ImportJournal:
    """Per-source import checkpoints persisted in one GAM database."""

    def __init__(self, db: "GamDatabase") -> None:
        self.db = db

    @staticmethod
    def _key(source: str, file: str) -> str:
        return f"{_KEY_PREFIX}{source}\x1f{file}"

    def completed(
        self, source: str, file: str, fingerprint: str, release: str | None = None
    ) -> bool:
        """True when this exact (source, file, content) already imported."""
        row = self.db.execute_read(
            "SELECT value FROM meta WHERE key = ?", (self._key(source, file),)
        ).fetchone()
        if row is None:
            return False
        try:
            record = json.loads(row[0])
        except ValueError:
            return False
        return (
            record.get("fingerprint") == fingerprint
            and record.get("release") == release
        )

    def table_watermarks(self) -> dict[str, int]:
        """Current max row-id per delta-relevant table (0 when empty).

        Taken *before* an import, rows with ids above these marks are
        exactly the import's delta — the seed set for
        :mod:`repro.derived.refresh`.
        """
        return self.db.table_watermarks(WATERMARK_TABLES)

    def record(
        self,
        source: str,
        file: str,
        fingerprint: str,
        release: str | None = None,
        watermarks: dict[str, int] | None = None,
    ) -> None:
        """Checkpoint one source as fully imported.

        ``watermarks`` is the :meth:`table_watermarks` snapshot taken
        before the import started.  Neutral write scope: the checkpoint
        is bookkeeping, not mapping data — warm cache entries survive it.
        """
        record: dict[str, object] = {"fingerprint": fingerprint, "release": release}
        if watermarks is not None:
            record["watermarks"] = dict(watermarks)
        payload = json.dumps(record)
        with self.db.write_scope(), self.db.transaction():
            self.db.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)"
                " ON CONFLICT (key) DO UPDATE SET value = excluded.value",
                (self._key(source, file), payload),
            )

    def watermarks(self, source: str, file: str) -> dict[str, int] | None:
        """The pre-import watermarks of one checkpoint, or None."""
        row = self.db.execute_read(
            "SELECT value FROM meta WHERE key = ?", (self._key(source, file),)
        ).fetchone()
        if row is None:
            return None
        try:
            record = json.loads(row[0])
        except ValueError:
            return None
        marks = record.get("watermarks")
        if not isinstance(marks, dict):
            return None
        return {str(table): int(value) for table, value in marks.items()}

    def entries(self) -> dict[str, dict]:
        """All checkpoints, keyed ``source/file`` (inspection, tests)."""
        rows = self.db.execute_read(
            "SELECT key, value FROM meta WHERE key LIKE ?", (_KEY_PREFIX + "%",)
        ).fetchall()
        result = {}
        for row in rows:
            source, __, file = row[0][len(_KEY_PREFIX):].partition("\x1f")
            result[f"{source}/{file}"] = json.loads(row[1])
        return result

    def clear(self) -> int:
        """Drop every checkpoint; returns how many were removed."""
        with self.db.write_scope(), self.db.transaction():
            cursor = self.db.execute(
                "DELETE FROM meta WHERE key LIKE ?", (_KEY_PREFIX + "%",)
            )
        return max(cursor.rowcount, 0)
