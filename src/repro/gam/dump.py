"""Portable dump/load of a whole GAM database.

The deployment story needs a way to move the integrated knowledge between
machines and backends (the paper's system sat on MySQL; this repo on
sqlite3; a dump must not care).  The format is JSON-lines with one header
record and one record per row, referencing sources by name and objects by
(source, accession) — i.e. *logical* identity, not numeric ids — so a
load into a fresh database rebuilds identical knowledge regardless of id
assignment, and a dump of that database is equivalent again.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

from repro.gam.errors import GamSchemaError
from repro.gam.repository import GamRepository

#: Format marker written in the header record.
DUMP_FORMAT = "gam-dump/1"


def dump_records(repository: GamRepository) -> Iterator[dict]:
    """Yield the database as JSON-serializable records."""
    yield {"kind": "header", "format": DUMP_FORMAT}
    sources_by_id = {}
    for source in repository.list_sources():
        sources_by_id[source.source_id] = source
        yield {
            "kind": "source",
            "name": source.name,
            "content": source.content.value,
            "structure": source.structure.value,
            "release": source.release,
            "imported_at": source.imported_at,
        }
    for source in sources_by_id.values():
        for obj in repository.objects_of(source):
            record = {
                "kind": "object",
                "source": source.name,
                "accession": obj.accession,
            }
            if obj.text is not None:
                record["text"] = obj.text
            if obj.number is not None:
                record["number"] = obj.number
            yield record
    for rel in repository.find_source_rels():
        source1 = sources_by_id[rel.source1_id]
        source2 = sources_by_id[rel.source2_id]
        yield {
            "kind": "source_rel",
            "source1": source1.name,
            "source2": source2.name,
            "type": rel.type.value,
            "associations": [
                [assoc.source_accession, assoc.target_accession, assoc.evidence]
                for assoc in repository.associations_of(rel)
            ],
        }


def canonical_snapshot(repository: GamRepository) -> str:
    """An order- and id-independent snapshot of the database's knowledge.

    Serializes every non-header dump record as sorted-key JSON, strips
    volatile fields (``imported_at`` — wall-clock), and sorts the lines.
    Two databases holding identical knowledge produce byte-identical
    snapshots regardless of numeric id assignment or import order —
    the equality the chaos-equivalence tests in ``tests/test_chaos.py``
    assert between a faulty and a fault-free run.
    """
    lines = []
    for record in dump_records(repository):
        if record["kind"] == "header":
            continue
        record = dict(record)
        record.pop("imported_at", None)
        if "associations" in record:
            record["associations"] = sorted(record["associations"])
        lines.append(json.dumps(record, sort_keys=True, ensure_ascii=False))
    lines.sort()
    return "\n".join(lines)


def dump_database(repository: GamRepository, path: str | Path) -> int:
    """Write the database to a JSON-lines dump; returns the record count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in dump_records(repository):
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count


def load_database(repository: GamRepository, path: str | Path) -> int:
    """Load a dump into a repository (idempotent); returns records read.

    The target database may be empty or already populated: sources,
    objects and associations merge under the usual duplicate-elimination
    rules.
    """
    path = Path(path)
    count = 0
    with repository.db.transaction():
        with path.open("r", encoding="utf-8") as handle:
            header_seen = False
            pending_objects: dict[str, list[tuple]] = {}
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                count += 1
                kind = record.get("kind")
                if kind == "header":
                    if record.get("format") != DUMP_FORMAT:
                        raise GamSchemaError(
                            f"unsupported dump format: {record.get('format')!r}"
                        )
                    header_seen = True
                elif not header_seen:
                    raise GamSchemaError(
                        f"line {line_number}: dump does not start with a header"
                    )
                elif kind == "source":
                    repository.add_source(
                        record["name"],
                        content=record["content"],
                        structure=record["structure"],
                        release=record.get("release"),
                        imported_at=record.get("imported_at"),
                    )
                elif kind == "object":
                    pending_objects.setdefault(record["source"], []).append(
                        (
                            record["accession"],
                            record.get("text"),
                            record.get("number"),
                        )
                    )
                elif kind == "source_rel":
                    # Flush buffered objects first: associations reference
                    # them by accession.
                    _flush_objects(repository, pending_objects)
                    rel = repository.ensure_source_rel(
                        record["source1"], record["source2"], record["type"]
                    )
                    repository.add_associations(rel, record["associations"])
                else:
                    raise GamSchemaError(
                        f"line {line_number}: unknown dump record kind {kind!r}"
                    )
            _flush_objects(repository, pending_objects)
    return count


def _flush_objects(
    repository: GamRepository, pending: dict[str, list[tuple]]
) -> None:
    for source_name, rows in pending.items():
        repository.add_objects(source_name, rows)
    pending.clear()
