"""Integrity checking for a GAM database.

The GAM schema enforces key and enumeration constraints declaratively; the
checks here cover the cross-table invariants that SQLite cannot express:

* every object association belongs to a source relationship whose endpoint
  sources match the sources of the two associated objects;
* structural relationships (Contains, Is-a) of a source imply the source is
  marked ``Network``;
* evidence values lie in ``[0, 1]``.

``check`` returns a report instead of raising so that callers can decide
whether a violation is fatal (tests) or diagnostic (CLI ``stats``).
"""

from __future__ import annotations

import dataclasses

from repro.gam.database import GamDatabase


@dataclasses.dataclass(frozen=True, slots=True)
class IntegrityViolation:
    """One violated invariant, with a human-readable description."""

    rule: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.detail}"


@dataclasses.dataclass(frozen=True, slots=True)
class IntegrityReport:
    """Result of an integrity check over a whole GAM database."""

    violations: tuple[IntegrityViolation, ...]

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "integrity: OK"
        lines = [f"integrity: {len(self.violations)} violation(s)"]
        lines.extend(str(violation) for violation in self.violations)
        return "\n".join(lines)


def check(db: GamDatabase, max_violations: int = 100) -> IntegrityReport:
    """Check all cross-table invariants of a GAM database."""
    violations: list[IntegrityViolation] = []

    def record(rule: str, detail: str) -> bool:
        violations.append(IntegrityViolation(rule, detail))
        return len(violations) >= max_violations

    # 1. Association endpoints must live in the relationship's sources.
    rows = db.execute(
        "SELECT r.obj_rel_id, sr.src_rel_id,"
        "       o1.source_id AS s1, o2.source_id AS s2,"
        "       sr.source1_id AS rs1, sr.source2_id AS rs2"
        " FROM object_rel r"
        " JOIN source_rel sr ON sr.src_rel_id = r.src_rel_id"
        " JOIN object o1 ON o1.object_id = r.object1_id"
        " JOIN object o2 ON o2.object_id = r.object2_id"
        " WHERE o1.source_id != sr.source1_id OR o2.source_id != sr.source2_id"
        " LIMIT ?",
        (max_violations,),
    ).fetchall()
    for row in rows:
        full = record(
            "association-endpoints",
            f"object_rel {row['obj_rel_id']} joins sources"
            f" ({row['s1']}, {row['s2']}) but source_rel {row['src_rel_id']}"
            f" declares ({row['rs1']}, {row['rs2']})",
        )
        if full:
            return IntegrityReport(tuple(violations))

    # 2. Structural relationships require Network structure on the source
    #    that owns the structure (source1 of Contains / the common source of
    #    an intra-source Is-a relationship).
    rows = db.execute(
        "SELECT sr.src_rel_id, sr.type, s.name, s.structure"
        " FROM source_rel sr JOIN source s ON s.source_id = sr.source1_id"
        " WHERE sr.type IN ('Contains', 'Is-a') AND s.structure != 'Network'"
        " LIMIT ?",
        (max_violations,),
    ).fetchall()
    for row in rows:
        full = record(
            "structural-needs-network",
            f"source {row['name']!r} has a {row['type']} relationship"
            f" (source_rel {row['src_rel_id']}) but structure {row['structure']!r}",
        )
        if full:
            return IntegrityReport(tuple(violations))

    # 3. Evidence values are plausibilities in [0, 1].
    rows = db.execute(
        "SELECT obj_rel_id, evidence FROM object_rel"
        " WHERE evidence < 0.0 OR evidence > 1.0 LIMIT ?",
        (max_violations,),
    ).fetchall()
    for row in rows:
        full = record(
            "evidence-range",
            f"object_rel {row['obj_rel_id']} has evidence {row['evidence']}",
        )
        if full:
            return IntegrityReport(tuple(violations))

    # 4. Dangling foreign keys (defence in depth: FK enforcement is a
    #    connection pragma and may have been off during a bulk load).
    dangling_checks = (
        (
            "object-source-fk",
            "SELECT o.object_id FROM object o"
            " LEFT JOIN source s ON s.source_id = o.source_id"
            " WHERE s.source_id IS NULL LIMIT ?",
            "object {0} references a missing source",
        ),
        (
            "source-rel-source-fk",
            "SELECT sr.src_rel_id FROM source_rel sr"
            " LEFT JOIN source s1 ON s1.source_id = sr.source1_id"
            " LEFT JOIN source s2 ON s2.source_id = sr.source2_id"
            " WHERE s1.source_id IS NULL OR s2.source_id IS NULL LIMIT ?",
            "source_rel {0} references a missing source",
        ),
        (
            "object-rel-source-rel-fk",
            "SELECT r.obj_rel_id FROM object_rel r"
            " LEFT JOIN source_rel sr ON sr.src_rel_id = r.src_rel_id"
            " WHERE sr.src_rel_id IS NULL LIMIT ?",
            "object_rel {0} references a missing source_rel",
        ),
        (
            "object-rel-object-fk",
            "SELECT r.obj_rel_id FROM object_rel r"
            " LEFT JOIN object o1 ON o1.object_id = r.object1_id"
            " LEFT JOIN object o2 ON o2.object_id = r.object2_id"
            " WHERE o1.object_id IS NULL OR o2.object_id IS NULL LIMIT ?",
            "object_rel {0} references a missing object",
        ),
    )
    for rule, sql, template in dangling_checks:
        rows = db.execute(sql, (max_violations,)).fetchall()
        for row in rows:
            if record(rule, template.format(row[0])):
                return IntegrityReport(tuple(violations))

    return IntegrityReport(tuple(violations))
