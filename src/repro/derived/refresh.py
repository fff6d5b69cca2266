"""Incremental maintenance of materialized Composed/Subsumed mappings.

The paper's deployment keeps ~500 derived mappings current across
continuous re-imports (Section 8).  Rebuilding a materialized mapping
from scratch after each import is O(full closure); these delta engines
apply only the *import delta* instead, seeded from the per-table row-id
watermarks the import journal records before each source import
(:meth:`repro.reliability.checkpoint.ImportJournal.table_watermarks`).

The delta algebra relies on imports being **strictly additive**: the GAM
write paths insert with ``INSERT OR IGNORE`` under a unique key and
never lower evidence, so ``object_rel`` rows with
``obj_rel_id > watermark`` are exactly the new edges.

* :func:`refresh_composed` — for a k-hop path, runs the PR 4 chain join
  (:func:`repro.operators.sql_engine._chain_join_plan`) k times, each
  run restricting one hop to delta rows: a chain is new iff at least one
  of its hops is new, and every such chain is found by the run that
  restricts its *first* (any designated) new hop — running one
  restricted join per hop position covers all of them.  Results are
  upserted with an evidence-max conflict clause, so re-running is
  idempotent and a stronger new chain raises a stored pair's evidence
  exactly like full recomputation would.
* :func:`refresh_subsumed` — seeds the PR 4 recursive CTE from the new
  IS_A edges: a closure pair is new iff some ancestor path crosses a new
  edge, and every such path decomposes as ``descendant →* child →(new
  edge) parent →* ancestor`` around its *lowest* new edge.  The first
  recursive CTE walks downward from each new edge over all edges, the
  second extends ancestors upward, and the product is inserted with
  ``INSERT OR IGNORE`` (subsumption evidence is constant).

Both engines are byte-identical (``canonical_snapshot``) to dropping
the materialized rows and re-deriving from scratch — asserted by
``tests/test_refresh.py`` for the sql and memory engines alike — and
run inside a :meth:`~repro.gam.database.GamDatabase.write_scope` of the
mapping's endpoint sources, so the refresh invalidates only the cache
entries that actually depend on them.  Applied delta rows are counted
under the ``derived.delta_rows`` metric.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.gam.enums import RelType
from repro.gam.errors import GamIntegrityError, UnknownMappingError
from repro.gam.records import Source, SourceRel
from repro.gam.repository import GamRepository
from repro.obs import get_registry, get_tracer
from repro.operators.compose import (
    EvidenceCombiner,
    _sql_combiner_name,
    compose_mappings,
    product_evidence,
)
from repro.operators.mapping import Mapping
from repro.operators.sql_engine import _chain_join_plan, resolve_hop_rel

_ENGINES = ("auto", "sql", "memory")


@dataclasses.dataclass(frozen=True, slots=True)
class RefreshReport:
    """Outcome of one incremental refresh."""

    rel: SourceRel
    engine: str
    watermark: int
    #: New base rows (``obj_rel_id > watermark``) feeding the delta.
    delta_edges: int
    #: Materialized rows inserted or upgraded by the refresh.
    changed: int

    def summary(self) -> str:
        return (
            f"refresh[{self.engine}] rel {self.rel.src_rel_id}:"
            f" {self.delta_edges} delta edges -> {self.changed} rows"
        )


def _watermark_value(watermark: "int | dict[str, int]") -> int:
    """Accept a plain row-id or an ImportJournal watermarks dict."""
    if isinstance(watermark, dict):
        return int(watermark.get("object_rel", 0))
    return int(watermark)


def _count_delta_edges(
    repository: GamRepository, rel_ids: Sequence[int], watermark: int
) -> int:
    placeholders = ", ".join("?" for _ in rel_ids)
    row = repository.db.execute_read(
        "SELECT count(*) FROM object_rel"
        f" WHERE src_rel_id IN ({placeholders}) AND obj_rel_id > ?",
        (*rel_ids, watermark),
    ).fetchone()
    return int(row[0])


def _record_delta_rows(changed: int) -> None:
    if changed > 0:
        get_registry().counter("derived.delta_rows").inc(changed)


# -- Composed ---------------------------------------------------------------


def refresh_composed(
    repository: GamRepository,
    path: Sequence["str | Source"],
    combiner: EvidenceCombiner = product_evidence,
    watermark: "int | dict[str, int]" = 0,
    engine: str = "auto",
) -> RefreshReport:
    """Apply an import delta to a materialized Composed mapping.

    ``watermark`` is the max ``obj_rel_id`` *before* the import (or the
    watermarks dict recorded by the import journal); rows above it are
    the delta.  With ``watermark=0`` the refresh degenerates into a full
    derivation — convenient for first-time materialization.  Requires
    the path's Composed relationship to be up to date with respect to
    the pre-watermark state (i.e. previously materialized via
    :func:`repro.derived.composed.derive_composed` or an earlier
    refresh).
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown refresh engine {engine!r}")
    if len(path) < 3:
        raise ValueError("refreshing a composed path needs at least one hop")
    names = [
        step.name if isinstance(step, Source) else str(step) for step in path
    ]
    mark = _watermark_value(watermark)
    sql_combiner = _sql_combiner_name(combiner)
    if engine == "sql" and sql_combiner is None:
        raise ValueError(
            "refresh engine 'sql' requires a named combiner"
            " (product_evidence or min_evidence)"
        )
    use_sql = sql_combiner is not None and engine in ("auto", "sql")
    engine_used = "sql" if use_sql else "memory"
    hops = [
        resolve_hop_rel(repository, source, target)
        for source, target in zip(names, names[1:])
    ]
    hop_rel_ids = [rel.src_rel_id for rel, __ in hops]
    delta_edges = _count_delta_edges(repository, hop_rel_ids, mark)
    with get_tracer().span(
        "operator.refresh_composed",
        path=" -> ".join(names),
        engine=engine_used,
        delta_edges=delta_edges,
    ) as span:
        with repository.db.write_scope(
            names[0], names[-1]
        ), repository.db.transaction():
            rel = repository.ensure_source_rel(
                names[0], names[-1], RelType.COMPOSED
            )
            if delta_edges == 0:
                changed = 0
            elif use_sql:
                changed = _refresh_composed_sql(
                    repository, names, sql_combiner, rel, mark
                )
            else:
                changed = _refresh_composed_memory(
                    repository, names, hops, combiner, rel, mark
                )
        span.tag(changed=changed)
    _record_delta_rows(changed)
    return RefreshReport(
        rel=rel,
        engine=engine_used,
        watermark=mark,
        delta_edges=delta_edges,
        changed=changed,
    )


#: Upsert clause shared by both composed-refresh engines: insert new
#: pairs, raise existing pairs' evidence when a stronger chain appears,
#: and leave weaker-or-equal conflicts untouched (so ``rowcount`` counts
#: only rows the statement actually changed).
_UPSERT_TAIL = (
    " ON CONFLICT (src_rel_id, object1_id, object2_id)"
    " DO UPDATE SET evidence = excluded.evidence"
    " WHERE excluded.evidence > object_rel.evidence"
)


def _refresh_composed_sql(
    repository: GamRepository,
    names: Sequence[str],
    combiner: str,
    rel: SourceRel,
    watermark: int,
) -> int:
    """One delta chain join per hop position, upserted into ``rel``."""
    plan = _chain_join_plan(repository, names, combiner)
    hop_count = len(names) - 1
    changed = 0
    for hop in range(1, hop_count + 1):
        sql = (
            "INSERT INTO object_rel"
            " (src_rel_id, object1_id, object2_id, evidence)"
            f" SELECT ?, {plan.start_expr}, {plan.end_expr},"
            f" max({plan.chain_evidence}) FROM "
            + "\n  ".join(plan.joins)
            + "\n  WHERE r1.src_rel_id = ?"
            + f" AND r{hop}.obj_rel_id > ?"
            + f"\n  GROUP BY {plan.start_expr}, {plan.end_expr}"
            + _UPSERT_TAIL
        )
        cursor = repository.db.execute(
            sql,
            (
                rel.src_rel_id,
                *plan.join_parameters,
                plan.first_rel.src_rel_id,
                watermark,
            ),
        )
        changed += max(cursor.rowcount, 0)
    return changed


def _hop_mapping(
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


def _refresh_composed_memory(
    repository: GamRepository,
    names: Sequence[str],
    hops: Sequence[tuple[SourceRel, bool]],
    combiner: EvidenceCombiner,
    rel: SourceRel,
    watermark: int,
) -> int:
    """The Python mirror of :func:`_refresh_composed_sql`.

    For each hop position, compose full legs around that hop's delta
    rows, take the per-pair evidence max across positions, and upsert.
    """
    full_legs = [
        _hop_mapping(repository, hop_rel, forward, source, target)
        for (hop_rel, forward), (source, target) in zip(
            hops, zip(names, names[1:])
        )
    ]
    best: dict[tuple[str, str], float] = {}
    for index, ((hop_rel, forward), (source, target)) in enumerate(
        zip(hops, zip(names, names[1:]))
    ):
        delta_leg = _hop_mapping(
            repository, hop_rel, forward, source, target, min_rowid=watermark
        )
        if delta_leg.is_empty():
            continue
        legs = list(full_legs)
        legs[index] = delta_leg
        for assoc in compose_mappings(legs, combiner):
            key = (assoc.source_accession, assoc.target_accession)
            if key not in best or assoc.evidence > best[key]:
                best[key] = assoc.evidence
    if not best:
        return 0
    ids1 = repository.accession_to_id(names[0])
    ids2 = repository.accession_to_id(names[-1])
    rows = (
        (rel.src_rel_id, ids1[acc1], ids2[acc2], evidence)
        for (acc1, acc2), evidence in best.items()
    )
    return repository.db.executemany_counted(
        "INSERT INTO object_rel (src_rel_id, object1_id, object2_id, evidence)"
        " VALUES (?, ?, ?, ?)" + _UPSERT_TAIL,
        rows,
    )


# -- Subsumed ---------------------------------------------------------------


def refresh_subsumed(
    repository: GamRepository,
    source: "str | Source",
    watermark: "int | dict[str, int]" = 0,
    engine: str = "auto",
) -> RefreshReport:
    """Apply new IS_A edges to a materialized Subsumed mapping.

    Like :func:`refresh_composed`, ``watermark`` delimits the delta and
    ``watermark=0`` degenerates into a full derivation.  A cycle closed
    by the new edges is detected (self-subsumption) and rolls the whole
    refresh back with :class:`~repro.gam.errors.GamIntegrityError`,
    matching :func:`repro.derived.subsumed.derive_subsumed`.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown refresh engine {engine!r}")
    src = repository.get_source(source)
    mark = _watermark_value(watermark)
    is_a_rels = repository.find_source_rels(src, src, RelType.IS_A)
    if not is_a_rels:
        raise UnknownMappingError(src.name, src.name, "no IS_A structure stored")
    rel_ids = tuple(r.src_rel_id for r in is_a_rels)
    delta_edges = _count_delta_edges(repository, rel_ids, mark)
    engine_used = "sql" if engine in ("auto", "sql") else "memory"
    with get_tracer().span(
        "operator.refresh_subsumed",
        source=src.name,
        engine=engine_used,
        delta_edges=delta_edges,
    ) as span:
        with repository.db.write_scope(src.name), repository.db.transaction():
            rel = repository.ensure_source_rel(src, src, RelType.SUBSUMED)
            if delta_edges == 0:
                changed = 0
            elif engine_used == "sql":
                changed = _refresh_subsumed_sql(
                    repository, src, rel, rel_ids, mark
                )
            else:
                changed = _refresh_subsumed_memory(
                    repository, src, rel, rel_ids, mark
                )
        span.tag(changed=changed)
    _record_delta_rows(changed)
    return RefreshReport(
        rel=rel,
        engine=engine_used,
        watermark=mark,
        delta_edges=delta_edges,
        changed=changed,
    )


def _refresh_subsumed_sql(
    repository: GamRepository,
    src: Source,
    rel: SourceRel,
    rel_ids: Sequence[int],
    watermark: int,
) -> int:
    """Two chained recursive CTEs seeded from the delta IS_A edges.

    ``seed`` walks downward from each new edge's child over *all* edges;
    ``delta`` extends each pair's ancestor upward.  Any ancestor path
    crossing a new edge decomposes around its lowest new edge, so the
    product covers exactly the new closure pairs.
    """
    placeholders = ", ".join("?" for _ in rel_ids)
    sql = (
        "INSERT OR IGNORE INTO object_rel"
        " (src_rel_id, object1_id, object2_id, evidence)"
        " WITH RECURSIVE seed(ancestor, descendant) AS ("
        f"   SELECT object2_id, object1_id FROM object_rel"
        f"    WHERE src_rel_id IN ({placeholders}) AND obj_rel_id > ?"
        "   UNION"
        "   SELECT seed.ancestor, edge.object1_id"
        "     FROM seed JOIN object_rel edge"
        "       ON edge.object2_id = seed.descendant"
        f"      AND edge.src_rel_id IN ({placeholders})"
        " ), delta(ancestor, descendant) AS ("
        "   SELECT ancestor, descendant FROM seed"
        "   UNION"
        "   SELECT edge.object2_id, delta.descendant"
        "     FROM delta JOIN object_rel edge"
        "       ON edge.object1_id = delta.ancestor"
        f"      AND edge.src_rel_id IN ({placeholders})"
        " )"
        " SELECT ?, ancestor, descendant, 1.0 FROM delta"
    )
    cursor = repository.db.execute(
        sql, (*rel_ids, watermark, *rel_ids, *rel_ids, rel.src_rel_id)
    )
    inserted = max(cursor.rowcount, 0)
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
    return inserted


def _refresh_subsumed_memory(
    repository: GamRepository,
    src: Source,
    rel: SourceRel,
    rel_ids: Sequence[int],
    watermark: int,
) -> int:
    """Python mirror: ancestors-of-parent x descendants-of-child per new
    edge, over the full (post-import) taxonomy."""
    from repro.derived.subsumed import load_taxonomy

    # Taxonomy construction itself rejects cyclic IS_A input.
    taxonomy = load_taxonomy(repository, src)
    placeholders = ", ".join("?" for _ in rel_ids)
    delta_rows = repository.db.execute_read(
        "SELECT o1.accession AS child, o2.accession AS parent"
        " FROM object_rel r"
        " JOIN object o1 ON o1.object_id = r.object1_id"
        " JOIN object o2 ON o2.object_id = r.object2_id"
        f" WHERE r.src_rel_id IN ({placeholders}) AND r.obj_rel_id > ?",
        (*rel_ids, watermark),
    ).fetchall()
    pairs: set[tuple[str, str]] = set()
    for row in delta_rows:
        ancestors = taxonomy.ancestors(row["parent"], include_self=True)
        descendants = taxonomy.descendants(row["child"], include_self=True)
        for ancestor in ancestors:
            for descendant in descendants:
                if ancestor == descendant:
                    raise GamIntegrityError(
                        f"IS_A structure of {src.name!r} contains a cycle"
                        " (self-subsumption detected)"
                    )
                pairs.add((ancestor, descendant))
    if not pairs:
        return 0
    return repository.add_associations(
        rel, ((ancestor, descendant, 1.0) for ancestor, descendant in pairs)
    )
