"""Incremental maintenance of materialized Composed/Subsumed mappings.

The paper's deployment keeps ~500 derived mappings current across
continuous re-imports (Section 8).  Rebuilding a materialized mapping
from scratch after each import is O(full closure); these refreshes
apply only the *import delta* instead, seeded from the per-table row-id
watermarks the import journal records before each source import
(:meth:`repro.reliability.checkpoint.ImportJournal.table_watermarks`).

The delta algebra relies on imports being **strictly additive**: the GAM
write paths insert with ``INSERT OR IGNORE`` under a unique key and
never lower evidence, so ``object_rel`` rows with
``obj_rel_id > watermark`` are exactly the new edges.

* :func:`refresh_composed` — for a k-hop path, runs Compose's chain join
  (:func:`repro.operators.compose._chain_join_plan`) k times, each
  run restricting one hop to delta rows: a chain is new iff at least one
  of its hops is new, and every such chain is found by the run that
  restricts its *first* (any designated) new hop — running one
  restricted join per hop position covers all of them.  Results are
  upserted with an evidence-max conflict clause, so re-running is
  idempotent and a stronger new chain raises a stored pair's evidence
  exactly like full recomputation would.
* :func:`refresh_subsumed` — seeds the closure's recursive CTE from the new
  IS_A edges: a closure pair is new iff some ancestor path crosses a new
  edge, and every such path decomposes as ``descendant →* child →(new
  edge) parent →* ancestor`` around its *lowest* new edge.  The first
  recursive CTE walks downward from each new edge over all edges, the
  second extends ancestors upward, and the product is inserted with
  ``INSERT OR IGNORE`` (subsumption evidence is constant).

Both refreshes are byte-identical (``canonical_snapshot``) to dropping
the materialized rows and re-deriving from scratch — asserted by
``tests/test_refresh.py`` and, over random stores and deltas, against
the Python oracle in ``tests/oracle.py`` — and run inside a
:meth:`~repro.gam.database.GamDatabase.write_scope` of the mapping's
endpoint sources, so the refresh invalidates only the cache entries
that actually depend on them.  Applied delta rows are counted
under the ``derived.delta_rows`` metric.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.derived.subsumed import reject_self_subsumption
from repro.gam.enums import RelType
from repro.gam.errors import UnknownMappingError
from repro.gam.records import Source, SourceRel
from repro.gam.repository import GamRepository
from repro.obs import get_registry, get_tracer
from repro.operators.compose import (
    EvidenceCombiner,
    _chain_join_plan,
    combiner_name,
    product_evidence,
    resolve_hop_rel,
)


@dataclasses.dataclass(frozen=True, slots=True)
class RefreshReport:
    """Outcome of one incremental refresh."""

    rel: SourceRel
    watermark: int
    #: New base rows (``obj_rel_id > watermark``) feeding the delta.
    delta_edges: int
    #: Materialized rows inserted or upgraded by the refresh.
    changed: int


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
    if len(path) < 3:
        raise ValueError("refreshing a composed path needs at least one hop")
    names = [
        step.name if isinstance(step, Source) else str(step) for step in path
    ]
    mark = _watermark_value(watermark)
    sql_combiner = combiner_name(combiner)
    hop_rel_ids = [
        resolve_hop_rel(repository, source, target)[0].src_rel_id
        for source, target in zip(names, names[1:])
    ]
    delta_edges = _count_delta_edges(repository, hop_rel_ids, mark)
    with get_tracer().span(
        "operator.refresh_composed",
        path=" -> ".join(names),
        delta_edges=delta_edges,
    ) as span:
        with repository.db.write_scope(
            names[0], names[-1]
        ), repository.db.transaction():
            rel = repository.ensure_source_rel(
                names[0], names[-1], RelType.COMPOSED
            )
            changed = (
                _refresh_composed_sql(repository, names, sql_combiner, rel, mark)
                if delta_edges
                else 0
            )
        span.tag(changed=changed)
    _record_delta_rows(changed)
    return RefreshReport(
        rel=rel, watermark=mark, delta_edges=delta_edges, changed=changed
    )


#: Upsert clause of the composed refresh: insert new pairs, raise
#: existing pairs' evidence when a stronger chain appears, and leave
#: weaker-or-equal conflicts untouched (so ``rowcount`` counts only rows
#: the statement actually changed).
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


# -- Subsumed ---------------------------------------------------------------


def refresh_subsumed(
    repository: GamRepository,
    source: "str | Source",
    watermark: "int | dict[str, int]" = 0,
) -> RefreshReport:
    """Apply new IS_A edges to a materialized Subsumed mapping.

    Like :func:`refresh_composed`, ``watermark`` delimits the delta and
    ``watermark=0`` degenerates into a full derivation.  A cycle closed
    by the new edges is detected (self-subsumption) and rolls the whole
    refresh back with :class:`~repro.gam.errors.GamIntegrityError`,
    matching :func:`repro.derived.subsumed.derive_subsumed`.
    """
    src = repository.get_source(source)
    mark = _watermark_value(watermark)
    is_a_rels = repository.find_source_rels(src, src, RelType.IS_A)
    if not is_a_rels:
        raise UnknownMappingError(src.name, src.name, "no IS_A structure stored")
    rel_ids = tuple(r.src_rel_id for r in is_a_rels)
    delta_edges = _count_delta_edges(repository, rel_ids, mark)
    with get_tracer().span(
        "operator.refresh_subsumed",
        source=src.name,
        delta_edges=delta_edges,
    ) as span:
        with repository.db.write_scope(src.name), repository.db.transaction():
            rel = repository.ensure_source_rel(src, src, RelType.SUBSUMED)
            changed = (
                _refresh_subsumed_sql(repository, src, rel, rel_ids, mark)
                if delta_edges
                else 0
            )
        span.tag(changed=changed)
    _record_delta_rows(changed)
    return RefreshReport(
        rel=rel, watermark=mark, delta_edges=delta_edges, changed=changed
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
    reject_self_subsumption(repository, src, rel)
    return inserted
