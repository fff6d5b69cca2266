"""The ``Compose`` operation: derive new mappings by transitivity.

Paper Section 4.2: *"if a locus l in LocusLink is annotated with some GO
terms, so are the Unigene entries associated with locus l"*.  Compose takes
a mapping path — two or more mappings connecting two sources — and joins
them pairwise on the shared intermediate source, producing a direct mapping
between the path's endpoints.

Evidence handling extends the paper's future-work note on mappings with
reduced evidence: when associations are chained, their evidence values are
combined by a named combiner (``product`` by default, which treats
evidences as independent plausibilities; ``min`` implements a weakest-link
policy).  When several intermediate objects connect the same endpoint pair,
the strongest chain wins.

The whole path runs inside SQLite as one chain join over ``object_rel``:
:func:`compose` reads it, :func:`materialize_composed_sql` writes it
straight back as a ``Composed`` relationship, and the delta refresh in
:mod:`repro.derived.refresh` re-runs it restricted to new rows.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.cache.deps import record_dependency
from repro.gam.enums import RelType
from repro.gam.errors import UnknownMappingError
from repro.gam.records import Source, SourceRel, shared_associations
from repro.gam.repository import GamRepository
from repro.obs import get_tracer
from repro.operators.mapping import Mapping
from repro.operators.simple import map_

#: Combines the evidences of two chained associations into one.
EvidenceCombiner = Callable[[float, float], float]


def product_evidence(left: float, right: float) -> float:
    """Independent-plausibility combiner (default)."""
    return left * right


def min_evidence(left: float, right: float) -> float:
    """Weakest-link combiner."""
    return min(left, right)


def combiner_name(combiner: EvidenceCombiner) -> str:
    """The SQL name of a named combiner: ``"product"`` or ``"min"``.

    Compose runs inside the database, which can evaluate only these two
    policies; any other callable raises ``ValueError``.
    """
    if combiner is product_evidence:
        return "product"
    if combiner is min_evidence:
        return "min"
    raise ValueError(
        f"unsupported evidence combiner {combiner!r}:"
        " use product_evidence or min_evidence"
    )


def resolve_hop_rel(
    repository: GamRepository, step_source: str, step_target: str
) -> tuple[SourceRel, bool]:
    """The stored mapping of one path hop and whether it is forward-stored.

    Prefers imported annotation mappings over derived ones, matching
    :meth:`GamRepository.fetch_mapping_associations`.
    """
    # Scoped cache invalidation: the compiled plan (and anything cached
    # from it) depends on both hop endpoints.
    record_dependency(step_source, step_target)
    rels = repository.mappings_between(step_source, step_target)
    if not rels:
        raise UnknownMappingError(step_source, step_target)
    rels.sort(key=lambda rel: (rel.type.is_derived, rel.src_rel_id))
    rel = rels[0]
    source1 = repository.get_source(rel.source1_id)
    forward = source1.name == step_source
    return rel, forward


class _ChainJoinPlan:
    """The shared skeleton of a mapping-path chain join.

    Built once per statement by :func:`_chain_join_plan` and rendered
    three ways: as a SELECT returning accession pairs (:func:`compose`),
    as an ``INSERT ... SELECT`` writing object-id pairs straight into
    ``object_rel`` (:func:`materialize_composed_sql`) and as the per-hop
    delta upserts of :func:`repro.derived.refresh.refresh_composed`.
    """

    __slots__ = (
        "first_rel",
        "start_expr",
        "end_expr",
        "joins",
        "join_parameters",
        "chain_evidence",
    )

    def __init__(self, first_rel, start_expr, end_expr, joins,
                 join_parameters, chain_evidence) -> None:
        self.first_rel = first_rel
        self.start_expr = start_expr
        self.end_expr = end_expr
        self.joins = joins
        self.join_parameters = join_parameters
        self.chain_evidence = chain_evidence


def _chain_join_plan(
    repository: GamRepository, steps: Sequence[str], combiner: str
) -> _ChainJoinPlan:
    """Resolve a mapping path into the chain-join FROM clause.

    Hop 1 anchors the FROM clause; its rel id binds in the WHERE, so the
    JOIN parameters (hops 2..n) come first to match the statement text.
    """
    if combiner not in ("product", "min"):
        raise ValueError(f"no SQL evidence combiner named {combiner!r}")
    first_rel, first_forward = resolve_hop_rel(repository, steps[0], steps[1])
    start_column = "object1_id" if first_forward else "object2_id"
    prev_end = "object2_id" if first_forward else "object1_id"
    joins = ["object_rel r1"]
    join_parameters: list = []
    evidence_terms = ["r1.evidence"]
    for hop_index, (step_source, step_target) in enumerate(
        zip(steps[1:], steps[2:]), start=2
    ):
        rel, forward = resolve_hop_rel(repository, step_source, step_target)
        this = f"r{hop_index}"
        near = "object1_id" if forward else "object2_id"
        far = "object2_id" if forward else "object1_id"
        joins.append(
            f"JOIN object_rel {this} ON {this}.{near} ="
            f" r{hop_index - 1}.{prev_end}"
            f" AND {this}.src_rel_id = ?"
        )
        join_parameters.append(rel.src_rel_id)
        evidence_terms.append(f"{this}.evidence")
        prev_end = far
    if combiner == "product":
        chain_evidence = " * ".join(evidence_terms)
    else:
        chain_evidence = (
            evidence_terms[0]
            if len(evidence_terms) == 1
            else f"min({', '.join(evidence_terms)})"
        )
    last = f"r{len(steps) - 1}"
    return _ChainJoinPlan(
        first_rel=first_rel,
        start_expr=f"r1.{start_column}",
        end_expr=f"{last}.{prev_end}",
        joins=joins,
        join_parameters=join_parameters,
        chain_evidence=chain_evidence,
    )


def compose(
    repository: GamRepository,
    path: Sequence["str | Source"],
    combiner: EvidenceCombiner = product_evidence,
) -> Mapping:
    """``Compose`` along a path of source names.

    ``path`` lists the sources of the mapping path in order, e.g.
    ``["Unigene", "LocusLink", "GO"]`` derives Unigene ↔ GO from
    Unigene ↔ LocusLink and LocusLink ↔ GO.  Every consecutive pair must
    have a stored mapping; otherwise :class:`UnknownMappingError` is
    raised (path *discovery* is the path finder's job, not Compose's).

    A two-source path *is* its stored mapping: it is returned directly via
    ``Map``.  Longer paths run as one SQL statement: the chain join over
    ``object_rel``'s covering indices, grouped so that per endpoint pair
    the strongest chain wins, with chain evidence combined by
    ``combiner`` (:func:`product_evidence` or :func:`min_evidence`; any
    other callable raises ``ValueError``).  Taking one max over full
    chains agrees with folding the legs pairwise because both combiners
    are monotonic in each argument.
    """
    if len(path) < 2:
        raise ValueError("a mapping path needs at least two sources")
    sql_combiner = combiner_name(combiner)
    steps = [step.name if isinstance(step, Source) else str(step) for step in path]
    if len(steps) == 2:
        # A single leg is the stored mapping itself, not a derived one.
        return map_(repository, steps[0], steps[1])
    source = repository.get_source(steps[0])
    target = repository.get_source(steps[-1])
    with get_tracer().span(
        "operator.compose",
        path=" -> ".join(steps),
        hops=len(steps) - 1,
    ) as span:
        plan = _chain_join_plan(repository, steps, sql_combiner)
        # One row per endpoint pair, already in Mapping.build's order
        # (SQLite's BINARY collation orders UTF-8 text by code point).
        sql = (
            "SELECT so.accession AS src, to_.accession AS tgt,"
            f" max({plan.chain_evidence}) AS evidence FROM "
            + "\n  ".join(plan.joins)
            + f"\n  JOIN object so ON so.object_id = {plan.start_expr}"
            + f"\n  JOIN object to_ ON to_.object_id = {plan.end_expr}"
            + "\n  WHERE r1.src_rel_id = ?"
            + "\n  GROUP BY so.accession, to_.accession"
            + "\n  ORDER BY so.accession, to_.accession"
        )
        rows = repository.db.execute_read_iter(
            sql, (*plan.join_parameters, plan.first_rel.src_rel_id)
        )
        mapping = Mapping(
            source.name,
            target.name,
            tuple(shared_associations(rows)),
            rel_type=RelType.COMPOSED,
        )
        span.tag(associations=len(mapping))
    return mapping


def materialize_composed_sql(
    repository: GamRepository,
    path: Sequence[str],
    combiner: str,
    rel: SourceRel,
) -> int:
    """Materialize a composed path as one ``INSERT ... SELECT``.

    The same chain join :func:`compose` runs, but grouped on object ids
    and written straight into ``object_rel`` under ``rel`` — the derived
    associations never round-trip through Python accession lists.
    ``INSERT OR IGNORE`` keeps re-materialization idempotent; the returned
    count comes from the write cursor's ``rowcount`` (only actually
    inserted rows count), mirroring
    :meth:`~repro.gam.repository.GamRepository.add_associations`.  The
    caller holds the write scope of the path's endpoint sources.
    """
    if len(path) < 3:
        raise ValueError("materializing a composed path needs at least one hop")
    steps = [str(step) for step in path]
    plan = _chain_join_plan(repository, steps, combiner)
    sql = (
        "INSERT OR IGNORE INTO object_rel"
        " (src_rel_id, object1_id, object2_id, evidence)"
        f" SELECT ?, {plan.start_expr}, {plan.end_expr},"
        f" max({plan.chain_evidence}) FROM "
        + "\n  ".join(plan.joins)
        + "\n  WHERE r1.src_rel_id = ?"
        + f"\n  GROUP BY {plan.start_expr}, {plan.end_expr}"
    )
    cursor = repository.db.execute(
        sql,
        (rel.src_rel_id, *plan.join_parameters, plan.first_rel.src_rel_id),
    )
    return max(cursor.rowcount, 0)


def materialization_rows(mapping: Mapping) -> list[tuple[str, str, float]]:
    """The mapping's associations as repository ``add_associations`` rows.

    Used when a mapping of general interest is materialized in the
    central database (paper Section 1, derived relationships).
    """
    return [
        (assoc.source_accession, assoc.target_accession, assoc.evidence)
        for assoc in mapping
    ]
