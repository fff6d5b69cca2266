"""An alternative GenerateView execution engine: compilation to one SQL
query over the four GAM tables.

Paper Section 4.2: "the operations are described declaratively and leave
room for optimizations in the implementation".  The default engine
(:mod:`repro.operators.generate_view`) loads mappings into memory and
joins there; this engine instead compiles the whole view — including
multi-hop ``Compose`` paths, range restrictions and Figure 5 negation —
into a single CTE-based SQL statement that the relational backend
executes, never materializing intermediate mappings in Python.

Semantics are identical by construction and verified by tests that compare
both engines over randomized universes; the ``bench_sql_engine`` ablation
measures when pushing the join into SQL wins.

The same pushdown idea accelerates ``Compose``: :func:`compose_sql` runs a
whole mapping path — the pairwise joins *and* the best-evidence
aggregation — as one set-based SQL statement over ``object_rel``, instead
of the Python dict loops in :mod:`repro.operators.compose`.  It applies
whenever every leg of the path is a stored mapping and the evidence
combiner is one of the two named policies (``product``, ``min``); ad-hoc
combiners and derived in-memory legs fall back to the Python join.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.cache.deps import record_dependency
from repro.gam.enums import CombineMethod, RelType
from repro.gam.errors import UnknownMappingError, ViewGenerationError
from repro.gam.records import SourceRel, shared_associations
from repro.gam.repository import GamRepository
from repro.obs import get_tracer
from repro.operators.generate_view import TargetSpec
from repro.operators.mapping import Mapping
from repro.operators.views import AnnotationView, row_sort_key


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
    """The shared skeleton of a pushed-down mapping-path chain join.

    Built once per statement by :func:`_chain_join_plan` and rendered two
    ways: as a SELECT returning accession pairs (:func:`compose_sql`) and
    as an ``INSERT ... SELECT`` writing object-id pairs straight into
    ``object_rel`` (:func:`materialize_composed_sql`).
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
        raise ValueError(f"no SQL pushdown for combiner {combiner!r}")
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


def compose_sql(
    repository: GamRepository,
    path: Sequence[str],
    combiner: str = "product",
) -> Mapping:
    """``Compose`` along a stored-mapping path as one SQL statement.

    The chain join runs inside SQLite on ``object_rel``'s covering
    indices; per endpoint pair the strongest chain wins, with chain
    evidence combined by ``combiner``:

    * ``"product"`` — independent-plausibility (evidence multiplied);
    * ``"min"`` — weakest link.

    Folding :func:`repro.operators.compose.compose_pair` pairwise and
    taking one max over full chains agree because both combiners are
    monotonic in each argument — verified against the Python engine by
    ``tests/test_sql_engine.py``.  Raises
    :class:`~repro.gam.errors.UnknownMappingError` when a leg has no
    stored mapping and ``ValueError`` for unknown combiners (callers then
    fall back to the in-memory path).
    """
    if len(path) < 2:
        raise ValueError("a mapping path needs at least two sources")
    steps = [str(step) for step in path]
    source = repository.get_source(steps[0])
    target = repository.get_source(steps[-1])
    with get_tracer().span(
        "operator.compose",
        path=" -> ".join(steps),
        hops=len(steps) - 1,
        engine="sql",
    ) as span:
        plan = _chain_join_plan(repository, steps, combiner)
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
        rel_type = plan.first_rel.type if len(steps) == 2 else RelType.COMPOSED
        mapping = Mapping(
            source.name,
            target.name,
            tuple(shared_associations(rows)),
            rel_type=rel_type,
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

    The same chain join :func:`compose_sql` runs, but grouped on object
    ids and written straight into ``object_rel`` under ``rel`` — the
    derived associations never round-trip through Python accession lists.
    ``INSERT OR IGNORE`` keeps re-materialization idempotent; the returned
    count comes from the write cursor's ``rowcount`` (only actually
    inserted rows count), mirroring
    :meth:`~repro.gam.repository.GamRepository.add_associations`.
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
    # Scoped write: the materialized rows belong to the path's endpoint
    # sources — cache entries for unrelated pairs stay warm.
    with repository.db.write_scope(steps[0], steps[-1]):
        cursor = repository.db.execute(
            sql,
            (rel.src_rel_id, *plan.join_parameters, plan.first_rel.src_rel_id),
        )
    return max(cursor.rowcount, 0)


class SqlViewEngine:
    """Compiles and runs annotation views as single SQL statements."""

    def __init__(self, repository: GamRepository) -> None:
        self.repository = repository
        # Compiled plans depend on optimizer statistics; make sure they
        # exist (integrate_directory refreshes them, but databases built
        # through other paths may not have run ANALYZE yet).
        if not repository.db.has_planner_statistics():
            repository.db.analyze()

    # -- public API -----------------------------------------------------------

    def generate_view(
        self,
        source: str,
        source_objects: Iterable[str] | None,
        targets: Sequence[TargetSpec],
        combine: CombineMethod | str = CombineMethod.AND,
        paths: dict[str, Sequence[str]] | None = None,
    ) -> AnnotationView:
        """Build the annotation view entirely inside the database.

        ``paths`` optionally maps a target name to the full mapping path
        (source first); targets without an entry use their ``via`` hints
        or must have a stored direct mapping.
        """
        tracer = get_tracer()
        with tracer.span(
            "operator.sql_view", source=source, targets=len(targets)
        ) as view_span:
            with tracer.span("operator.sql_view.compile"):
                sql, parameters, columns = self.compile(
                    source, source_objects, targets, combine, paths
                )
            with tracer.span("operator.sql_view.execute"):
                # The compiled view is pure SELECT: run it on the calling
                # thread's pooled read connection, never the writer path.
                rows = self.repository.db.execute_read(
                    sql, tuple(parameters)
                ).fetchall()
            view_span.tag(rows=len(rows))
        return AnnotationView(
            columns,
            tuple(sorted((tuple(row) for row in rows), key=row_sort_key)),
        )

    def compile(
        self,
        source: str,
        source_objects: Iterable[str] | None,
        targets: Sequence[TargetSpec],
        combine: CombineMethod | str = CombineMethod.AND,
        paths: dict[str, Sequence[str]] | None = None,
    ) -> tuple[str, list, tuple[str, ...]]:
        """Compile a view to ``(sql, parameters, column_names)``.

        Non-negated targets take the *inline* fast path: the mapping-path
        hops join ``object_rel`` directly on its covering indices.  Under
        ``OR``, multi-hop paths cannot inline (a dangling partial chain
        would surface as a spurious NULL next to a complete chain), so
        those — and all negated targets, which need Figure 5's
        ``si'``/right-outer-join construction — compile to CTEs instead.
        """
        combine = CombineMethod.parse(combine)
        src = self.repository.get_source(source)
        seen = {src.name}
        for spec in targets:
            if spec.name in seen:
                raise ViewGenerationError(
                    f"duplicate view column {spec.name!r}; use distinct targets"
                )
            seen.add(spec.name)

        ctes: list[str] = []
        # Placeholders must be bound in text order: every CTE (including
        # s) precedes the main body, so CTE parameters come first and the
        # inline joins' parameters last.
        cte_parameters: list = []
        body_parameters: list = []

        # s: the relevant source objects (object_id kept for inline joins).
        s_sql = "SELECT object_id, accession FROM object WHERE source_id = ?"
        cte_parameters.append(src.source_id)
        if source_objects is not None:
            accession_list = sorted(set(source_objects))
            placeholders = ", ".join("?" for __ in accession_list)
            s_sql += f" AND accession IN ({placeholders})"
            cte_parameters.extend(accession_list)
        ctes.append(f"s AS ({s_sql})")

        join_clauses: list[str] = []
        select_columns = ["s.accession AS c0"]
        for index, spec in enumerate(targets, start=1):
            cte_name = f"m{index}"
            path = self._resolve_path(src.name, spec, paths)
            # Under OR, inlining is only safe for single-hop, unrestricted
            # targets: a dangling partial chain or an ON-clause restriction
            # miss would surface as a spurious NULL row next to a real one.
            can_inline = not spec.negated and (
                combine == CombineMethod.AND
                or (len(path) == 2 and spec.restrict is None)
            )
            if can_inline:
                clause, clause_params, column = self._inline_target(
                    index, path, spec, combine
                )
                join_clauses.append(clause)
                body_parameters.extend(clause_params)
                select_columns.append(f"{column} AS c{index}")
                continue
            raw_sql, raw_params = self._path_subquery(path)
            if spec.negated:
                restricted = f"{cte_name}_restricted"
                raw = f"{cte_name}_raw"
                ctes.append(f"{raw} AS ({raw_sql})")
                cte_parameters.extend(raw_params)
                restrict_sql = f"SELECT src, tgt FROM {raw} JOIN s ON s.accession = src"
                if spec.restrict is not None:
                    values = sorted(spec.restrict)
                    placeholders = ", ".join("?" for __ in values)
                    restrict_sql += f" WHERE tgt IN ({placeholders})"
                    ctes.append(f"{restricted} AS ({restrict_sql})")
                    cte_parameters.extend(values)
                else:
                    ctes.append(f"{restricted} AS ({restrict_sql})")
                # si' = s \ Domain(mi); mi = RestrictDomain(Mi_raw, si')
                # right outer join si' (Figure 5).
                ctes.append(
                    f"{cte_name} AS ("
                    f" SELECT su.accession AS src, r.tgt AS tgt"
                    f" FROM (SELECT accession FROM s WHERE accession NOT IN"
                    f"       (SELECT src FROM {restricted})) su"
                    f" LEFT JOIN {raw} r ON r.src = su.accession)"
                )
            else:
                sub_sql = raw_sql
                if spec.restrict is not None:
                    values = sorted(spec.restrict)
                    placeholders = ", ".join("?" for __ in values)
                    sub_sql = (
                        f"SELECT src, tgt FROM ({raw_sql})"
                        f" WHERE tgt IN ({placeholders})"
                    )
                    ctes.append(f"{cte_name} AS ({sub_sql})")
                    cte_parameters.extend(raw_params)
                    cte_parameters.extend(values)
                else:
                    ctes.append(f"{cte_name} AS ({sub_sql})")
                    cte_parameters.extend(raw_params)
            join_kind = (
                "JOIN" if combine == CombineMethod.AND else "LEFT JOIN"
            )
            join_clauses.append(
                f"{join_kind} {cte_name} ON {cte_name}.src = s.accession"
            )
            select_columns.append(f"{cte_name}.tgt AS c{index}")

        sql = (
            "WITH "
            + ",\n     ".join(ctes)
            + "\nSELECT DISTINCT "
            + ", ".join(select_columns)
            + "\nFROM s\n"
            + "\n".join(join_clauses)
        )
        columns = (src.name, *(spec.name for spec in targets))
        return sql, [*cte_parameters, *body_parameters], columns

    def _inline_target(
        self,
        index: int,
        path: Sequence[str],
        spec: TargetSpec,
        combine: CombineMethod,
    ) -> tuple[str, list, str]:
        """Compile one target as direct indexed joins on ``object_rel``.

        Returns ``(join_clause, parameters, target_column_expr)``.  Range
        restrictions live in the final object join's ON clause so that an
        OR (left) join still yields NULL rather than dropping the row.
        """
        kind = "JOIN" if combine == CombineMethod.AND else "LEFT JOIN"
        parameters: list = []
        clauses: list[str] = []
        prev_expr = "s.object_id"
        for hop, (step_source, step_target) in enumerate(
            zip(path, path[1:]), start=1
        ):
            rel, forward = self._hop_rel(step_source, step_target)
            alias = f"t{index}r{hop}"
            near = "object1_id" if forward else "object2_id"
            far = "object2_id" if forward else "object1_id"
            clauses.append(
                f"{kind} object_rel {alias} ON {alias}.{near} = {prev_expr}"
                f" AND {alias}.src_rel_id = ?"
            )
            parameters.append(rel.src_rel_id)
            prev_expr = f"{alias}.{far}"
        target_alias = f"t{index}o"
        object_join = (
            f"{kind} object {target_alias}"
            f" ON {target_alias}.object_id = {prev_expr}"
        )
        if spec.restrict is not None:
            values = sorted(spec.restrict)
            placeholders = ", ".join("?" for __ in values)
            object_join += f" AND {target_alias}.accession IN ({placeholders})"
            parameters.extend(values)
        clauses.append(object_join)
        return "\n".join(clauses), parameters, f"{target_alias}.accession"

    # -- path resolution ----------------------------------------------------------

    def _resolve_path(
        self,
        source: str,
        spec: TargetSpec,
        paths: dict[str, Sequence[str]] | None,
    ) -> list[str]:
        if paths and spec.name in paths:
            return list(paths[spec.name])
        if spec.via:
            return [source, *spec.via, spec.name]
        # Fall back to the source graph's shortest path.
        from repro.pathfinder.graph import build_source_graph
        from repro.pathfinder.search import shortest_path

        graph = build_source_graph(self.repository)
        return list(shortest_path(graph, source, spec.name))

    def _hop_rel(self, step_source: str, step_target: str) -> tuple[SourceRel, bool]:
        """The stored mapping of one hop and whether it is forward-stored."""
        return resolve_hop_rel(self.repository, step_source, step_target)

    def _path_subquery(self, path: Sequence[str]) -> tuple[str, list]:
        """Compile a mapping path into ``SELECT DISTINCT src, tgt`` SQL."""
        if len(path) < 2:
            raise ViewGenerationError(
                f"a mapping path needs at least two sources: {path!r}"
            )
        # Parameters must follow placeholder order in the generated text:
        # hop 2..n rel ids appear in JOIN clauses, hop 1's in the WHERE.
        join_parameters: list = []
        joins: list[str] = []
        first_rel, first_forward = self._hop_rel(path[0], path[1])
        start_column = "object1_id" if first_forward else "object2_id"
        prev_end = "object2_id" if first_forward else "object1_id"
        joins.append("object_rel r1")
        for hop_index, (step_source, step_target) in enumerate(
            zip(path[1:], path[2:]), start=2
        ):
            rel, forward = self._hop_rel(step_source, step_target)
            this = f"r{hop_index}"
            near = "object1_id" if forward else "object2_id"
            far = "object2_id" if forward else "object1_id"
            joins.append(
                f"JOIN object_rel {this} ON {this}.{near} ="
                f" r{hop_index - 1}.{prev_end}"
                f" AND {this}.src_rel_id = ?"
            )
            join_parameters.append(rel.src_rel_id)
            prev_end = far
        last = f"r{len(path) - 1}"
        sql = (
            "SELECT DISTINCT so.accession AS src, to_.accession AS tgt FROM "
            + "\n  ".join(joins)
            + f"\n  JOIN object so ON so.object_id = r1.{start_column}"
            + f"\n  JOIN object to_ ON to_.object_id = {last}.{prev_end}"
            + "\n  WHERE r1.src_rel_id = ?"
        )
        return sql, [*join_parameters, first_rel.src_rel_id]
