"""An alternative GenerateView execution engine: compilation to one SQL
query over the four GAM tables.

Paper Section 4.2: "the operations are described declaratively and leave
room for optimizations in the implementation".  Requests are served by
the probe engine (:mod:`repro.operators.generate_view`), which joins each
upload over the loaded mappings; this engine instead compiles the whole
view — including multi-hop ``Compose`` paths, range restrictions and
Figure 5 negation — into a single CTE-based SQL statement that the
relational backend executes, never materializing intermediate mappings
in Python.

Semantics are identical by construction and verified by tests that compare
both engines over randomized universes; the benchmark uses this engine as
its reference for served views, and the ``bench_sql_engine`` ablation
measures both.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.gam.enums import CombineMethod
from repro.gam.errors import ViewGenerationError
from repro.gam.records import SourceRel
from repro.gam.repository import GamRepository
from repro.obs import get_tracer
from repro.operators.compose import resolve_hop_rel
from repro.operators.generate_view import TargetSpec
from repro.operators.views import AnnotationView, row_sort_key


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
