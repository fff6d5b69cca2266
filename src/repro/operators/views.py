"""Annotation views — the tabular result of ``GenerateView`` (Figure 3).

An annotation view is a structured representation of annotations for the
objects of one source: one column for the source, one per target, tuples of
related objects as rows.  Views are queryable (filter/project/sort) to
support high-volume analysis, and exportable for further analysis in
external tools (paper Section 5.1).
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterable, Iterator

Row = tuple

#: Placeholder rendered for NULLs introduced by outer joins.
NULL_DISPLAY = "-"


def row_sort_key(row: Row) -> tuple:
    """None-safe lexicographic sort key: NULLs order last per column.

    The canonical row ordering shared by every view producer — the
    in-memory engine (:meth:`AnnotationView.sorted`) and the SQL engine
    (:mod:`repro.operators.sql_engine`) — so both emit identical row
    orders even when OR/negated joins leave ``None`` cells next to
    strings, which a bare ``sorted`` would reject with ``TypeError``.
    """
    return tuple((value is None, value or "") for value in row)


@dataclasses.dataclass(frozen=True)
class AnnotationView:
    """A tabular annotation view.

    ``columns[0]`` is always the annotated source; the remaining columns
    are the targets in specification order.  Cell values are accession
    strings or ``None`` (no annotation, from an OR/negated join).
    """

    columns: tuple[str, ...]
    rows: tuple[Row, ...]

    def __post_init__(self) -> None:
        width = len(self.columns)
        # One scan at C speed; the offending row is looked up only on failure.
        if set(map(len, self.rows)) - {width}:
            row = next(row for row in self.rows if len(row) != width)
            raise ValueError(
                f"row width {len(row)} does not match {width} columns: {row!r}"
            )

    @property
    def source_column(self) -> str:
        """Name of the annotated source (first column)."""
        return self.columns[0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def is_empty(self) -> bool:
        """True when the view holds no rows."""
        return not self.rows

    # -- queryability ---------------------------------------------------------

    def column_index(self, column: str) -> int:
        """Index of a column; raises ``KeyError`` for unknown names."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise KeyError(f"view has no column {column!r}") from None

    def column_values(self, column: str, distinct: bool = True) -> list[str]:
        """Non-NULL values of one column, optionally deduplicated."""
        index = self.column_index(column)
        values = [row[index] for row in self.rows if row[index] is not None]
        if not distinct:
            return values
        seen: dict[str, None] = {}
        for value in values:
            seen.setdefault(value, None)
        return list(seen)

    def source_objects(self) -> list[str]:
        """Distinct annotated source objects, in row order."""
        return self.column_values(self.source_column)

    def filter(self, predicate: Callable[[dict], bool]) -> "AnnotationView":
        """Rows for which ``predicate(row_as_dict)`` holds."""
        kept = tuple(row for row in self.rows if predicate(self.row_dict(row)))
        return AnnotationView(self.columns, kept)

    def project(self, columns: Iterable[str]) -> "AnnotationView":
        """A view reduced to the given columns (duplicates dropped)."""
        columns = tuple(columns)
        indices = [self.column_index(column) for column in columns]
        seen: dict[Row, None] = {}
        for row in self.rows:
            seen.setdefault(tuple(row[i] for i in indices), None)
        return AnnotationView(columns, tuple(seen))

    def sorted(self) -> "AnnotationView":
        """Rows sorted lexicographically with NULLs last per column."""
        return AnnotationView(
            self.columns, tuple(sorted(self.rows, key=row_sort_key))
        )

    def row_dict(self, row: Row) -> dict[str, str | None]:
        """One row as a column -> value dict."""
        return dict(zip(self.columns, row))

    def to_dicts(self) -> list[dict[str, str | None]]:
        """All rows as dicts (JSON-friendly)."""
        return [self.row_dict(row) for row in self.rows]

    # -- grouping --------------------------------------------------------------

    def grouped_by_source(self) -> dict[str, list[dict[str, str | None]]]:
        """Rows grouped per annotated source object."""
        grouped: dict[str, list[dict[str, str | None]]] = {}
        for row in self.rows:
            record = self.row_dict(row)
            key = record[self.source_column]
            grouped.setdefault(key, []).append(record)
        return grouped

    def annotation_profile(self, source_accession: str) -> dict[str, list[str]]:
        """Per-target annotation lists of one source object.

        This is the "functional profile" shape used by the Section 5.2
        analysis: a dict target -> sorted accessions.
        """
        profile: dict[str, list[str]] = {column: [] for column in self.columns[1:]}
        index = self.column_index(self.source_column)
        for row in self.rows:
            if row[index] != source_accession:
                continue
            for column in self.columns[1:]:
                value = row[self.column_index(column)]
                if value is not None and value not in profile[column]:
                    profile[column].append(value)
        return {column: sorted(values) for column, values in profile.items()}

    # -- rendering / export -----------------------------------------------------

    def render(self, max_rows: int | None = 40) -> str:
        """A fixed-width text table (the Figure 3 display)."""
        shown = list(self.rows if max_rows is None else self.rows[:max_rows])
        cells = [[str(col) for col in self.columns]]
        for row in shown:
            cells.append(
                [NULL_DISPLAY if value is None else str(value) for value in row]
            )
        widths = [
            max(len(line[i]) for line in cells) for i in range(len(self.columns))
        ]
        divider = "-+-".join("-" * width for width in widths)
        lines = [
            " | ".join(cell.ljust(width) for cell, width in zip(line, widths))
            for line in cells
        ]
        lines.insert(1, divider)
        if max_rows is not None and len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)

    def to_tsv(self) -> str:
        """Tab-separated export with a header line."""
        lines = ["\t".join(self.columns)]
        for row in self.rows:
            lines.append(
                "\t".join("" if value is None else str(value) for value in row)
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """JSON export: ``{"columns": [...], "rows": [...]}``."""
        return json.dumps(
            {"columns": list(self.columns), "rows": [list(row) for row in self.rows]},
            indent=2,
        )
