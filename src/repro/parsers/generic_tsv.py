"""Generic TSV parser — the fallback for sources without a dedicated parser.

The paper's claim is that integrating a new source mainly consists of
writing a parser.  This module lowers that cost to zero for any source that
can export a simple table: the first column identifies the entity; every
other column is an annotation target named by its header.

Format::

    #source: MyArrayVendor
    id	Name	GO	LocusLink
    probe_1	my probe	GO:0009116|GO:0016757	353

* multi-valued cells use ``|`` separators,
* a value ``acc^some text`` carries the accession and its text component,
* the reserved headers ``Name``, ``Number``, ``IS_A`` and ``CONTAINS`` have
  their usual Import-step meaning.

Because :class:`GenericTsvParser` is configured with a source name instead
of registering one globally, instantiate it directly rather than going
through :func:`repro.parsers.base.get_parser`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.eav.model import NAME_TARGET, NUMBER_TARGET, EavRow
from repro.gam.enums import SourceContent, SourceStructure
from repro.gam.errors import ParseError
from repro.parsers.base import SourceParser


class GenericTsvParser(SourceParser):
    """Parse any entity-per-row TSV into EAV rows."""

    source_name = "GenericTSV"
    content = SourceContent.OTHER
    structure = SourceStructure.FLAT
    format_description = "TSV: first column = entity id, other columns = targets"

    def __init__(
        self,
        source_name: str | None = None,
        content: SourceContent | str | None = None,
        structure: SourceStructure | str | None = None,
    ) -> None:
        if source_name is not None:
            self.source_name = source_name
        if content is not None:
            self.content = SourceContent.parse(content)
        if structure is not None:
            self.structure = SourceStructure.parse(structure)

    def parse_lines(self, lines: Iterable[str]) -> Iterator[EavRow]:
        header: list[str] | None = None
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.rstrip("\n")
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                self._consume_directive(stripped)
                continue
            cells = line.split("\t")
            if header is None:
                header = [cell.strip() for cell in cells]
                self.require(
                    len(header) >= 2,
                    "generic TSV needs an id column and at least one target",
                    line_number,
                )
                continue
            entity = cells[0].strip()
            self.require(bool(entity), "row without an entity id", line_number)
            for target, cell in zip(header[1:], cells[1:]):
                for value in self.split_multi(cell):
                    yield self._row(entity, target, value, line_number)

    def _consume_directive(self, line: str) -> None:
        """Apply ``#source:``/``#content:``/``#structure:`` file directives."""
        key, sep, value = line[1:].partition(":")
        if not sep:
            return
        key = key.strip().lower()
        value = value.strip()
        if key == "source" and value:
            self.source_name = value
        elif key == "content" and value:
            self.content = SourceContent.parse(value)
        elif key == "structure" and value:
            self.structure = SourceStructure.parse(value)

    def _row(self, entity: str, target: str, value: str, line_number: int) -> EavRow:
        accession, sep, text = value.partition("^")
        accession = accession.strip()
        text = text.strip() if sep else ""
        if not accession:
            raise ParseError(f"empty value in column {target!r}", line_number)
        if target == NAME_TARGET:
            return EavRow(entity, NAME_TARGET, accession, text=text or accession)
        if target == NUMBER_TARGET:
            try:
                number = float(accession)
            except ValueError as exc:
                raise ParseError(
                    f"Number column holds non-numeric {accession!r}", line_number
                ) from exc
            return EavRow(entity, NUMBER_TARGET, accession, number=number)
        return EavRow(entity, target, accession, text=text or None)
