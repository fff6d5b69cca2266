"""Parser for SwissProt entries (simplified UniProtKB flat-file format).

Accepted format::

    ID   APRT_HUMAN
    AC   P07741;
    DE   Adenine phosphoribosyltransferase.
    GN   APRT
    DR   InterPro; IPR000312; Phosphoribosyltransferase.
    DR   GO; GO:0009116; nucleoside metabolism.
    DR   Enzyme; 2.4.2.7; -.
    //

The primary accession (first ``AC`` value) identifies the entry; ``DR``
lines become cross-source annotations; ``GN`` becomes a Hugo annotation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.eav.model import NAME_TARGET, EavRow
from repro.gam.enums import SourceContent, SourceStructure
from repro.gam.errors import ParseError
from repro.parsers.base import SourceParser, register_parser

#: DR database label -> EAV target (labels not listed pass through as-is).
_DR_TARGETS = {
    "interpro": "InterPro",
    "go": "GO",
    "enzyme": "Enzyme",
    "omim": "OMIM",
    "ensembl": "Ensembl",
}


@register_parser
class SwissProtParser(SourceParser):
    """Parse SwissProt flat-file entries into EAV rows."""

    source_name = "SwissProt"
    content = SourceContent.PROTEIN
    structure = SourceStructure.FLAT
    format_description = "UniProtKB-style ID/AC/DE/GN/DR lines, '//' terminator"

    def parse_lines(self, lines: Iterable[str]) -> Iterator[EavRow]:
        accession: str | None = None
        pending: list[tuple[str, str, str | None]] = []
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.rstrip("\n")
            if not line.strip():
                continue
            if line.strip() == "//":
                accession = None
                pending.clear()
                continue
            code = line[:2].upper()
            value = line[5:].strip() if len(line) > 5 else ""
            if code == "AC" and accession is None:
                accession = value.split(";", 1)[0].strip()
                self.require(bool(accession), "empty AC accession", line_number)
                for target, acc, text in pending:
                    yield EavRow(accession, target, acc, text=text)
                pending.clear()
            elif code in ("DE", "GN", "DR"):
                for row in self._entry_rows(code, value, line_number):
                    if accession is None:
                        pending.append(row)
                    else:
                        target, acc, text = row
                        yield EavRow(accession, target, acc, text=text)

    def _entry_rows(
        self, code: str, value: str, line_number: int
    ) -> Iterator[tuple[str, str, str | None]]:
        if code == "DE":
            name = value.rstrip(".")
            if name:
                yield (NAME_TARGET, name, name)
        elif code == "GN":
            symbol = value.rstrip(".").strip()
            if symbol:
                yield ("Hugo", symbol, None)
        elif code == "DR":
            parts = [part.strip().rstrip(".") for part in value.split(";")]
            if len(parts) < 2:
                raise ParseError(
                    f"DR line needs 'DB; accession', got {value!r}", line_number
                )
            database = parts[0].lower()
            target = _DR_TARGETS.get(database, parts[0])
            text = parts[2] if len(parts) > 2 and parts[2] not in ("-", "") else None
            if parts[1]:
                yield (target, parts[1], text)
