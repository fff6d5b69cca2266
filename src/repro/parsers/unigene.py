"""Parser for UniGene cluster records (simplified ``Hs.data`` format).

Accepted format::

    ID          Hs.28914
    TITLE       adenine phosphoribosyltransferase
    GENE        APRT
    LOCUSLINK   353
    CHROMOSOME  16
    EXPRESS     brain; liver
    //

Each ``//`` terminates a cluster record.  ``EXPRESS`` tissues become
``Tissue`` annotations; the remaining keys map to Hugo/LocusLink/Chromosome.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.eav.model import NAME_TARGET, EavRow
from repro.gam.enums import SourceContent, SourceStructure
from repro.gam.errors import ParseError
from repro.parsers.base import SourceParser, register_parser

_KEY_TO_TARGET = {
    "GENE": "Hugo",
    "LOCUSLINK": "LocusLink",
    "CHROMOSOME": "Chromosome",
    "CYTOBAND": "Location",
}


@register_parser
class UnigeneParser(SourceParser):
    """Parse UniGene ``Hs.data``-style cluster records into EAV rows."""

    source_name = "Unigene"
    content = SourceContent.GENE
    structure = SourceStructure.FLAT
    format_description = "KEY value lines per cluster, '//' record terminator"

    def parse_lines(self, lines: Iterable[str]) -> Iterator[EavRow]:
        cluster: str | None = None
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if line.strip() == "//":
                cluster = None
                continue
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ParseError(f"expected 'KEY value', got {line!r}", line_number)
            key, value = parts[0].upper(), parts[1].strip()
            if key == "ID":
                cluster = value
                continue
            if cluster is None:
                raise ParseError(f"field {key!r} before any ID line", line_number)
            if key == "TITLE":
                yield EavRow(cluster, NAME_TARGET, value, text=value)
            elif key == "EXPRESS":
                for tissue in self.split_multi(value, separator=";"):
                    yield EavRow(cluster, "Tissue", tissue)
            elif key in _KEY_TO_TARGET:
                yield EavRow(cluster, _KEY_TO_TARGET[key], value)
            # Unknown keys (SCOUNT, SEQUENCE, ...) are intentionally skipped:
            # they describe cluster internals, not annotations.
