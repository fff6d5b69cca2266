"""Parser for LocusLink records (simplified ``LL_tmpl`` flat-file format).

The accepted format mirrors NCBI's historical ``LL_tmpl`` dump: records
start with ``>>`` followed by the locus id, and carry ``KEY: value`` lines::

    >>353
    OFFICIAL_SYMBOL: APRT
    NAME: adenine phosphoribosyltransferase
    CHR: 16
    MAP: 16q24
    ECNUM: 2.4.2.7
    GO: GO:0009116|nucleoside metabolism
    OMIM: 102600
    UNIGENE: Hs.28914
    ALIAS_SYMBOL: AMP

Parsing a record yields exactly the EAV rows of paper Table 1 — one row per
annotation with the annotating source as target.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.eav.model import NAME_TARGET, EavRow
from repro.gam.enums import SourceContent, SourceStructure
from repro.gam.errors import ParseError
from repro.parsers.base import SourceParser, register_parser

#: LL_tmpl key -> EAV target name.
_KEY_TO_TARGET = {
    "OFFICIAL_SYMBOL": "Hugo",
    "CHR": "Chromosome",
    "MAP": "Location",
    "ECNUM": "Enzyme",
    "GO": "GO",
    "OMIM": "OMIM",
    "UNIGENE": "Unigene",
    "ALIAS_SYMBOL": "Alias",
    "ENSEMBL": "Ensembl",
    "SWISSPROT": "SwissProt",
}


@register_parser
class LocusLinkParser(SourceParser):
    """Parse LocusLink ``LL_tmpl``-style records into EAV rows."""

    source_name = "LocusLink"
    content = SourceContent.GENE
    structure = SourceStructure.FLAT
    format_description = ">>locus records with KEY: value annotation lines"

    def parse_lines(self, lines: Iterable[str]) -> Iterator[EavRow]:
        locus: str | None = None
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if line.startswith(">>"):
                locus = line[2:].strip()
                self.require(bool(locus), "empty locus id after '>>'", line_number)
                continue
            if locus is None:
                raise ParseError(
                    f"annotation line before any '>>' record: {line!r}", line_number
                )
            key, sep, value = line.partition(":")
            if not sep:
                raise ParseError(f"expected 'KEY: value', got {line!r}", line_number)
            key = key.strip().upper()
            value = value.strip()
            if not value:
                continue
            yield from self._rows_for(locus, key, value)

    def _rows_for(self, locus: str, key: str, value: str) -> Iterator[EavRow]:
        if key == "NAME":
            yield EavRow(locus, NAME_TARGET, value, text=value)
            return
        target = _KEY_TO_TARGET.get(key)
        if target is None:
            # Unknown keys become targets of their own; the generic import
            # step will register them as flat Other sources.  This is what
            # makes adding new LocusLink annotation fields a no-op.
            target = key.title()
        accession, __, text = value.partition("|")
        accession = accession.strip()
        text = text.strip() or None
        if text and "|" in text:
            # GO lines may carry "term name|evidence_code"; keep the name.
            text = text.split("|", 1)[0].strip()
        yield EavRow(locus, target, accession, text=text)
