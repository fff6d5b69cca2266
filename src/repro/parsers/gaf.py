"""Parser for GO annotation files (GAF format, ``gene_association.*``).

The GO consortium distributes curated gene-product → GO-term annotations
as 15-column tab-separated GAF files::

    !gaf-version: 1.0
    SGD	S000000001	APRT	 	GO:0009116	PMID:1	IDA	 	P	adenine phosphoribosyltransferase	APRT1	gene	taxon:9606	20031001	SGD

Relevant columns: 2 (object id), 3 (symbol), 4 (qualifier — ``NOT``
annotations are skipped), 5 (GO id), 7 (evidence code), 10 (name).

Evidence codes map onto GAM evidence values: experimental codes (IDA, IMP,
IGI, IPI, IEP, TAS, IC) count as facts (1.0); computational/electronic
codes carry reduced plausibility, so a GAF import with IEA annotations
produces a Similarity mapping — exactly the Fact/Similarity split of paper
Section 3.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.eav.model import NAME_TARGET, EavRow
from repro.gam.enums import SourceContent, SourceStructure
from repro.gam.errors import ParseError
from repro.parsers.base import SourceParser, register_parser

#: GO evidence code -> plausibility stored on the association.
EVIDENCE_VALUES = {
    # Experimental / author statements: facts.
    "IDA": 1.0, "IMP": 1.0, "IGI": 1.0, "IPI": 1.0, "IEP": 1.0,
    "TAS": 1.0, "IC": 1.0,
    # Computational analysis: strong but indirect.
    "ISS": 0.9, "ISO": 0.9, "ISA": 0.9, "ISM": 0.9, "IGC": 0.85,
    "RCA": 0.8,
    # Electronic, no curator: weakest.
    "IEA": 0.7,
    # No biological data available.
    "ND": 0.5,
}

#: Columns of a GAF 1.0/2.x row (0-based indices used below).
_MIN_COLUMNS = 15


@register_parser
class GafParser(SourceParser):
    """Parse GO annotation (GAF) files into EAV rows."""

    source_name = "GOA"
    content = SourceContent.GENE
    structure = SourceStructure.FLAT
    format_description = "15-column GAF rows; '!' comment lines"

    def parse_lines(self, lines: Iterable[str]) -> Iterator[EavRow]:
        seen_names: set[str] = set()
        seen_symbols: set[tuple[str, str]] = set()
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.rstrip("\n")
            if not line.strip() or line.startswith("!"):
                continue
            columns = line.split("\t")
            if len(columns) < _MIN_COLUMNS:
                raise ParseError(
                    f"GAF row needs {_MIN_COLUMNS} columns, got {len(columns)}",
                    line_number,
                )
            object_id = columns[1].strip()
            if not object_id:
                raise ParseError("row without an object id", line_number)
            qualifier = columns[3].strip().upper()
            if "NOT" in qualifier.split("|"):
                # Negative annotations assert absence; GAM models presence.
                continue
            go_id = columns[4].strip()
            if not go_id.startswith("GO:"):
                raise ParseError(
                    f"column 5 must be a GO id, got {go_id!r}", line_number
                )
            evidence_code = columns[6].strip().upper()
            evidence = EVIDENCE_VALUES.get(evidence_code, 0.7)
            yield EavRow(object_id, "GO", go_id, evidence=evidence)
            symbol = columns[2].strip()
            if symbol and (object_id, symbol) not in seen_symbols:
                seen_symbols.add((object_id, symbol))
                yield EavRow(object_id, "Hugo", symbol)
            name = columns[9].strip()
            if name and object_id not in seen_names:
                seen_names.add(object_id)
                yield EavRow(object_id, NAME_TARGET, name, text=name)
