"""Parser for GeneOntology in (simplified) OBO format.

Accepted format::

    format-version: 1.2

    [Term]
    id: GO:0009116
    name: nucleoside metabolism
    namespace: biological_process
    is_a: GO:0009117 ! nucleotide metabolism

Emitted EAV rows:

* ``Name`` rows carrying each term's name,
* ``IS_A`` rows linking a term to its parent terms (the taxonomy
  structure, imported as an intra-source Is-a relationship),
* ``CONTAINS`` rows linking each namespace partition (e.g.
  ``GO.BiologicalProcess``) to its member terms, imported as a Contains
  relationship between GO and the partition source (paper Section 3,
  structural relationships).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.eav.model import CONTAINS_TARGET, IS_A_TARGET, NAME_TARGET, EavRow
from repro.gam.enums import SourceContent, SourceStructure
from repro.gam.errors import ParseError
from repro.parsers.base import SourceParser, register_parser

#: OBO namespace label -> partition source name.
_NAMESPACE_PARTITIONS = {
    "biological_process": "GO.BiologicalProcess",
    "molecular_function": "GO.MolecularFunction",
    "cellular_component": "GO.CellularComponent",
}


@register_parser
class GoOboParser(SourceParser):
    """Parse GO terms from OBO stanzas into EAV rows."""

    source_name = "GO"
    content = SourceContent.OTHER
    structure = SourceStructure.NETWORK
    format_description = "OBO 1.2 [Term] stanzas with id/name/namespace/is_a"

    def parse_lines(self, lines: Iterable[str]) -> Iterator[EavRow]:
        term_id: str | None = None
        in_term = False
        pending: list[EavRow] = []
        for line_number, raw_line in enumerate(lines, start=1):
            line = raw_line.strip()
            if line.startswith("["):
                yield from self._flush(pending)
                in_term = line == "[Term]"
                term_id = None
                continue
            if not in_term or not line or line.startswith("!"):
                continue
            key, sep, value = line.partition(":")
            if not sep:
                continue
            key = key.strip()
            value = value.strip()
            if key == "id":
                self.require(bool(value), "empty term id", line_number)
                term_id = value
            elif key == "is_obsolete" and value.lower() == "true":
                pending.clear()
                in_term = False
                term_id = None
            elif term_id is not None:
                pending.extend(self._term_rows(term_id, key, value))
        yield from self._flush(pending)

    @staticmethod
    def _flush(pending: list[EavRow]) -> Iterator[EavRow]:
        yield from pending
        pending.clear()

    def _term_rows(self, term_id: str, key: str, value: str) -> Iterator[EavRow]:
        if key == "name":
            yield EavRow(term_id, NAME_TARGET, value, text=value)
        elif key == "namespace":
            partition = _NAMESPACE_PARTITIONS.get(value.lower())
            if partition is not None:
                yield EavRow(partition, CONTAINS_TARGET, term_id)
        elif key == "is_a":
            parent = value.split("!", 1)[0].strip()
            if not parent:
                raise ParseError(f"empty is_a parent for {term_id}")
            yield EavRow(term_id, IS_A_TARGET, parent)
        elif key == "xref":
            # Cross-references like "xref: Enzyme:2.4.2.7".
            target, sep, accession = value.partition(":")
            if sep and accession.strip():
                yield EavRow(term_id, target.strip(), accession.strip())
