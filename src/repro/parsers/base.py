"""Parser protocol and registry.

Per the paper (Section 4.1), Parse is the only source-specific code needed
to integrate a new source: a parser reads a source's native flat file and
emits the uniform EAV format.  Everything downstream (Import) is generic.

A parser declares the GAM metadata of the source it produces (content and
structure classification) so the Import step can register the source
correctly.  Parsers register themselves under the source name via
:func:`register_parser`, and the import pipeline looks them up with
:func:`get_parser`.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.eav.model import EavRow
from repro.eav.store import EavDataset
from repro.gam.enums import SourceContent, SourceStructure
from repro.gam.errors import ParseError


class SourceParser(abc.ABC):
    """Base class for source-specific parsers.

    Subclasses set the class attributes and implement :meth:`parse_lines`.
    """

    #: Name of the source this parser produces (e.g. ``"LocusLink"``).
    source_name: str = ""
    #: GAM content classification of the source.
    content: SourceContent = SourceContent.OTHER
    #: GAM structure classification of the source.
    structure: SourceStructure = SourceStructure.FLAT
    #: Human-readable description of the accepted native format.
    format_description: str = ""

    def parse(self, path: str | Path, release: str | None = None) -> EavDataset:
        """Parse a native flat file into an EAV dataset."""
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            return self.parse_stream(handle, release=release)

    def parse_stream(
        self, lines: Iterable[str], release: str | None = None
    ) -> EavDataset:
        """Parse an iterable of native-format lines into an EAV dataset."""
        # Consume the rows before naming the dataset: parsers may adjust
        # their source metadata from in-file directives while parsing
        # (e.g. GenericTsvParser's ``#source:`` line).
        rows = list(self.parse_lines(lines))
        dataset = EavDataset(self.source_name, release=release)
        dataset.extend(rows)
        return dataset

    def parse_text(self, text: str, release: str | None = None) -> EavDataset:
        """Parse a native-format string into an EAV dataset."""
        return self.parse_stream(text.splitlines(keepends=True), release=release)

    @abc.abstractmethod
    def parse_lines(self, lines: Iterable[str]) -> Iterator[EavRow]:
        """Yield EAV rows from native-format lines."""

    # -- shared helpers ----------------------------------------------------

    @staticmethod
    def split_multi(value: str, separator: str = "|") -> list[str]:
        """Split a multi-valued field, dropping empty parts."""
        return [part.strip() for part in value.split(separator) if part.strip()]

    @staticmethod
    def require(condition: bool, message: str, line_number: int | None = None) -> None:
        """Raise :class:`ParseError` unless ``condition`` holds.

        The caller builds ``message`` even when the condition holds, so
        a per-line check with a formatted message is written as ``if not
        condition: raise ParseError(...)`` instead.
        """
        if not condition:
            raise ParseError(message, line_number=line_number)


_REGISTRY: dict[str, type[SourceParser]] = {}


def register_parser(parser_class: type[SourceParser]) -> type[SourceParser]:
    """Class decorator: register a parser under its source name."""
    if not parser_class.source_name:
        raise ValueError(f"{parser_class.__name__} does not set source_name")
    _REGISTRY[parser_class.source_name.lower()] = parser_class
    return parser_class


def get_parser(source_name: str) -> SourceParser:
    """Instantiate the registered parser for a source name."""
    parser_class = _REGISTRY.get(source_name.lower())
    if parser_class is None:
        known = ", ".join(sorted(_REGISTRY))
        raise ParseError(f"no parser registered for {source_name!r} (known: {known})")
    return parser_class()

def has_parser(source_name: str) -> bool:
    """Return True when a parser is registered for the source name."""
    return source_name.lower() in _REGISTRY


def registered_parsers() -> list[str]:
    """Source names with a registered parser, sorted alphabetically."""
    return sorted(parser.source_name for parser in _REGISTRY.values())
