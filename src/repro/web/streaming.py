"""Incremental JSON serialization for large HTTP responses.

The buffered serving path renders a whole response as one
``json.dumps(payload, indent=2)`` byte string — for a large mapping or
annotation view that second copy of the result can dwarf the result
itself.  :class:`StreamJson` instead carries the response as a small
envelope dict plus one *streamed field* (the row array) and serializes
it incrementally: rows are encoded one at a time and coalesced into
bounded chunks, so serialization memory is O(chunk) regardless of the
row count.

The encoder is **byte-identical** to ``json.dumps(payload, indent=2)``
over the materialized payload — asserted by the edge test suite — so
clients, checksums and the `ETag` protocol cannot tell the two paths
apart; only the server's memory profile differs (``docs/http_api.md``).

With ``indent`` set, ``json.dumps`` runs CPython's pure-Python encoder.
Flat rows of scalars — every view row and every ``/map`` row — skip it:
their cells go through json's C string encoder one at a time.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii

#: Target size of one yielded body chunk (bytes of UTF-8 text).
DEFAULT_CHUNK_BYTES = 32 * 1024


def _nested(value: object, level: int) -> str:
    """``json.dumps(value, indent=2)`` re-indented to nesting ``level``.

    ``json.dumps`` renders a nested value with indentation relative to
    its container; re-prefixing every continuation line of a standalone
    rendering with the container's pad produces exactly the same text.
    """
    text = json.dumps(value, indent=2)
    if "\n" not in text:
        return text
    return text.replace("\n", "\n" + "  " * level)


def _float_text(value: float) -> str:
    """A float as ``json.dumps`` spells it (``allow_nan`` on)."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


_CONSTANT_TEXT = {None: "null", True: "true", False: "false"}.__getitem__

#: Exact cell type -> the cell's JSON text.  Subclasses (an ``IntEnum``,
#: a ``str`` subclass) are left to ``json.dumps``.
_CELL_TEXT = {
    str: encode_basestring_ascii,
    type(None): _CONSTANT_TEXT,
    bool: _CONSTANT_TEXT,
    int: int.__repr__,
    float: _float_text,
}


def _row_text(row: object) -> str:
    """``_nested(row, 2)``: one element of the streamed array.

    A non-empty list or tuple of scalars is encoded cell by cell; every
    other row (an object-listing dict, nested values, an empty row) goes
    through ``json.dumps``.
    """
    if type(row) in (list, tuple) and row:
        try:
            cells = [_CELL_TEXT[type(cell)](cell) for cell in row]
        except KeyError:
            pass
        else:
            return "[\n      " + ",\n      ".join(cells) + "\n    ]"
    return _nested(row, 2)


class StreamJson:
    """A JSON object response whose ``stream_field`` value is an iterable
    serialized lazily.

    ``payload`` holds every envelope field in response order; the value
    stored under ``stream_field`` is ignored (conventionally ``None``)
    and replaced by ``rows`` during encoding.  ``row_count_hint`` lets
    the edge decide buffered-versus-streamed without consuming the rows.
    """

    __slots__ = ("payload", "stream_field", "rows", "row_count_hint")

    def __init__(
        self,
        payload: dict,
        stream_field: str,
        rows: Iterable,
        row_count_hint: int | None = None,
    ) -> None:
        if stream_field not in payload:
            raise ValueError(f"stream field {stream_field!r} not in payload")
        self.payload = payload
        self.stream_field = stream_field
        self.rows = rows
        self.row_count_hint = row_count_hint

    def materialize(self) -> dict:
        """The plain payload dict for the buffered path (rows realized)."""
        self.payload[self.stream_field] = list(self.rows)
        return self.payload

    def iter_text(self) -> Iterator[str]:
        """Text fragments forming the indent-2 rendering of the payload."""
        yield "{"
        first = True
        for name, value in self.payload.items():
            yield ("" if first else ",") + "\n  " + json.dumps(name) + ": "
            first = False
            if name == self.stream_field:
                yield from self._iter_array()
            else:
                yield _nested(value, 1)
        yield "\n}" if not first else "}"

    def _iter_array(self) -> Iterator[str]:
        first = True
        for row in self.rows:
            yield ("[" if first else ",") + "\n    " + _row_text(row)
            first = False
        yield "[]" if first else "\n  ]"

    def encode(self, chunk_bytes: int = DEFAULT_CHUNK_BYTES) -> Iterator[bytes]:
        """UTF-8 body chunks of roughly ``chunk_bytes`` each."""
        return encode_chunks(self.iter_text(), chunk_bytes)


def encode_chunks(
    parts: Iterable[str], chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> Iterator[bytes]:
    """Coalesce text fragments into encoded chunks of bounded size.

    Row-at-a-time fragments are far too small to hand to a socket one by
    one; buffering to ``chunk_bytes`` keeps syscall counts sane while
    bounding resident serialization state.
    """
    buffer: list[str] = []
    size = 0
    for part in parts:
        buffer.append(part)
        size += len(part)
        if size >= chunk_bytes:
            yield "".join(buffer).encode("utf-8")
            buffer.clear()
            size = 0
    if buffer:
        yield "".join(buffer).encode("utf-8")
