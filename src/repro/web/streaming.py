"""Incremental JSON serialization of row-carrying HTTP responses.

:class:`StreamJson` carries a response as a small envelope dict plus
one *streamed field* (the row array) and serializes it incrementally:
rows are encoded one at a time, flat ones in small batches, and
coalesced into bounded chunks, so serialization memory is O(chunk)
regardless of the row count.  The edge sends the chunks as they come
(streamed) or joins them into one body with a ``Content-Length``
(buffered); one encoder renders both.

The encoder is **byte-identical** to ``json.dumps(payload, indent=2)``
over the same payload with its rows in a list — asserted by the edge
test suite — so clients, checksums and the `ETag` protocol see the same
bytes in either mode (``docs/http_api.md``).

With ``indent`` set, ``json.dumps`` runs CPython's pure-Python encoder.
Flat rows of scalars — every view row and every ``/map`` row — skip it:
json's C encoder renders :data:`FLAT_BATCH_ROWS` of them at a time with
the indented layout's cell separator, and only the brackets at the row
boundaries are laid out again.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from itertools import chain, islice

#: Target size of one yielded body chunk (bytes of UTF-8 text).
DEFAULT_CHUNK_BYTES = 32 * 1024

#: Flat rows encoded per call of the C encoder.
FLAT_BATCH_ROWS = 256

#: Exact types of a flat row and of the cells it may hold.  Subclasses
#: (an ``IntEnum``, a ``str`` subclass) are left to ``json.dumps``.
_FLAT_ROW_TYPES = frozenset({list, tuple})
_FLAT_CELL_TYPES = frozenset({str, type(None), bool, int, float})

#: Renders a list of flat rows on one line except that every separator,
#: between rows and between cells alike, is the cell separator of a row
#: at nesting level 2.  With ``indent`` unset, ``encode`` runs json's C
#: encoder (``c_make_encoder``) where CPython has it.
_FLAT_ROWS_ENCODER = json.JSONEncoder(
    check_circular=False, separators=(",\n      ", ": ")
)


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


def _all_flat(rows: list) -> bool:
    """True when every row is a non-empty list or tuple of exact scalar
    cells.

    Only such rows may take the C path: there a raw newline appears
    only in a separator (the encoder escapes newlines inside strings),
    and a row's closing ``]`` and opening ``[`` sit only on either side
    of the separator between two rows.  A nested cell would put them
    between cells too.  The checks run over the whole list at C speed.
    """
    return (
        _FLAT_ROW_TYPES.issuperset(map(type, rows))
        and all(rows)
        and _FLAT_CELL_TYPES.issuperset(map(type, chain.from_iterable(rows)))
    )


def _flat_rows_text(rows: list) -> str:
    """``_nested(row, 2)`` of each flat row, joined as array elements."""
    text = _FLAT_ROWS_ENCODER.encode(rows)
    # text == '[[c,\n      c],\n      [c]]'; keep the cells and lay out
    # the brackets around and between the rows.
    return (
        "[\n      "
        + text[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
        + "\n    ]"
    )


def _element_texts(rows: list) -> list[str]:
    """``_nested(row, 2)`` of each row, a run of flat rows as one text."""
    if _all_flat(rows):
        return [_flat_rows_text(rows)]
    if len(rows) == 1:
        return [_nested(rows[0], 2)]
    return [text for row in rows for text in _element_texts([row])]


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
        opening = "["
        rows = iter(self.rows)
        for row in rows:
            batch = [row]
            if _all_flat(batch):
                # A flat row opens a batch with the rows that follow it.
                batch.extend(islice(rows, FLAT_BATCH_ROWS - 1))
            for text in _element_texts(batch):
                yield opening + "\n    " + text
                opening = ","
        yield "[]" if opening == "[" else "\n  ]"

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
