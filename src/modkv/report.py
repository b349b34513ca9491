"""Table emission: CSV or JSON rows, written atomically.

Every table carries a header row and a format_version column. Floats are
rendered with their shortest round-trip representation, so two runs with the
same inputs emit byte-identical files.
"""

from __future__ import annotations

import os

from .errors import ParameterError
from .files import atomic_file, canonical_json
from .trace import FORMAT_VERSION

FORMATS = ("csv", "json")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_field(text: str) -> str:
    """One CSV field under minimal quoting: quoted, with its quotes doubled,
    only if it holds the delimiter, the quote character, a line feed or a
    carriage return, so that `csv.reader` reads the row back whole."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _table_pieces(rows: list[dict], columns: list[str], fmt: str):
    """The table's bytes as a run of pieces: the header, then each row.

    Columns are emitted in the given order with format_version prepended;
    missing cells are empty/null. CSV is one line per piece. JSON is `[`,
    the rows' objects joined by `,`, then `]` and a newline, byte for byte
    the stdlib's rendering of the whole list. The format is checked at once,
    before any piece is made.
    """
    if fmt not in FORMATS:
        raise ParameterError(f"format must be one of {FORMATS}, got {fmt!r}")
    cols = ["format_version", *columns]

    def pieces():
        records = ({c: ({"format_version": FORMAT_VERSION, **row}).get(c) for c in cols}
                   for row in rows)
        if fmt == "csv":
            yield (",".join(_csv_field(c) for c in cols) + "\n").encode("utf-8")
            for rec in records:
                yield (",".join(_csv_field(_cell(v)) for v in rec.values()) + "\n").encode("utf-8")
            return
        yield b"["
        for k, rec in enumerate(records):
            if k:
                yield b","
            yield canonical_json(rec)
        yield b"]\n"

    return pieces()


def render_table(rows: list[dict], columns: list[str], fmt: str) -> bytes:
    """Render rows (in order) to CSV or JSON bytes (see _table_pieces)."""
    return b"".join(_table_pieces(rows, columns, fmt))


def write_table(path: str | os.PathLike, rows: list[dict], columns: list[str], fmt: str) -> None:
    """Write the rendered table atomically, one piece at a time, so that no
    more than one row's text is held at once."""
    pieces = _table_pieces(rows, columns, fmt)
    with atomic_file(path) as fh:
        fh.writelines(pieces)
