"""Table emission: CSV or JSON rows, written atomically.

Every table carries a header row and a format_version column. Floats are
rendered with their shortest round-trip representation, so two runs with the
same inputs emit byte-identical files.
"""

from __future__ import annotations

import json
import os

from .errors import ParameterError
from .files import write_atomic
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


def render_table(rows: list[dict], columns: list[str], fmt: str) -> bytes:
    """Render rows (in order) to CSV or JSON bytes.

    Columns are emitted in the given order with format_version prepended;
    missing cells are empty/null.
    """
    if fmt not in FORMATS:
        raise ParameterError(f"format must be one of {FORMATS}, got {fmt!r}")
    cols = ["format_version", *columns]
    if fmt == "csv":
        lines = [",".join(_csv_field(c) for c in cols)]
        for row in rows:
            rec = {"format_version": FORMAT_VERSION, **row}
            lines.append(",".join(_csv_field(_cell(rec.get(c))) for c in cols))
        lines.append("")
        return "\n".join(lines).encode("utf-8")
    out = [
        {c: ({"format_version": FORMAT_VERSION, **row}).get(c) for c in cols}
        for row in rows
    ]
    return json.dumps(out, separators=(",", ":"), ensure_ascii=True).encode("ascii") + b"\n"


def write_table(path: str | os.PathLike, rows: list[dict], columns: list[str], fmt: str) -> None:
    write_atomic(path, render_table(rows, columns, fmt))
