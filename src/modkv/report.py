"""Table emission: CSV or JSON rows, written atomically.

Every table carries a header row and a format_version column. Floats are
rendered with their shortest round-trip representation, so two runs with the
same inputs emit byte-identical files.
"""

from __future__ import annotations

import csv
import io
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


def render_table(rows: list[dict], columns: list[str], fmt: str) -> bytes:
    """Render rows (in order) to CSV or JSON bytes.

    Columns are emitted in the given order with format_version prepended;
    missing cells are empty/null.
    """
    if fmt not in FORMATS:
        raise ParameterError(f"format must be one of {FORMATS}, got {fmt!r}")
    cols = ["format_version", *columns]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            rec = {"format_version": FORMAT_VERSION, **row}
            writer.writerow([_cell(rec.get(c)) for c in cols])
        return buf.getvalue().encode("utf-8")
    out = [
        {c: ({"format_version": FORMAT_VERSION, **row}).get(c) for c in cols}
        for row in rows
    ]
    return json.dumps(out, separators=(",", ":"), ensure_ascii=True).encode("ascii") + b"\n"


def write_table(path: str | os.PathLike, rows: list[dict], columns: list[str], fmt: str) -> None:
    write_atomic(path, render_table(rows, columns, fmt))
