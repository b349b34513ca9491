"""Table rendering tests."""

import csv
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from conftest import traced_peak
from modkv import ParameterError
from modkv.report import FORMAT_VERSION, FORMATS, render_table, write_table

ROWS = [
    {"name": "a", "mass": 0.5, "note": None, "flag": True},
    {"name": "b", "mass": 1.0, "note": "fine", "flag": False},
]
COLS = ["name", "mass", "note", "flag"]


class TestCsv:
    def test_header_row_with_format_version_first(self):
        text = render_table(ROWS, COLS, "csv").decode()
        header = text.splitlines()[0]
        assert header == "format_version,name,mass,note,flag"

    def test_reparses_with_the_stdlib_reader(self):
        text = render_table(ROWS, COLS, "csv").decode()
        parsed = list(csv.reader(io.StringIO(text)))
        assert len(parsed) == 3
        assert parsed[1] == ["1", "a", "0.5", "", "true"]
        assert parsed[2] == ["1", "b", "1.0", "fine", "false"]

    def test_cells_with_commas_are_quoted(self):
        rows = [{"name": "x", "note": "spilled 2, kept 3"}]
        text = render_table(rows, ["name", "note"], "csv").decode()
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[1] == ["1", "x", "spilled 2, kept 3"]

    def test_float_cells_round_trip(self):
        rows = [{"v": 0.1 + 0.2}]
        text = render_table(rows, ["v"], "csv").decode()
        cell = list(csv.reader(io.StringIO(text)))[1][1]
        assert float(cell) == 0.1 + 0.2


def cell(value):
    """A value spelled as the report spells it."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def stdlib_csv(rows, columns):
    """The table as `csv.writer` renders it: the default dialect's minimal
    quoting, "\n" line ends, cells spelled as the report spells them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cols = ["format_version", *columns]
    writer.writerow(cols)
    for row in rows:
        rec = {"format_version": FORMAT_VERSION, **row}
        writer.writerow([cell(rec.get(c)) for c in cols])
    return buf.getvalue().encode("utf-8")


def stdlib_json(rows, columns):
    cols = ["format_version", *columns]
    out = [{c: {"format_version": FORMAT_VERSION, **row}.get(c) for c in cols} for row in rows]
    return json.dumps(out, separators=(",", ":"), ensure_ascii=True).encode("ascii") + b"\n"


# Text from the characters quoting turns on, plus plain and non-ASCII ones.
tricky_text = st.text(alphabet=st.sampled_from(list(',"\r\n ;ab1é中\u2028\x00')), max_size=8)
cell_values = st.one_of(
    tricky_text, st.none(), st.booleans(), st.floats(), st.integers(), st.just(""),
)
tables = st.integers(1, 4).flatmap(lambda width: st.tuples(
    st.lists(tricky_text.filter(bool), min_size=width, max_size=width, unique=True),
    st.lists(st.lists(cell_values, min_size=width, max_size=width), max_size=5),
))


@settings(max_examples=300, deadline=None)
@given(tables)
def test_csv_and_json_match_the_stdlib_renderings(table):
    """CSV reads back as the rows it was given, and is byte for byte what
    `csv.writer` writes unless a cell holds a carriage return, which that
    writer leaves unquoted; JSON is the stdlib rendering."""
    columns, cells = table
    rows = [dict(zip(columns, values)) for values in cells]
    got = render_table(rows, columns, "csv")
    spelled = [["format_version", *columns]]
    spelled += [[str(FORMAT_VERSION), *map(cell, values)] for values in cells]
    assert list(csv.reader(io.StringIO(got.decode("utf-8"), newline=""))) == spelled
    if not any("\r" in text for line in spelled for text in line):
        assert got == stdlib_csv(rows, columns)
    assert render_table(rows, columns, "json") == stdlib_json(rows, columns)


def test_carriage_returns_are_quoted():
    got = render_table([{"trace": "a\rb", "x": 1}], ["trace", "x"], "csv")
    assert got == b'format_version,trace,x\n1,"a\rb",1\n'


class TestJson:
    def test_rows_carry_format_version(self):
        got = json.loads(render_table(ROWS, COLS, "json"))
        assert [r["format_version"] for r in got] == [1, 1]
        assert got[0]["note"] is None
        assert got[1]["flag"] is False

    def test_trailing_newline(self):
        assert render_table([], COLS, "json").endswith(b"\n")


def test_unknown_format_rejected():
    with pytest.raises(ParameterError):
        render_table(ROWS, COLS, "yaml")


def test_two_renders_are_byte_identical():
    assert render_table(ROWS, COLS, "csv") == render_table(ROWS, COLS, "csv")
    assert render_table(ROWS, COLS, "json") == render_table(ROWS, COLS, "json")


def test_write_table_is_atomic_and_complete(tmp_path):
    p = tmp_path / "out.csv"
    write_table(p, ROWS, COLS, "csv")
    assert p.read_bytes() == render_table(ROWS, COLS, "csv")
    assert not (tmp_path / "out.csv.tmp").exists()


@settings(max_examples=100, deadline=None)
@given(tables)
def test_streamed_tables_equal_the_rendered_ones(table):
    columns, cells = table
    rows = [dict(zip(columns, values)) for values in cells]
    with tempfile.TemporaryDirectory() as folder:
        for fmt in FORMATS:
            path = os.path.join(folder, f"t.{fmt}")
            write_table(path, rows, columns, fmt)
            with open(path, "rb") as fh:
                assert fh.read() == render_table(rows, columns, fmt)


class Unrenderable:
    """A cell that neither `str` nor the JSON encoder can spell."""

    def __str__(self):
        raise RuntimeError("cannot render this cell")


@pytest.mark.parametrize("fmt", FORMATS)
def test_a_row_that_fails_partway_leaves_the_old_file_and_no_temporary(tmp_path, fmt):
    path = tmp_path / f"out.{fmt}"
    write_table(path, ROWS, COLS, fmt)
    old = path.read_bytes()
    # Rows well past the writer's buffer go to the temporary file first.
    wide = [{"name": "w", "note": "x" * 4096}] * 64
    with pytest.raises((RuntimeError, TypeError)):
        write_table(path, wide + [{"name": Unrenderable()}] + ROWS, COLS, fmt)
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == [path.name]


def test_writing_a_wide_csv_holds_about_one_row(tmp_path):
    """A table as wide as a sweep's compare.csv, 110 rows of about 30 KB of
    warning text, is written without its whole text in memory: the rows
    exist before tracing starts, and writing them peaks far below the
    rendered size."""
    warning = ";".join(f"layer {l} head {h}: pinned proxy tokens exceed text allocation"
                       for l in range(4) for h in range(128))
    rows = [{"name": f"cell{k}", "mass": k / 110, "note": warning, "flag": k % 2 == 0}
            for k in range(110)]
    size = len(render_table(rows, COLS, "csv"))
    assert size >= 3_000_000
    _, peak = traced_peak(lambda: write_table(tmp_path / "wide.csv", rows, COLS, "csv"))
    assert (tmp_path / "wide.csv").stat().st_size == size
    # One row is about 30 KB of text and as much again encoded (68 KB
    # measured); rendering the whole table at once held its lines, their
    # join and the encoded bytes, three times the size.
    assert peak < size // 8
