"""Table rendering tests."""

import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from modkv import ParameterError
from modkv.report import FORMAT_VERSION, render_table, write_table

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
