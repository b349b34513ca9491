"""Trace model and container tests: validation, round-trips, error reporting."""

import contextlib
import io
import json
import multiprocessing
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modkv.trace as trace_module
from conftest import dense, make_trace, uniform_rows
from modkv import (
    AttentionTrace,
    BaselineConfig,
    BaselineKind,
    FormatError,
    Modality,
    ModkvError,
    ParameterError,
    PolicyConfig,
    ProxyConfig,
    SyntheticTraceSpec,
    TraceHeader,
    ValidationError,
    generate_synthetic,
    head_text_share,
    load_trace,
    proxy_importance,
    proxy_importance_matrix,
    save_trace,
    simulate,
)
from modkv.trace import (
    BINARY_MAGIC,
    trace_from_binary,
    trace_from_text,
    trace_to_binary,
    trace_to_text,
    visual_mask,
)
from oracles import reference_trace_from_text, reference_trace_to_text


class TestValidation:
    def test_minimal_trace_is_valid(self):
        make_trace([[1.0], [0.5, 0.5]], labels="tt")

    def test_row_sum_violation_names_coordinates(self):
        t = make_trace([[1.0], [0.5, 0.6]], labels="tt", validate=False)
        with pytest.raises(ValidationError) as err:
            t.validate()
        assert "row sum 1.1 at (0, 0, 1)" in str(err.value)

    def test_negative_score_rejected(self):
        t = make_trace([[1.0], [1.5, -0.5]], labels="tt", validate=False)
        with pytest.raises(ValidationError, match="negative"):
            t.validate()

    def test_nan_score_rejected(self):
        t = make_trace([[1.0], [0.5, 0.5], [0.25, 0.25, 0.5]], labels="ttt",
                       tile=(2, 2), validate=False)
        t.prefill[1, 0, 2, 1] = np.nan
        with pytest.raises(ValidationError, match=r"NaN score at \(1, 0, 2\)"):
            t.validate()

    def test_nan_decode_score_rejected(self):
        t = make_trace([[1.0], [0.5, 0.5]], labels="tt", tile=(1, 2),
                       decode=[[0.5, 0.5], [0.5, 0.25, 0.25]], validate=False)
        t.decode[1][0, 1, 2] = np.nan
        with pytest.raises(ValidationError, match=r"NaN score at decode step 1, \(0, 1\)"):
            t.validate()

    def test_causality_violation_rejected(self):
        t = make_trace([[1.0], [0.5, 0.5]], labels="tt", validate=False)
        t.prefill[0, 0, 0, 1] = 0.25
        t.prefill[0, 0, 0, 0] = 0.75
        with pytest.raises(ValidationError, match="causality"):
            t.validate()

    def test_prefill_shape_mismatch(self):
        t = make_trace([[1.0], [0.5, 0.5]], labels="tt")
        t.prefill = t.prefill[:, :, :1, :]
        with pytest.raises(ValidationError, match="shape"):
            t.validate()

    def test_decode_step_count_mismatch(self):
        t = make_trace([[1.0], [0.5, 0.5]], labels="tt", decode=[[0.5, 0.5]])
        t.decode = []
        with pytest.raises(ValidationError, match="decode"):
            t.validate()

    def test_decode_row_sum_checked(self):
        t = make_trace(
            [[1.0], [0.5, 0.5]], labels="tt", decode=[[0.9, 0.3]], validate=False
        )
        with pytest.raises(ValidationError, match="decode step 0"):
            t.validate()

    def test_decode_shape_checked(self):
        t = make_trace([[1.0], [0.5, 0.5]], labels="tt", decode=[[0.5, 0.5]])
        t.decode[0] = t.decode[0][:, :, :1]
        with pytest.raises(ValidationError, match="decode step 0"):
            t.validate()

    def test_header_rejects_empty_dimensions(self):
        with pytest.raises(ValidationError):
            TraceHeader(0, 1, 2, 0, [False, False])
        with pytest.raises(ValidationError):
            TraceHeader(1, 1, 2, -1, [False, False])

    def test_label_length_checked(self):
        with pytest.raises(ValidationError):
            TraceHeader(1, 1, 3, 0, [False, False])


class TestVisualMask:
    def test_accepts_strings_enums_and_bools(self):
        want = np.array([False, True, False])
        assert np.array_equal(visual_mask(["text", "visual", "text"]), want)
        assert np.array_equal(
            visual_mask([Modality.TEXT, Modality.VISUAL, Modality.TEXT]), want
        )
        assert np.array_equal(visual_mask(want), want)


def tiny_document():
    return {
        "format_version": 1,
        "header": {"L": 1, "H": 1, "n": 2, "T": 0,
                   "modality_labels": ["text", "text"]},
        "prefill": [[[[1.0], [0.5, 0.5]]]],
        "decode": [],
    }


# Mutations of tiny_document() and a fragment of the error each must raise.
MALFORMED = [
    (lambda o: o.pop("format_version"), "format_version"),
    (lambda o: o.update(format_version=99), "format_version"),
    (lambda o: o["header"].pop("n"), "header.n"),
    (lambda o: o["header"].update(n="2"), "header.n"),
    (lambda o: o["header"].update(modality_labels=["text"]), "modality_labels"),
    (lambda o: o["header"].update(modality_labels=["text", "image"]), "image"),
    (lambda o: o["header"].update(modality_labels=["text", "visu\u00e9l"]), "visu\u00e9l"),
    (lambda o: o["prefill"][0][0].__setitem__(1, [0.5]), "row 1: expected 2"),
    (lambda o: o["prefill"][0][0].__setitem__(0, ["1.0"]), "prefill[0][0]: scores must be numbers"),
    (lambda o: o["prefill"][0][0][1].__setitem__(1, "0.5"), "prefill[0][0]: scores must be numbers"),
    (lambda o: o["prefill"][0][0].__setitem__(0, [True]), "prefill[0][0]: scores must be numbers"),
    (lambda o: (o["header"].update(T=1), o.update(decode=[[[[True, 0]]]])),
     "decode[0][0][0]: scores must be numbers"),
    # JSON integers have no limit; this one is too large for any float.
    (lambda o: o["prefill"][0][0][1].__setitem__(1, 10 ** 400), "prefill[0][0]: score out of range"),
    (lambda o: (o["header"].update(T=1), o.update(decode=[[[[10 ** 400, 0]]]])),
     "decode[0][0][0]: score out of range"),
    (lambda o: o["prefill"].pop(), "prefill"),
    (lambda o: o.update(decode=[[]]), "decode"),
    # This one fits a float64 but not a float32.
    (lambda o: (o["header"].update(H=2), o["prefill"][0].append([[1.0], [1e39, 0.5]])),
     "prefill[0][1]: score out of range"),
    (lambda o: (o["header"].update(T=2), o.update(decode=[[[[0.5, 0.5]]], [[[1e39, 0, 0]]]])),
     "decode[1][0][0]: score out of range"),
]


class TestTextContainer:
    def test_save_load_structural_equality(self, tmp_path, mixed_trace):
        p = tmp_path / "t.json"
        save_trace(mixed_trace, p)
        assert load_trace(p) == mixed_trace

    def test_two_saves_byte_identical(self, mixed_trace):
        assert trace_to_text(mixed_trace) == trace_to_text(mixed_trace)

    def test_canonical_round_trip_byte_identical(self, tmp_path, mixed_trace):
        p = tmp_path / "t.json"
        save_trace(mixed_trace, p)
        first = p.read_bytes()
        save_trace(load_trace(p), p)
        assert p.read_bytes() == first

    def test_noncanonical_input_is_canonicalized(self, tmp_path):
        """Whitespace and over-long decimals collapse to the canonical form."""
        doc = {
            "format_version": 1,
            "header": {"L": 1, "H": 1, "n": 2, "T": 0,
                       "modality_labels": ["text", "visual"]},
            "prefill": [[[[1.0], [0.30000000000001, 0.7000000000000002]]]],
            "decode": [],
        }
        p = tmp_path / "loose.json"
        p.write_text(json.dumps(doc, indent=2))
        t = load_trace(p)
        expected = make_trace([[1.0], [0.3, 0.7]], labels="tv")
        assert t == expected
        save_trace(t, p)
        assert p.read_bytes() == trace_to_text(expected)

    def test_decode_lengths_follow_step_index(self):
        spec = SyntheticTraceSpec(1, 2, 5, 3, skew=1.0, modality_mix=0.4,
                                  head_preference_bias=0.5, seed=0)
        t = generate_synthetic(spec)
        rt = trace_from_text(trace_to_text(t))
        assert [d.shape[2] for d in rt.decode] == [5, 6, 7]
        assert rt == t

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mutate, fragment", MALFORMED)
    def test_malformed_documents_name_the_field(self, mutate, fragment):
        doc = tiny_document()
        mutate(doc)
        with pytest.raises(FormatError) as err:
            trace_from_text(json.dumps(doc).encode())
        assert fragment in str(err.value)

    def test_garbage_bytes_rejected(self):
        with pytest.raises(FormatError):
            trace_from_text(b"not json at all")
        with pytest.raises(FormatError):
            trace_from_text(b"[1, 2, 3]")


# ---------------------------------------------------------------------------
# the streamed text loader against the whole-document parse


def render(doc, style):
    """A document as UTF-8 bytes: compact, indented or with spaced separators."""
    if style == "compact":
        text = json.dumps(doc, separators=(",", ":"), ensure_ascii=False)
    elif style == "indented":
        text = json.dumps(doc, indent=2, ensure_ascii=False)
    else:
        text = json.dumps(doc, separators=(", ", ": "), ensure_ascii=False)
    return text.encode("utf-8")


def outcome(load, data, rows):
    """The trace `load` returns, or the class of the modkv error it raises."""
    try:
        return load(data, rows=rows)
    except ModkvError as exc:
        return type(exc)


@pytest.fixture(params=[None, 1, 7], ids=["default_chunk", "chunk1", "chunk7"])
def chunk(request, monkeypatch):
    """The text loader's read size: its default, or sizes that split numbers,
    field names and multi-byte characters."""
    if request.param is not None:
        monkeypatch.setattr(trace_module, "_TEXT_CHUNK", request.param)
    return request.param


@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 2),
    n=st.integers(1, 6),
    steps=st.integers(0, 2),
    seed=st.integers(0, 2 ** 32 - 1),
    style=st.sampled_from(["compact", "indented", "spaced"]),
    target=st.sampled_from(["none", "prefill", "decode"]),
    value=st.sampled_from([-0.5, 2.0, float("nan"), float("-inf"), "x", "0.25", [0.5], None,
                           True, False, 0.25]),
    where=st.integers(0, 2 ** 16),
)
def test_streamed_load_matches_whole_document_parse(layers, heads, n, steps, seed, style,
                                                    target, value, where):
    spec = SyntheticTraceSpec(layers, heads, n, steps, skew=1.2, modality_mix=0.5,
                              head_preference_bias=0.3, seed=seed)
    doc = json.loads(trace_to_text(generate_synthetic(spec)))
    l, hd = where % layers, where // layers % heads
    if target == "prefill":
        row = doc["prefill"][l][hd][where % n]
        row[where % len(row)] = value
    elif target == "decode" and steps:
        vec = doc["decode"][where % steps][l][hd]
        vec[where % len(vec)] = value
    data = render(doc, style)
    for rows in (None, 1, n):
        want = outcome(reference_trace_from_text, data, rows)
        for chunk in (trace_module._TEXT_CHUNK, 7):
            with mock.patch.object(trace_module, "_TEXT_CHUNK", chunk):
                got = outcome(trace_from_text, data, rows)
            if isinstance(want, AttentionTrace):
                assert isinstance(got, AttentionTrace) and got == want
            else:
                assert got is want


class TestStreamedTextFile:
    def test_canonical_and_indented_documents_load(self, chunk, mixed_trace):
        canonical = trace_to_text(mixed_trace)
        doc = json.loads(canonical)
        # Unknown fields are skipped: a number that a chunk can split, and
        # multi-byte characters.
        doc["count"] = 1234567
        doc["note"] = "na\u00efve \u2713 \u89c6\u89c9"
        for data in (canonical, render(doc, "indented")):
            assert trace_from_text(data) == mixed_trace
            assert trace_from_text(data, rows=8) == dense(mixed_trace, 8)

    def test_a_number_split_by_a_chunk_is_read_whole(self, chunk):
        trace = make_trace([[1.0], [0.5, 0.5]], labels="tv")
        body = trace_to_text(trace).rstrip(b"\n}")
        for pad in range(32):
            # Padding moves the number across the chunk boundaries.
            data = body + b"," + b" " * pad + b'"count":1234567}'
            assert trace_from_text(data) == trace

    @pytest.mark.parametrize("mutate, fragment", MALFORMED)
    def test_malformed_documents_fail_alike_at_any_chunk_size(self, chunk, mutate, fragment):
        doc = tiny_document()
        mutate(doc)
        with pytest.raises(FormatError) as err:
            trace_from_text(render(doc, "compact"))
        assert fragment in str(err.value)

    def test_every_truncation_is_a_format_error(self, chunk):
        trace = make_trace([[1.0], [0.5, 0.5]], labels="tv", decode=[[0.5, 0.5]])
        # The document is complete without its trailing newline.
        body = trace_to_text(trace).rstrip(b"\n")
        assert trace_from_text(body) == trace
        for end in range(len(body)):
            with pytest.raises(FormatError):
                trace_from_text(body[:end])

    @pytest.mark.parametrize("edit, fragment", [
        (lambda d: {k: d[k] for k in ("format_version", "prefill", "header", "decode")},
         "header must come before prefill"),
        (lambda d: {k: d[k] for k in ("format_version", "decode", "header", "prefill")},
         "header must come before decode"),
    ])
    def test_header_must_come_first(self, edit, fragment):
        data = render(edit(tiny_document()), "compact")
        assert isinstance(reference_trace_from_text(data), AttentionTrace)
        with pytest.raises(FormatError, match=fragment):
            trace_from_text(data)

    @pytest.mark.parametrize("old, new, fragment", [
        (b'"decode":[]', b'"decode":[],"decode":[]', "duplicate field decode"),
        (b'"n":2,', b'"n":2,"n":2,', "duplicate field n"),
        (b"]]]],", b"]]]],\"prefill\":[],", "duplicate field prefill"),
    ])
    def test_duplicate_fields_rejected(self, old, new, fragment):
        data = render(tiny_document(), "compact")
        assert old in data
        with pytest.raises(FormatError, match=fragment):
            trace_from_text(data.replace(old, new, 1))

    @pytest.mark.parametrize("extra", [b"x", b"{}", b"\n}", b" 1"])
    def test_trailing_data_rejected(self, extra):
        data = trace_to_text(make_trace([[1.0], [0.5, 0.5]], labels="tv"))
        with pytest.raises(FormatError, match="after the top-level object"):
            trace_from_text(data + extra)

    def test_byte_order_mark_rejected(self):
        data = trace_to_text(make_trace([[1.0], [0.5, 0.5]], labels="tv"))
        with pytest.raises(FormatError):
            trace_from_text(b"\xef\xbb\xbf" + data)


# ---------------------------------------------------------------------------
# the text writer against the whole-document render


def see_cpus(monkeypatch, count):
    """Make the text writer and loader see `count` CPUs: with one they render
    or parse every score in this process, with two in a pool of forked
    workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def spelling_trace(n):
    """A valid n-row trace whose rows hold -0.0 beside 0.0, the smallest
    subnormal and 1.0, each repeated across rows, beside per-row values."""
    tiny = np.float32(1e-45)
    rows = [[1.0], [-0.0, 1.0], [0.0, -0.0, 1.0]]
    for i in range(3, n):
        if i % 2:
            rows.append([-0.0, 0.0, tiny] + [1.0 / (i - 2)] * (i - 2))
        else:
            rows.append([0.0, tiny, -0.0] + [0.0] * (i - 3) + [1.0])
    decode = [rows[-1], [tiny, -0.0] + [1.0 / (n - 1)] * (n - 1)]
    return make_trace(rows, labels="tv" * (n // 2) + "t" * (n % 2), decode=decode,
                      tile=(1, 2))


class TestTextWriter:
    @pytest.mark.parametrize("count", [1, 2], ids=["serial", "pool"])
    def test_heads_split_into_tasks_equal_the_whole_document(self, monkeypatch, count):
        see_cpus(monkeypatch, count)
        # 2**16 // 700 = 93 rows a task: eight tasks a head.
        trace = spelling_trace(700)
        text = trace_to_text(trace)
        assert text == reference_trace_to_text(trace)
        assert b"[-0.0,0.0,1.401298464324817e-45," in text and b",1.0]" in text
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("count", [1, 2], ids=["serial", "pool"])
    def test_generated_trace_equals_the_whole_document(self, monkeypatch, count):
        see_cpus(monkeypatch, count)
        spec = SyntheticTraceSpec(1, 1, 700, 2, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=0.3, seed=5)
        trace = generate_synthetic(spec)
        assert trace_to_text(trace) == reference_trace_to_text(trace)

    def test_small_traces_start_no_pool(self, monkeypatch, mixed_trace):
        see_cpus(monkeypatch, 2)
        started = []
        monkeypatch.setattr(multiprocessing, "get_context", started.append)
        assert trace_to_text(mixed_trace) == reference_trace_to_text(mixed_trace)
        assert started == []


@settings(max_examples=20, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 2),
    n=st.integers(1, 9),
    steps=st.integers(0, 2),
    special=st.sampled_from([0.0, 0.1, 0.5, float("nan"), float("inf"), 3.4e38]),
    seed=st.integers(0, 2 ** 32 - 1),
    task_scores=st.sampled_from([1, 5, 2 ** 16]),
    count=st.integers(1, 2),
)
def test_text_writer_equals_the_whole_document(layers, heads, n, steps, special, seed,
                                               task_scores, count):
    """Any scores, spelled alike whatever the task size and CPU count. The
    rows mix a few special values, each repeated, with random float32 values."""
    rng = np.random.default_rng(seed)
    spellings = np.array([special, -0.0, 1e-45, 1.0], dtype=np.float32)

    def scores(*shape):
        random = rng.random(shape, dtype=np.float32)
        return np.where(rng.random(shape) < 0.5, rng.choice(spellings, shape), random)

    header = TraceHeader(layers, heads, n, steps, rng.random(n) < 0.5)
    prefill = np.where(np.tri(n, dtype=bool), scores(layers, heads, n, n), 0)
    decode = [scores(layers, heads, n + s) for s in range(steps)]
    trace = AttentionTrace(header, prefill, decode)
    with mock.patch.object(trace_module, "_TEXT_TASK_SCORES", task_scores), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(count))):
        assert trace_to_text(trace) == reference_trace_to_text(trace)


# ---------------------------------------------------------------------------
# the text loader's pool against its serial parse


@pytest.fixture(params=[1, 2], ids=["serial", "pool"])
def loader_cpus(request, monkeypatch):
    """The CPUs the text loader sees, with tasks of one head each, so that a
    file of two heads or more loads in a pool when it sees two."""
    see_cpus(monkeypatch, request.param)
    monkeypatch.setattr(trace_module, "_TEXT_TASK_SCORES", 1)
    return request.param


@contextlib.contextmanager
def heads_parsed_here():
    """Yield a list of the (layer, head) of each prefill head parsed in this
    process. A pool's workers parse theirs in their own."""
    parsed = []
    read_head = trace_module._read_head

    def spy(reader, l, hd, n, tri):
        parsed.append((l, hd))
        return read_head(reader, l, hd, n, tri)

    with mock.patch.object(trace_module, "_read_head", spy):
        yield parsed


def file_outcome(path, rows, cpus):
    """What loading `path` gives when the loader sees `cpus` CPUs: the trace,
    or the class and message of the modkv error it raises."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
        try:
            return load_trace(path, rows=rows)
        except ModkvError as exc:
            return type(exc), str(exc)


def two_head_document():
    """tiny_document() with a second head: two tasks of one head each."""
    doc = tiny_document()
    doc["header"]["H"] = 2
    doc["prefill"][0].append([[1.0], [0.25, 0.75]])
    return doc


# Faults put in the last head of mixed_trace, each as an edit of its rows.
LAST_HEAD_FAULTS = {
    "negative": lambda rows: rows[20].__setitem__(0, -0.25),
    "row_sum": lambda rows: rows[20].__setitem__(0, rows[20][0] + 0.5),
    "nan": lambda rows: rows[20].__setitem__(0, float("nan")),
    "string": lambda rows: rows[20].__setitem__(3, "0.5"),
    "non_ascii": lambda rows: rows[20].__setitem__(3, "\u00e9"),
    "list": lambda rows: rows[20].__setitem__(3, [0.5]),
    "float32_overflow": lambda rows: rows[20].__setitem__(3, 1e39),
    "short_row": lambda rows: rows[20].pop(),
    "missing_row": lambda rows: rows.pop(),
}


class TestPooledTextLoad:
    def test_documents_load_alike(self, tmp_path, chunk, loader_cpus, mixed_trace):
        canonical = trace_to_text(mixed_trace)
        doc = json.loads(canonical)
        # Multi-byte text before the prefill: its file offset counts bytes.
        doc = {"format_version": 1, "header": doc["header"],
               "note": "na\u00efve \u2713 \u89c6\u89c9", "count": 1234567,
               "prefill": doc["prefill"], "decode": doc["decode"]}
        path = tmp_path / "t.json"
        with heads_parsed_here() as parsed:
            for data in (canonical, render(doc, "compact"), render(doc, "indented")):
                path.write_bytes(data)
                assert load_trace(path) == mixed_trace
                assert load_trace(path, rows=8) == dense(mixed_trace, 8)
        assert len(parsed) == (0 if loader_cpus == 2 else 6 * 4)

    @pytest.mark.parametrize("mutate", [mutate for mutate, _ in MALFORMED])
    def test_malformed_documents_fail_alike(self, tmp_path, chunk, monkeypatch, mutate):
        monkeypatch.setattr(trace_module, "_TEXT_TASK_SCORES", 1)
        doc = two_head_document()
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_bytes(render(doc, "compact"))
        for rows in (None, 1):
            serial = file_outcome(path, rows, 1)
            assert serial[0] is FormatError
            assert file_outcome(path, rows, 2) == serial

    @pytest.mark.parametrize("style", ["compact", "indented"])
    @pytest.mark.parametrize("fault", list(LAST_HEAD_FAULTS))
    def test_a_fault_in_the_last_head_fails_alike(self, tmp_path, monkeypatch, mixed_trace,
                                                  fault, style):
        monkeypatch.setattr(trace_module, "_TEXT_TASK_SCORES", 1)
        doc = json.loads(trace_to_text(mixed_trace))
        LAST_HEAD_FAULTS[fault](doc["prefill"][1][1])
        path = tmp_path / "bad.json"
        path.write_bytes(render(doc, style))
        for rows in (None, 8):
            serial = file_outcome(path, rows, 1)
            assert isinstance(serial, tuple)
            assert "(1, 1, " in serial[1] or "prefill[1][1]" in serial[1]
            assert file_outcome(path, rows, 2) == serial

    def test_the_first_of_two_faults_is_the_one_reported(self, tmp_path, monkeypatch,
                                                          mixed_trace):
        """A bad score in the first head, which a worker parses, comes before
        a head too many in the last layer, which this process walks past."""
        monkeypatch.setattr(trace_module, "_TEXT_TASK_SCORES", 1)
        doc = json.loads(trace_to_text(mixed_trace))
        doc["prefill"][0][0][5][1] = -0.5
        doc["prefill"][1].append(doc["prefill"][1][0])
        path = tmp_path / "bad.json"
        path.write_bytes(render(doc, "compact"))
        for cpus in (1, 2):
            assert file_outcome(path, 8, cpus) == (
                ValidationError, "negative score at (0, 0, 5)")

    def test_a_file_cut_in_its_last_head_fails_alike(self, tmp_path, monkeypatch,
                                                     mixed_trace):
        monkeypatch.setattr(trace_module, "_TEXT_TASK_SCORES", 1)
        data = trace_to_text(mixed_trace)
        end = data.index(b"]]]]") + 4  # the end of the prefill
        path = tmp_path / "cut.json"
        for cut in (end - 1, end - 3, end - 40):
            path.write_bytes(data[:cut])
            serial = file_outcome(path, 8, 1)
            assert serial[0] is FormatError
            assert file_outcome(path, 8, 2) == serial


def test_reader_offsets_count_bytes_at_any_chunk_size(monkeypatch):
    """The byte offset the pool's spans start from: the bytes read, less the
    pending text's and those the UTF-8 decoder holds back."""
    text = '{"\u00e9t\u00e9": 1, "prefill": [[1]], "\u2713": "\u89c6\u89c9", "x": []}'
    data = text.encode("utf-8")
    for size in range(1, len(data) + 1):
        monkeypatch.setattr(trace_module, "_TEXT_CHUNK", size)
        reader = trace_module._JsonReader(io.BytesIO(data))
        for _ in reader.fields("object expected"):
            reader.peek()
            at = reader.position()
            assert reader.offset() == len(text[:at].encode("utf-8"))
            reader.value()
        reader.end()


@settings(max_examples=25, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 3),
    n=st.integers(1, 6),
    steps=st.integers(0, 2),
    seed=st.integers(0, 2 ** 32 - 1),
    style=st.sampled_from(["compact", "indented", "spaced"]),
    target=st.sampled_from(["none", "prefill", "decode"]),
    value=st.sampled_from([-0.5, 2.0, float("nan"), float("-inf"), 1e39, "x", "\u00e9",
                           [0.5], None, True, 0.25]),
    where=st.integers(0, 2 ** 16),
)
def test_pooled_load_matches_whole_document_parse(tmp_path_factory, layers, heads, n, steps,
                                                  seed, style, target, value, where):
    """A file loads in a pool of one-head tasks as it loads here, and as the
    whole-document parse reads it."""
    spec = SyntheticTraceSpec(layers, heads, n, steps, skew=1.2, modality_mix=0.5,
                              head_preference_bias=0.3, seed=seed)
    doc = json.loads(trace_to_text(generate_synthetic(spec)))
    l, hd = where % layers, where // layers % heads
    if target == "prefill":
        row = doc["prefill"][l][hd][where % n]
        row[where % len(row)] = value
    elif target == "decode" and steps:
        vec = doc["decode"][where % steps][l][hd]
        vec[where % len(vec)] = value
    data = render(doc, style)
    path = tmp_path_factory.mktemp("pooled") / "t.json"
    path.write_bytes(data)
    with mock.patch.object(trace_module, "_TEXT_TASK_SCORES", 1):
        for rows in (None, 1, n):
            want = outcome(reference_trace_from_text, data, rows)
            serial = file_outcome(path, rows, 1)
            with heads_parsed_here() as parsed:
                pooled = file_outcome(path, rows, 2)
            if isinstance(want, AttentionTrace):
                assert serial == want and pooled == want
                # Two heads or more: the pool parsed them all.
                assert len(parsed) == (0 if layers * heads > 1 else 1)
            else:
                assert serial[0] is want
                assert pooled == serial


class TestTextLoaderPool:
    @pytest.fixture(scope="class")
    def large(self, tmp_path_factory):
        """A 1x2x400 trace, 80,200 scores a head: two tasks of one head, and
        its text."""
        spec = SyntheticTraceSpec(1, 2, 400, 1, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=0.3, seed=4)
        trace = generate_synthetic(spec)
        return trace, trace_to_text(trace)

    @pytest.fixture
    def started(self, monkeypatch):
        """The start method of each multiprocessing context asked for."""
        methods = []
        get_context = multiprocessing.get_context

        def spy(method=None):
            methods.append(method)
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        return methods

    def test_a_large_file_loads_in_a_pool(self, tmp_path, monkeypatch, large, started):
        trace, data = large
        path = tmp_path / "t.json"
        path.write_bytes(data)
        see_cpus(monkeypatch, 2)
        with heads_parsed_here() as parsed:
            assert load_trace(path, rows=8) == dense(trace, 8)
            assert load_trace(path) == trace
        assert started == ["fork", "fork"]
        assert parsed == []
        assert not multiprocessing.active_children()

    def test_bytes_and_one_task_files_start_no_pool(self, tmp_path, monkeypatch, large,
                                                    started, mixed_trace):
        see_cpus(monkeypatch, 2)
        trace, data = large
        assert trace_from_text(data, rows=8) == dense(trace, 8)
        # Four heads of 300 scores make one task.
        path = tmp_path / "t.json"
        save_trace(mixed_trace, path)
        assert load_trace(path) == mixed_trace
        assert started == []

    def test_no_worker_outlives_a_failed_load(self, tmp_path, monkeypatch, large, started):
        trace, data = large
        doc = json.loads(data)
        doc["prefill"][0][1][300][7] = -0.5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        see_cpus(monkeypatch, 2)
        with pytest.raises(ValidationError, match=r"negative score at \(0, 1, 300\)"):
            load_trace(path, rows=8)
        assert started == ["fork"]
        assert not multiprocessing.active_children()


class TestBinaryContainer:
    def test_round_trip_structural_equality(self, mixed_trace):
        assert trace_from_binary(trace_to_binary(mixed_trace)) == mixed_trace

    def test_round_trip_byte_identical(self, tmp_path, mixed_trace):
        p = tmp_path / "t.mkvt"
        save_trace(mixed_trace, p)
        first = p.read_bytes()
        assert first[:4] == BINARY_MAGIC
        save_trace(load_trace(p), p)
        assert p.read_bytes() == first

    def test_suffix_selects_binary_and_magic_sniffs_it_back(self, tmp_path, mixed_trace):
        # Even under a .json name, the magic decides the reader.
        p = tmp_path / "mislabeled.json"
        save_trace(mixed_trace, p, binary=True)
        assert p.read_bytes()[:4] == BINARY_MAGIC
        assert load_trace(p) == mixed_trace

    def test_text_and_binary_agree(self, tmp_path, mixed_trace):
        a = tmp_path / "a.json"
        b = tmp_path / "b.mkvt"
        save_trace(mixed_trace, a)
        save_trace(mixed_trace, b)
        assert load_trace(a) == load_trace(b)

    def test_truncated_file_rejected(self, mixed_trace):
        blob = trace_to_binary(mixed_trace)
        with pytest.raises(FormatError, match="length"):
            trace_from_binary(blob[:-4])
        with pytest.raises(FormatError, match="length"):
            trace_from_binary(blob + b"\x00" * 4)
        with pytest.raises(FormatError, match="truncated"):
            trace_from_binary(blob[:20])

    def test_bad_magic_and_version_rejected(self, mixed_trace):
        blob = bytearray(trace_to_binary(mixed_trace))
        with pytest.raises(FormatError, match="magic"):
            trace_from_binary(b"XXXX" + bytes(blob[4:]))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(FormatError, match="format_version"):
            trace_from_binary(bytes(blob))

    def test_loaded_trace_is_validated(self):
        t = make_trace([[1.0], [0.5, 0.5]], labels="tv")
        blob = bytearray(trace_to_binary(t))
        # Corrupt the last prefill score; the row sum breaks.
        blob[-4:] = np.array([5.0], dtype="<f4").tobytes()
        with pytest.raises(ValidationError):
            trace_from_binary(bytes(blob))


def test_equality_notices_score_changes(mixed_trace):
    other = AttentionTrace(
        mixed_trace.header, mixed_trace.prefill.copy(), [d.copy() for d in mixed_trace.decode]
    )
    assert other == mixed_trace
    other.prefill[0, 0, 0, 0] += np.float32(2 ** -20)
    assert other != mixed_trace


def test_uniform_rows_helper_is_row_stochastic():
    make_trace(uniform_rows(9), labels=None)


# ---------------------------------------------------------------------------
# partial loads: only the last prefill rows kept


@pytest.fixture
def saved(tmp_path, mixed_trace):
    """mixed_trace (2 layers, 2 heads, n = 24, 2 decode steps) in both
    containers."""
    paths = {"text": tmp_path / "t.json", "binary": tmp_path / "t.mkvt"}
    for kind, path in paths.items():
        save_trace(mixed_trace, path, binary=kind == "binary")
    return paths


def binary_offset(trace, layer, head, row, col):
    """Byte offset of one prefill score in the binary container."""
    h = trace.header
    n = h.prompt_len
    per_head = n * (n + 1) // 2
    index = (layer * h.num_heads + head) * per_head + row * (row + 1) // 2 + col
    return 4 + 5 * 4 + (n + 7) // 8 + 4 * index


def write_corrupted(trace, kind, path, layer, head, row, col, value):
    """Save `trace` with one prefill score replaced by `value`."""
    if kind == "binary":
        blob = bytearray(trace_to_binary(trace))
        at = binary_offset(trace, layer, head, row, col)
        blob[at:at + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
    else:
        doc = json.loads(trace_to_text(trace))
        doc["prefill"][layer][head][row][col] = value
        path.write_text(json.dumps(doc))


class TestPartialLoad:
    @pytest.mark.parametrize("kind", ["text", "binary"])
    @pytest.mark.parametrize("rows", [1, 8, 23, 24, 29])
    def test_keeps_the_full_loads_last_rows(self, saved, kind, rows):
        full = load_trace(saved[kind])
        part = load_trace(saved[kind], rows=rows)
        assert part == dense(full, rows)
        assert part.prefill.shape == (2, 2, min(rows, 24), 24)
        assert len(part.decode) == 2
        part.validate()

    def test_container_functions_take_rows(self, mixed_trace):
        want = dense(mixed_trace, 8)
        assert trace_from_binary(trace_to_binary(mixed_trace), rows=8) == want
        assert trace_from_text(trace_to_text(mixed_trace), rows=8) == want

    def test_rows_below_one_rejected(self, saved):
        with pytest.raises(ParameterError, match="rows"):
            load_trace(saved["binary"], rows=0)

    def test_first_row_takes_part_in_equality(self, mixed_trace):
        part = dense(mixed_trace, 8)
        shifted = AttentionTrace(part.header, part.prefill, part.decode, first_row=15)
        assert part != shifted

    @pytest.mark.parametrize("kind", ["text", "binary"])
    @pytest.mark.parametrize("row", [5, 20], ids=["dropped_row", "kept_row"])
    @pytest.mark.parametrize("fault", ["negative", "row_sum", "NaN"])
    def test_corruption_reported_alike_in_full_and_partial_loads(
        self, tmp_path, mixed_trace, kind, row, fault
    ):
        layer, head = 1, 0
        old = float(mixed_trace.prefill[layer, head, row, 0])
        value = {"negative": -0.25, "row_sum": old + 0.5, "NaN": float("nan")}[fault]
        path = tmp_path / f"bad.{'mkvt' if kind == 'binary' else 'json'}"
        write_corrupted(mixed_trace, kind, path, layer, head, row, 0, value)

        edited = AttentionTrace(
            mixed_trace.header, mixed_trace.prefill.copy(), mixed_trace.decode
        )
        edited.prefill[layer, head, row, 0] = value
        with pytest.raises(ValidationError) as by_validate:
            edited.validate()
        with pytest.raises(ValidationError) as full:
            load_trace(path)
        with pytest.raises(ValidationError) as partial:
            load_trace(path, rows=8)
        message = str(full.value)
        assert f"({layer}, {head}, {row})" in message
        assert {"negative": "negative score", "row_sum": "row sum",
                "NaN": "NaN score"}[fault] in message
        assert str(partial.value) == message
        assert str(by_validate.value) == message

    def test_validate_reports_absolute_rows(self):
        t = make_trace(uniform_rows(5), labels="tvtvt")
        part = dense(t, 3)
        part.validate()
        part.prefill[0, 0, 0, 3] = 0.25
        part.prefill[0, 0, 0, 0] -= np.float32(0.25)
        with pytest.raises(ValidationError, match=r"causality violated at \(0, 0, 2\)"):
            part.validate()
        part = dense(t, 3)
        part.prefill[0, 0, 1, 0] += np.float32(0.5)
        with pytest.raises(ValidationError, match=r"row sum 1\.5 at \(0, 0, 3\)"):
            part.validate()
        part.prefill[0, 0, 1, 0] = -0.5
        with pytest.raises(ValidationError, match=r"negative score at \(0, 0, 3\)"):
            part.validate()

    def test_validate_checks_first_row_against_shape(self):
        t = make_trace(uniform_rows(5), labels=None)
        part = dense(t, 3)
        part.first_row = 1
        with pytest.raises(ValidationError, match="shape"):
            part.validate()
        part.first_row = 5
        with pytest.raises(ValidationError, match="first_row"):
            part.validate()


class TestStreamedBinaryFile:
    def test_truncated_and_padded_files_rejected(self, tmp_path, mixed_trace):
        blob = trace_to_binary(mixed_trace)
        p = tmp_path / "t.mkvt"
        for bad, fragment in ((blob[:-4], "length"), (blob + b"\0" * 4, "length"),
                              (blob[:22], "truncated")):
            p.write_bytes(bad)
            for rows in (None, 8):
                with pytest.raises(FormatError, match=fragment):
                    load_trace(p, rows=rows)

    @pytest.mark.parametrize("change", ["shrinks", "grows"])
    def test_file_changing_while_read_rejected(self, tmp_path, mixed_trace, change):
        blob = trace_to_binary(mixed_trace)
        p = tmp_path / "t.mkvt"
        p.write_bytes(blob)

        class Changing:
            """An unbuffered file that shrinks or grows after the header."""

            def __init__(self, raw):
                self.raw = raw
                self.changed = False

            def fileno(self):
                return self.raw.fileno()

            def tell(self):
                return self.raw.tell()

            def read(self, size):
                return self.raw.read(size)

            def readinto(self, buf):
                if not self.changed:
                    self.changed = True
                    if change == "shrinks":
                        os.truncate(p, len(blob) // 2)
                    else:
                        with open(p, "ab") as fh:
                            fh.write(b"\0" * 8)
                return self.raw.readinto(buf)

        fragment = "truncated" if change == "shrinks" else "grew"
        with open(p, "rb", buffering=0) as raw:
            with pytest.raises(FormatError, match=fragment):
                trace_from_binary(Changing(raw), rows=8)

    @pytest.mark.parametrize("kind", ["text", "binary"])
    def test_nan_decode_score_rejected_on_load(self, tmp_path, mixed_trace, kind):
        decode = [vec.copy() for vec in mixed_trace.decode]
        decode[1][0, 1, 3] = np.nan
        bad = AttentionTrace(mixed_trace.header, mixed_trace.prefill, decode)
        path = tmp_path / f"bad.{'mkvt' if kind == 'binary' else 'json'}"
        save_trace(bad, path)
        for rows in (None, 8):
            with pytest.raises(ValidationError, match=r"NaN score at decode step 1, \(0, 1\)"):
                load_trace(path, rows=rows)

    def test_text_file_truncated(self, tmp_path, mixed_trace):
        p = tmp_path / "t.json"
        p.write_bytes(trace_to_text(mixed_trace)[:-100])
        with pytest.raises(FormatError):
            load_trace(p, rows=8)

    def test_non_numeric_text_score_is_a_format_error(self, tmp_path, mixed_trace):
        doc = json.loads(trace_to_text(mixed_trace))
        doc["prefill"][0][1][3][2] = [0.5]
        with pytest.raises(FormatError, match=r"prefill\[0\]\[1\]"):
            trace_from_text(json.dumps(doc).encode(), rows=8)

    @pytest.mark.parametrize("value", ["x", "0.25", True, [0.5]])
    def test_non_numeric_decode_score_is_a_format_error(self, mixed_trace, value):
        doc = json.loads(trace_to_text(mixed_trace))
        doc["decode"][1][0][0][2] = value
        for rows in (None, 8):
            with pytest.raises(FormatError,
                               match=r"decode\[1\]\[0\]\[0\]: scores must be numbers"):
                trace_from_text(json.dumps(doc).encode(), rows=rows)

    def test_head_rows_take_absolute_prompt_rows(self, mixed_trace):
        full = mixed_trace
        part = dense(full, 8)
        assert np.array_equal(full.head_rows(1, 0), full.prefill[1, 0])
        assert np.array_equal(full.head_rows(1, 0, 3, 9), full.prefill[1, 0, 3:9])
        assert np.array_equal(part.head_rows(1, 0, 16), full.prefill[1, 0, 16:])
        assert np.array_equal(part.head_rows(1, 0, 18, 20), full.prefill[1, 0, 18:20])
        for start in (0, 15):
            with pytest.raises(ParameterError, match=f"prompt row {start} requested"):
                part.head_rows(1, 0, start)


class TestPartialTraceConsumers:
    def test_whole_cube_consumers_refuse_a_partial_trace(self, mixed_trace):
        part = dense(mixed_trace, 8)
        for consumer in (trace_to_binary, trace_to_text,
                         lambda t: head_text_share(t, 0, 0)):
            with pytest.raises(ParameterError, match="prompt row 0 requested"):
                consumer(part)

    def test_importance_needs_no_more_rows_than_held(self, mixed_trace):
        part = dense(mixed_trace, 8)
        assert np.array_equal(
            proxy_importance_matrix(part, ProxyConfig(8)),
            proxy_importance_matrix(mixed_trace, ProxyConfig(8)),
        )
        assert proxy_importance(part, 1, 1, ProxyConfig(5)) == proxy_importance(
            mixed_trace, 1, 1, ProxyConfig(5)
        )
        with pytest.raises(ParameterError, match="9 proxy rows"):
            proxy_importance_matrix(part, ProxyConfig(9))
        with pytest.raises(ParameterError, match="9 proxy rows"):
            proxy_importance(part, 0, 0, ProxyConfig(9))


# ---------------------------------------------------------------------------
# bounded memory


@pytest.fixture(scope="module")
def big_diagonal(tmp_path_factory):
    """A 4x4x1024 trace, every prompt row on its own position, as a binary
    file and a text twin. The twin writes scores as the integers 0 and 1,
    which the text container accepts, and its heads share one list, so the
    document stays small to build."""
    L, H, n = 4, 4, 1024
    prefill = np.zeros((L, H, n, n), dtype=np.float32)
    idx = np.arange(n)
    prefill[:, :, idx, idx] = 1.0
    decode = [np.full((L, H, n + s), 1.0 / (n + s), dtype=np.float32) for s in range(2)]
    labels = np.arange(n) % 3 == 0
    trace = AttentionTrace(TraceHeader(L, H, n, 2, labels), prefill, decode)
    folder = tmp_path_factory.mktemp("big")
    binary = folder / "big.mkvt"
    save_trace(trace, binary)
    del prefill, trace
    head = [[0] * i + [1] for i in range(n)]
    doc = {
        "format_version": 1,
        "header": {"L": L, "H": H, "n": n, "T": 2,
                   "modality_labels": ["visual" if v else "text" for v in labels]},
        "prefill": [[head] * H] * L,
        "decode": [d.tolist() for d in decode],
    }
    text = folder / "big.json"
    text.write_text(json.dumps(doc, separators=(",", ":")))
    return binary, text


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 1 << 20


def untrace_workers(monkeypatch):
    """Stop tracemalloc in each pool worker as it starts: it measures this
    process only, and tracing a worker's every allocation slows its parse
    several times over."""
    start_worker = trace_module._start_worker

    def start_untraced(state):
        tracemalloc.stop()
        start_worker(state)

    monkeypatch.setattr(trace_module, "_start_worker", start_untraced)


class TestBoundedMemory:
    def test_binary_partial_load_stays_small(self, big_diagonal):
        binary, _ = big_diagonal
        trace, peak = traced_peak(lambda: load_trace(binary, rows=8))
        assert trace.prefill.shape == (4, 4, 8, 1024)
        # One head's float64 triangle is 4 MiB; the file is 32 MiB and the
        # dense cube 64 MiB.
        assert peak < 16 * MIB

    def test_generated_binary_save_builds_no_dense_cube(self, tmp_path):
        spec = SyntheticTraceSpec(4, 4, 1024, 2, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=(0.1, 0.9, 0.1, 0.9), seed=3)
        path = tmp_path / "gen.mkvt"

        def generate_and_save():
            trace = generate_synthetic(spec)
            save_trace(trace, path)
            return trace

        trace, peak = traced_peak(generate_and_save)
        assert path.stat().st_size == 4 + 5 * 4 + 128 + 4 * 16 * (
            1024 * 1025 // 2 + 1024 + 1025
        )
        # The writers take about 1 MiB of float32 rows at a time; one head's
        # (n, n) float32 block is 4 MiB, the file 32 MiB and the dense cube
        # 64 MiB.
        assert peak < 6 * MIB

    def test_text_partial_load_builds_no_dense_cube(self, big_diagonal, monkeypatch):
        # tracemalloc sees this process only: one CPU keeps the parse here.
        see_cpus(monkeypatch, 1)
        binary, text = big_diagonal

        def whole_document(*args, **kwargs):
            raise AssertionError("the text loader parsed the whole document")

        monkeypatch.setattr(json, "loads", whole_document)
        trace, peak = traced_peak(lambda: load_trace(text, rows=8))
        assert trace == load_trace(binary, rows=8)
        # One head's float64 triangle is 4 MiB and the text held at a time
        # up to 2 MiB; the file is 16 MiB and the dense cube 64 MiB.
        assert peak < 16 * MIB

    def test_text_partial_load_in_a_pool_stays_small_here(self, big_diagonal, monkeypatch):
        """With two CPUs the workers parse the heads. This process, which
        only finds where each head ends, stays within the serial bound."""
        see_cpus(monkeypatch, 2)
        untrace_workers(monkeypatch)
        binary, text = big_diagonal
        with heads_parsed_here() as parsed:
            trace, peak = traced_peak(lambda: load_trace(text, rows=8))
        assert parsed == []
        assert trace == load_trace(binary, rows=8)
        assert peak < 16 * MIB

    def test_generated_trace_simulates_without_its_dense_cube(self):
        bias = (0.1, 0.9, 0.9, 0.1, 0.1, 0.1, 0.9, 0.9)
        spec = SyntheticTraceSpec(8, 8, 2048, 4, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=bias, seed=101)
        policies = [PolicyConfig(budget_frac=0.2)] + [
            BaselineConfig(kind, budget_frac=0.2) for kind in BaselineKind
        ]

        def generate_and_simulate():
            trace = generate_synthetic(spec)
            return trace, [simulate(trace, p).mean_retained_mass for p in policies]

        (trace, masses), peak = traced_peak(generate_and_simulate)
        # The policies read the last 8 prompt rows; a trace that stores just
        # those must score the same.
        stored = dense(trace, 8)
        assert masses == [simulate(stored, p).mean_retained_mass for p in policies]
        # The dense cube is 1 GiB; one head's 8 rows are 64 KiB.
        assert peak < 64 * MIB

    def test_malformed_first_score_fails_without_reading_on(self, big_diagonal, tmp_path,
                                                            monkeypatch):
        # tracemalloc sees this process only: one CPU keeps the parse here.
        see_cpus(monkeypatch, 1)
        malformed_first_score_fails_small(big_diagonal, tmp_path)

    def test_malformed_first_score_in_a_pool_fails_without_reading_on(
            self, big_diagonal, tmp_path, monkeypatch):
        """The pool's first task fails; this process stops walking the heads
        and parses again from the start, within the serial bound."""
        see_cpus(monkeypatch, 2)
        untrace_workers(monkeypatch)
        malformed_first_score_fails_small(big_diagonal, tmp_path)


def malformed_first_score_fails_small(big_diagonal, tmp_path):
    """Loading the text twin with its first score made `1.0x` names that
    character and peaks well under the file's size in tracemalloc."""
    _, text = big_diagonal
    data = text.read_bytes()
    start = b'"prefill":[[[[1]'
    assert data.count(start) == 1
    bad = tmp_path / "bad.json"
    bad.write_bytes(data.replace(start, b'"prefill":[[[[1.0x]'))
    at = data.index(start) + len(start) + 1  # the x
    del data

    def load():
        with pytest.raises(FormatError) as err:
            load_trace(bad, rows=8)
        return str(err.value)

    message, peak = traced_peak(load)
    assert message == f"not a valid text trace: Expecting ',' delimiter at character {at}"
    # One head's float64 and float32 triangles take 6 MiB and a chunk of
    # text 1 MiB. The file is 16 MiB: reading on to its end to retry the
    # parse peaked at 46 MiB.
    assert peak < 12 * MIB
