"""Trace model and container tests: validation, round-trips, error reporting."""

import base64
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modkv.trace as trace_module
from conftest import dense, make_trace, traced_peak, uniform_rows
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
)
from modkv.cli import main as cli_main
from oracles import (
    ReferencePrefillTail,
    reference_packed_rows,
    reference_trace_from_text,
    reference_trace_to_text_v2,
)


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


class TestHeaderLabels:
    def test_accepts_booleans_and_keeps_its_own_copy(self):
        labels = np.array([False, True, False])
        header = TraceHeader(1, 1, 3, 0, labels)
        assert np.array_equal(header.modality_labels, labels)
        labels[0] = True
        assert not header.modality_labels[0]
        assert np.array_equal(
            TraceHeader(1, 1, 3, 0, [False, True, False]).modality_labels,
            header.modality_labels,
        )

    @pytest.mark.parametrize("labels", [
        ["text", "visual"],
        [Modality.TEXT, Modality.VISUAL],
        [0, 1],
        np.array([0.0, 1.0]),
    ])
    def test_rejects_labels_that_are_not_booleans(self, labels):
        with pytest.raises(ValidationError, match="modality labels must be booleans"):
            TraceHeader(1, 1, 2, 0, labels)


def tiny_document():
    """A 1-layer, 1-head, n = 2 trace with no decode steps, as a version 2
    document."""
    return json.loads(trace_to_text(make_trace([[1.0], [0.5, 0.5]], labels="tt")))


# Mutations of tiny_document() and a fragment of the error each must raise.
MALFORMED = [
    (lambda o: o.pop("format_version"), "format_version 2 must come before prefill and decode"),
    (lambda o: o.update(format_version=99), "unsupported format_version 99"),
    (lambda o: o["header"].pop("n"), "header.n"),
    (lambda o: o["header"].update(n="2"), "header.n"),
    (lambda o: o["header"].update(modality_labels=["text"]), "modality_labels"),
    (lambda o: o["header"].update(modality_labels=["text", "image"]), "image"),
    (lambda o: o["header"].update(modality_labels=["text", "visu\u00e9l"]), "visu\u00e9l"),
    (lambda o: o["prefill"].pop(), "prefill must be a list of 1 layers"),
    (lambda o: o.update(decode=[[]]), "decode must be a list of 0 steps"),
    # Payloads that are not the base64 strings of the float32 scores the
    # header asks for.
    (lambda o: o["prefill"][0].__setitem__(0, [b64(f32(1.0, 0.5))]),
     "prefill[0][0] holds 8 bytes, expected 12 (3 float32 scores)"),
    (lambda o: o["prefill"][0].__setitem__(0, ["1.0"]),
     "prefill[0][0][0] is not base64: Only base64 data is allowed"),
    (lambda o: o["prefill"][0][0].append(0.5),
     "prefill[0][0][1] must be a base64 string, got float"),
    (lambda o: o["prefill"][0].__setitem__(0, [True]),
     "prefill[0][0][0] must be a base64 string, got bool"),
    (lambda o: o["prefill"][0][0].append(10 ** 400),
     "prefill[0][0][1] must be a base64 string, got int"),
    (lambda o: (o["header"].update(T=1), o.update(decode=[[True]])),
     "decode[0][0] must be a base64 string, got bool"),
    (lambda o: (o["header"].update(T=1), o.update(decode=[[10 ** 400]])),
     "decode[0][0] must be a base64 string, got int"),
    (lambda o: (o["header"].update(H=2), o["prefill"][0].append([b64(f32(1.0, 0.5, 0.5, 0))])),
     "prefill[0][1] holds more than 12 bytes (3 float32 scores)"),
    (lambda o: (o["header"].update(T=2),
                o.update(decode=[[b64(f32(0.5, 0.5))], [b64(f32(0.5, 0.5, 0, 0))]])),
     "decode[1] holds more than 12 bytes (3 float32 scores)"),
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
        """An indented document whose payloads are cut elsewhere, mid-float
        and into an empty piece, re-saves in the canonical form."""
        expected = make_trace([[1.0], [0.3, 0.7]], labels="tv", decode=[[0.25, 0.75]])
        doc = json.loads(trace_to_text(expected))
        head = payload_bytes(doc["prefill"][0][0])
        doc["prefill"][0][0] = [b64(head[:5]), b64(b""), b64(head[5:])]
        step = payload_bytes(doc["decode"][0])
        doc["decode"][0] = [b64(step[:2]), b64(step[2:])]
        p = tmp_path / "loose.json"
        p.write_text(json.dumps(doc, indent=2))
        assert p.read_bytes() != trace_to_text(expected)
        t = load_trace(p)
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


def b64(data):
    return base64.b64encode(data).decode("ascii")


def f32(*values):
    return np.array(values, dtype="<f4").tobytes()


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


def edit_payload(pieces, target, value, where):
    """A payload's list of base64 strings with one edit: a score's float32
    bits set to `value` (None keeps them), a piece that is not a string or
    not base64, or the last byte gone. The list is cut again at random points
    first."""
    pieces = recut(pieces, np.random.default_rng(where))
    if target == "score":
        scores = np.frombuffer(payload_bytes(pieces), "<f4").copy()
        if value is not None:
            scores[where % scores.size] = value
        return recut([b64(scores.tobytes())], np.random.default_rng(where + 1))
    k = where % len(pieces)
    if target == "not_a_string":
        pieces[k] = [0.5, None, True, [pieces[k]], {}][where % 5]
    elif target == "not_base64":
        pieces[k] = [pieces[k] + "$", "\u00e9" + pieces[k], pieces[k] + "=", pieces[k][1:],
                     pieces[k].rstrip("=")][where % 5]
    elif target == "short":
        pieces = [b64(payload_bytes(pieces)[:-1])]
    return pieces


@settings(max_examples=40, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 2),
    n=st.integers(1, 6),
    steps=st.integers(0, 2),
    seed=st.integers(0, 2 ** 32 - 1),
    style=st.sampled_from(["compact", "indented", "spaced"]),
    payload=st.sampled_from(["none", "prefill", "decode"]),
    target=st.sampled_from(["score", "not_a_string", "not_base64", "short"]),
    value=st.sampled_from([None, -0.5, -0.0, 2.0, 0.25, 1e-45, float("nan"), float("inf"),
                           float("-inf")]),
    where=st.integers(0, 2 ** 16),
)
def test_streamed_load_matches_whole_document_parse(layers, heads, n, steps, seed, style,
                                                    payload, target, value, where):
    spec = SyntheticTraceSpec(layers, heads, n, steps, skew=1.2, modality_mix=0.5,
                              head_preference_bias=0.3, seed=seed)
    doc = json.loads(reference_trace_to_text_v2(generate_synthetic(spec)))
    l, hd = where % layers, where // layers % heads
    if payload == "prefill":
        doc["prefill"][l][hd] = edit_payload(doc["prefill"][l][hd], target, value, where)
    elif payload == "decode" and steps:
        s = where % steps
        doc["decode"][s] = edit_payload(doc["decode"][s], target, value, where)
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


def recut_text(trace, style="indented"):
    """`trace` as a version 2 document with every payload cut again at random
    byte offsets, rendered in `style`: a layout the writer never makes."""
    rng = np.random.default_rng(0)
    doc = json.loads(trace_to_text(trace))
    doc["prefill"] = [[recut(head, rng) for head in layer] for layer in doc["prefill"]]
    doc["decode"] = [recut(step, rng) for step in doc["decode"]]
    return render(doc, style)


def set_score(k, value):
    """An edit of a head's base64 strings that sets its k-th packed float32
    score to `value`, or to `value(old)` if it is callable."""
    def edit(pieces):
        scores = np.frombuffer(payload_bytes(pieces), "<f4").copy()
        scores[k] = value(scores[k]) if callable(value) else value
        return [b64(scores.tobytes())]
    return edit


def cut_at_row_20(middle=None, tail=0):
    """An edit of a head's base64 strings that cuts them in two where row 20
    starts, with `middle` put between the two when given, and adds `tail`
    bytes to the end (or takes them off, if negative)."""
    def edit(pieces):
        data = payload_bytes(pieces)
        data = data + bytes(tail) if tail >= 0 else data[:tail]
        at = 4 * 20 * 21 // 2
        return [b64(data[:at]), *([] if middle is None else [middle]), b64(data[at:])]
    return edit


# Faults put in the last head of mixed_trace (n = 24, 300 packed scores, row
# 20 starting at score 210), each as an edit of its base64 strings, with the
# error class and message each must raise.
LAST_HEAD_FAULTS = {
    "negative": (set_score(210, -0.25), ValidationError, "negative score at (1, 1, 20)"),
    "row_sum": (set_score(210, lambda old: old + np.float32(0.5)), ValidationError,
                "row sum 1.5 at (1, 1, 20)"),
    "nan": (set_score(210, np.nan), ValidationError, "NaN score at (1, 1, 20)"),
    "infinity": (set_score(213, np.inf), ValidationError, "row sum inf at (1, 1, 20)"),
    "not_a_string": (cut_at_row_20(0.5), FormatError,
                     "prefill[1][1][1] must be a base64 string, got float"),
    "string": (cut_at_row_20("0.5"), FormatError,
               "prefill[1][1][1] is not base64: Only base64 data is allowed"),
    "non_ascii": (cut_at_row_20("\u00e9"), FormatError,
                  "prefill[1][1][1] is not base64: string argument should contain only "
                  "ASCII characters"),
    "list": (cut_at_row_20([b64(f32(0.5))]), FormatError,
             "prefill[1][1][1] must be a base64 string, got list"),
    "short_row": (cut_at_row_20(tail=-4), FormatError,
                  "prefill[1][1] holds 1196 bytes, expected 1200 (300 float32 scores)"),
    "extra_row": (cut_at_row_20(tail=4 * 25), FormatError,
                  "prefill[1][1] holds more than 1200 bytes (300 float32 scores)"),
}


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

    @pytest.mark.parametrize("mutate, fragment", MALFORMED)
    def test_malformed_documents_name_the_fault_alike_in_every_layout(self, mutate, fragment):
        """Whitespace between tokens, and how many rows are kept, change no
        message."""
        doc = tiny_document()
        mutate(doc)
        messages = set()
        for style in ("compact", "indented", "spaced"):
            for rows in (None, 1):
                with pytest.raises(FormatError) as err:
                    trace_from_text(render(doc, style), rows=rows)
                messages.add(str(err.value))
        assert len(messages) == 1 and fragment in messages.pop()

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
        (b'"]]],', b'"]]],"prefill":[],', "duplicate field prefill"),
    ])
    def test_duplicate_fields_rejected(self, old, new, fragment):
        data = render(tiny_document(), "compact")
        assert old in data
        with pytest.raises(FormatError, match=fragment):
            trace_from_text(data.replace(old, new, 1))

    @pytest.mark.parametrize("style", ["compact", "indented"])
    @pytest.mark.parametrize("fault", list(LAST_HEAD_FAULTS))
    def test_a_fault_in_the_last_head_is_named(self, tmp_path, mixed_trace, fault, style):
        edit, error, message = LAST_HEAD_FAULTS[fault]
        doc = json.loads(trace_to_text(mixed_trace))
        doc["prefill"][1][1] = edit(doc["prefill"][1][1])
        path = tmp_path / "bad.json"
        path.write_bytes(render(doc, style))
        for rows in (None, 8):
            with pytest.raises(error) as err:
                load_trace(path, rows=rows)
            assert str(err.value) == message

    @pytest.mark.parametrize("writer", [trace_to_text, lambda t: recut_text(t, "compact")],
                             ids=["v2", "v2_recut"])
    def test_the_first_of_two_faults_is_the_one_reported(self, tmp_path, mixed_trace,
                                                          writer):
        """A bad score in the first head comes before a head too many in the
        last layer, and is the fault named."""
        edited = dense(mixed_trace)
        edited.prefill[0, 0, 5, 1] = -0.5
        doc = json.loads(writer(edited))
        doc["prefill"][1].append(doc["prefill"][1][0])
        path = tmp_path / "bad.json"
        path.write_bytes(render(doc, "compact"))
        for rows in (None, 8):
            with pytest.raises(ValidationError) as err:
                load_trace(path, rows=rows)
            assert str(err.value) == "negative score at (0, 0, 5)"

    @pytest.mark.parametrize("writer", [trace_to_text, recut_text], ids=["v2", "v2_recut"])
    def test_a_file_cut_in_its_last_head_is_a_format_error(self, tmp_path, mixed_trace,
                                                           writer):
        data = writer(mixed_trace)
        end = data.rindex(b"]", 0, data.index(b'"decode"')) + 1  # the end of the prefill
        path = tmp_path / "cut.json"
        for cut in (end - 1, end - 3, end - 40):
            path.write_bytes(data[:cut])
            for rows in (None, 8):
                with pytest.raises(FormatError):
                    load_trace(path, rows=rows)

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
# the version 2 text writer against the whole-document render


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


def payload_bytes(pieces):
    """The bytes a list of base64 strings holds, joined."""
    return b"".join(base64.b64decode(p, validate=True) for p in pieces)


class TestTextWriter:
    def test_heads_cut_into_chunks_equal_the_whole_document(self):
        # 2**18 // 1100 = 238 rows a string: five strings a head.
        trace = spelling_trace(1100)
        text = trace_to_text(trace)
        assert text == reference_trace_to_text_v2(trace)
        doc = json.loads(text)
        assert list(doc) == ["format_version", "header", "prefill", "decode"]
        assert doc["format_version"] == 2
        assert [len(head) for head in doc["prefill"][0]] == [5, 5]
        assert [len(step) for step in doc["decode"]] == [1, 1]
        assert trace_from_text(text) == trace

    def test_generated_trace_equals_the_whole_document(self):
        spec = SyntheticTraceSpec(1, 1, 700, 2, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=0.3, seed=5)
        trace = generate_synthetic(spec)
        assert trace_to_text(trace) == reference_trace_to_text_v2(trace)

    def test_scores_are_stored_bit_for_bit(self):
        """-0.0, the smallest subnormal, infinity and NaN payloads survive the
        writer as the float32 bits they are."""
        special = np.array([-0.0, 1e-45, np.inf, np.nan], dtype=np.float32)
        special_bits = special.view(np.uint32).copy()
        special_bits[3] = 0x7FC00001  # a NaN with a payload
        special = special_bits.view(np.float32)
        n = 4
        prefill = np.zeros((1, 1, n, n), dtype=np.float32)
        prefill[0, 0][np.tril_indices(n)] = np.resize(special, n * (n + 1) // 2)
        decode = [np.resize(special, (1, 1, n))]
        trace = AttentionTrace(TraceHeader(1, 1, n, 1, [False] * n), prefill, decode)
        text = trace_to_text(trace)
        assert text == reference_trace_to_text_v2(trace)
        doc = json.loads(text)
        stored = np.frombuffer(payload_bytes(doc["prefill"][0][0]), "<u4")
        assert np.array_equal(stored, prefill[0, 0][np.tril_indices(n)].view(np.uint32))
        stored = np.frombuffer(payload_bytes(doc["decode"][0]), "<u4")
        assert np.array_equal(stored, decode[0].reshape(-1).view(np.uint32))


@settings(max_examples=20, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 2),
    n=st.integers(1, 9),
    steps=st.integers(0, 2),
    special=st.sampled_from([0.0, 0.1, 0.5, float("nan"), float("inf"), 3.4e38]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_text_writer_equals_the_whole_document(layers, heads, n, steps, special, seed):
    """Any scores, stored alike. The rows mix a few special values, each
    repeated, with random float32 values."""
    rng = np.random.default_rng(seed)
    spellings = np.array([special, -0.0, 1e-45, 1.0], dtype=np.float32)

    def scores(*shape):
        random = rng.random(shape, dtype=np.float32)
        return np.where(rng.random(shape) < 0.5, rng.choice(spellings, shape), random)

    header = TraceHeader(layers, heads, n, steps, rng.random(n) < 0.5)
    prefill = np.where(np.tri(n, dtype=bool), scores(layers, heads, n, n), 0)
    decode = [scores(layers, heads, n + s) for s in range(steps)]
    trace = AttentionTrace(header, prefill, decode)
    assert trace_to_text(trace) == reference_trace_to_text_v2(trace)


# ---------------------------------------------------------------------------
# the version 2 text loader


def recut(pieces, rng):
    """The bytes of a list of base64 strings cut again at random byte
    offsets, mid-float and empty pieces included."""
    data = payload_bytes(pieces)
    cuts = np.sort(rng.integers(0, len(data) + 1, size=rng.integers(0, 6)))
    bounds = [0, *cuts.tolist(), len(data)]
    return [base64.b64encode(data[a:b]).decode("ascii") for a, b in zip(bounds, bounds[1:])]


class TestTextV2Loader:
    @pytest.mark.parametrize("text_chunk", [1, 7, 4096, None])
    def test_any_read_size_loads_alike(self, monkeypatch, mixed_trace, text_chunk):
        data = trace_to_text(mixed_trace)
        if text_chunk is not None:
            monkeypatch.setattr(trace_module, "_TEXT_CHUNK", text_chunk)
        for rows in (None, 1, 8):
            assert trace_from_text(data, rows=rows) == dense(mixed_trace, rows)

    @pytest.mark.parametrize("seed", range(8))
    def test_payloads_cut_anywhere_load_alike(self, mixed_trace, seed):
        rng = np.random.default_rng(seed)
        doc = json.loads(trace_to_text(mixed_trace))
        doc["prefill"] = [[recut(head, rng) for head in layer] for layer in doc["prefill"]]
        doc["decode"] = [recut(step, rng) for step in doc["decode"]]
        # One head a byte a string.
        doc["prefill"][1][0] = [base64.b64encode(bytes([b])).decode("ascii")
                                for b in payload_bytes(doc["prefill"][1][0])]
        for style in ("compact", "indented"):
            data = render(doc, style)
            for chunk in (None, 7):
                with mock.patch.object(trace_module, "_TEXT_CHUNK",
                                       chunk or trace_module._TEXT_CHUNK):
                    assert trace_from_text(data) == mixed_trace
                    assert trace_from_text(data, rows=8) == dense(mixed_trace, 8)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_decode_steps_load_writable(self, layers):
        """Decode steps are writable, as the binary loader's are, whether a
        step is written as one payload string (one layer) or as several."""
        spec = SyntheticTraceSpec(layers, 2, 24, 2, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=0.5, seed=2)
        trace = generate_synthetic(spec)
        loaded = trace_from_text(trace_to_text(trace))
        assert all(step.flags.writeable for step in loaded.decode)
        assert loaded == dense(trace)


@pytest.fixture(params=[None, 7], ids=["default_chunk", "chunk7"])
def text_chunk(request, monkeypatch):
    """The text loader's read size: its default, or one that cuts every
    payload string across many reads."""
    if request.param is not None:
        monkeypatch.setattr(trace_module, "_TEXT_CHUNK", request.param)
    return request.param


@pytest.fixture(params=[None, 32], ids=["default_kernel", "kernel32"])
def b64_kernel(request, monkeypatch):
    """The shortest payload the base64 word kernel takes: its default, or
    32 characters, so that nearly every payload of a small trace takes it."""
    if request.param is not None:
        monkeypatch.setattr(trace_module, "_B64_KERNEL_MIN", request.param)
    return request.param


def payload_middle(data, path):
    """The character offset of the middle of the first base64 string at
    `path` (prefill or decode indices) in the document `data`."""
    doc = json.loads(data)
    for key in path:
        doc = doc[key]
    start = data.index(b'"' + doc[0].encode("ascii") + b'"') + 1
    return start + len(doc[0]) // 2


class TestPayloadStrings:
    """Payload strings are strict-decoded from the pending text; anything
    else goes through the JSON scanner and loads, or fails, as it did when
    every payload was scanned."""

    def test_plain_payloads_skip_the_json_scanner(self, text_chunk, mixed_trace, monkeypatch):
        parsed = []
        raw_decode = json.JSONDecoder.raw_decode

        def spy(self, s, idx=0):
            obj, end = raw_decode(self, s, idx)
            parsed.append(obj)
            return obj, end

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", spy)
        data = trace_to_text(mixed_trace)
        for rows in (None, 8):
            assert trace_from_text(data, rows=rows) == dense(mixed_trace, rows)
        # The scanner parsed field names, the version and the header only.
        assert parsed and all(not isinstance(obj, str) or len(obj) < 16 for obj in parsed)

    def test_every_payload_goes_through_one_decoder(self, text_chunk, b64_kernel, mixed_trace,
                                                    monkeypatch):
        """Plain and escaped payloads alike are decoded by `_b64decode`, one
        call per piece, so both paths accept the same strings."""
        decoded = []
        b64decode = trace_module._b64decode

        def spy(text, start=0, stop=None):
            decoded.append(text[start:stop])
            return b64decode(text, start, stop)

        monkeypatch.setattr(trace_module, "_b64decode", spy)
        data = trace_to_text(mixed_trace)
        doc = json.loads(data)
        pieces = [piece for layer in doc["prefill"] for head in layer for piece in head]
        pieces += [piece for step in doc["decode"] for piece in step]
        for rows in (None, 8):
            for text in (data, data.replace(b"/", b"\\/")):
                decoded.clear()
                assert trace_from_text(text, rows=rows) == dense(mixed_trace, rows)
                assert decoded == pieces

    @pytest.mark.parametrize("at", ["first_span", "later_span", "tail"])
    def test_a_fault_in_any_span_of_a_long_payload_is_named(self, at):
        """A payload of several kernel spans fails alike wherever its one
        invalid character is: in the first span, a later one, or the last
        characters, which `binascii` decodes."""
        spec = SyntheticTraceSpec(1, 1, 512, 1, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=0.5, seed=4)
        data = trace_to_text(generate_synthetic(spec))
        payload = json.loads(data)["prefill"][0][0]
        assert len(payload) == 1 and len(payload[0]) > 3 * trace_module._B64_SPAN
        start = data.index(payload[0].encode("ascii"))
        offset = {"first_span": 1000,
                  "later_span": 2 * trace_module._B64_SPAN + 5,
                  "tail": len(payload[0]) - 5}[at]
        bad = bytearray(data)
        bad[start + offset] = ord("$")  # the length stays a multiple of 4
        for rows in (None, 8):
            with pytest.raises(FormatError) as err:
                trace_from_text(bytes(bad), rows=rows)
            assert str(err.value) == (
                "prefill[0][0][0] is not base64: Only base64 data is allowed")

    @pytest.mark.parametrize("char, escape", [("/", "\\/"), ("A", "\\u0041")],
                             ids=["solidus", "unicode"])
    def test_escaped_payloads_load_alike(self, text_chunk, mixed_trace, char, escape):
        data = trace_to_text(mixed_trace)
        # Neither character appears outside the payloads.
        escaped = data.replace(char.encode(), escape.encode())
        assert data.count(char.encode()) > 10 and json.loads(escaped) == json.loads(data)
        for rows in (None, 8):
            got = trace_from_text(escaped, rows=rows)
            assert got == dense(mixed_trace, rows) == reference_trace_from_text(escaped, rows=rows)

    @pytest.mark.parametrize("path, where", [
        (("prefill", 1, 0), "prefill[1][0][0]"),
        (("decode", 1), "decode[1][0]"),
    ], ids=["prefill", "decode"])
    @pytest.mark.parametrize("fault, message", [
        ("\\q", "not a valid text trace: Invalid \\escape at character {at}"),
        ("\n", "not a valid text trace: Invalid control character at at character {at}"),
        ("é", "{where} is not base64: string argument should contain only ASCII characters"),
    ], ids=["bad_escape", "control", "non_ascii"])
    def test_a_fault_partway_through_a_payload_is_named(self, text_chunk, mixed_trace, path,
                                                        where, fault, message):
        data = trace_to_text(mixed_trace)
        at = payload_middle(data, path)
        bad = data[:at] + fault.encode("utf-8") + data[at:]
        for rows in (None, 8):
            with pytest.raises(FormatError) as err:
                trace_from_text(bad, rows=rows)
            assert str(err.value) == message.format(at=at, where=where)

    @pytest.mark.parametrize("piece, kind", [
        (0.5, "float"), (None, "NoneType"), (True, "bool"), (["AAAA"], "list"), ({}, "dict"),
    ], ids=["float", "null", "bool", "list", "object"])
    def test_a_piece_that_is_not_a_string_is_named(self, text_chunk, mixed_trace, piece, kind):
        doc = json.loads(trace_to_text(mixed_trace))
        doc["prefill"][0][1].insert(1, piece)
        for rows in (None, 8):
            with pytest.raises(FormatError) as err:
                trace_from_text(json.dumps(doc).encode(), rows=rows)
            assert str(err.value) == f"prefill[0][1][1] must be a base64 string, got {kind}"


def tiny_v2_document():
    """A 1-layer, 2-head, n = 2 trace with one decode step, as a version 2
    document: each head's 3 scores are 12 bytes."""
    trace = make_trace([[1.0], [0.5, 0.5]], labels="tv", decode=[[0.5, 0.5]], tile=(1, 2))
    return json.loads(reference_trace_to_text_v2(trace))


def reorder(*keys):
    def edit(doc):
        items = {k: doc.pop(k) for k in list(doc)}
        doc.update({k: items[k] for k in keys})
    return edit


def put(path, value):
    """An edit that sets doc[path[0]][path[1]]... to `value`."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


# Edits of tiny_v2_document(), the error class each must raise, and its
# message.
MALFORMED_V2 = {
    "head_not_a_list": (put(["prefill", 0, 1], b64(f32(1, 0.5, 0.5))), FormatError,
                        "prefill[0][1] must be a list of base64 strings"),
    "piece_not_a_string": (put(["prefill", 0, 1], [b64(f32(1)), 0.5]), FormatError,
                           "prefill[0][1][1] must be a base64 string, got float"),
    "piece_a_list": (put(["prefill", 0, 1], [[b64(f32(1, 0.5, 0.5))]]), FormatError,
                     "prefill[0][1][0] must be a base64 string, got list"),
    "not_base64": (put(["prefill", 0, 1], ["AACAPw$AAD8AAAA/"]), FormatError,
                   "prefill[0][1][0] is not base64: Only base64 data is allowed"),
    "not_ascii": (put(["prefill", 0, 1], ["AACAP\u00e9AAD8AAAA/"]), FormatError,
                  "prefill[0][1][0] is not base64: string argument should contain only "
                  "ASCII characters"),
    "unpadded": (put(["prefill", 0, 0], ["AACAPwAAAD8AAAA"]), FormatError,
                 "prefill[0][0][0] is not base64: Incorrect padding"),
    "too_few_bytes": (put(["prefill", 0, 1], [b64(f32(1, 0.5))]), FormatError,
                      "prefill[0][1] holds 8 bytes, expected 12 (3 float32 scores)"),
    "too_few_bytes_mid_float": (put(["prefill", 0, 1], [b64(f32(1, 0.5, 0.5)[:11])]),
                                FormatError,
                                "prefill[0][1] holds 11 bytes, expected 12 (3 float32 scores)"),
    "too_many_bytes": (put(["prefill", 0, 0], [b64(f32(1, 0.5)), b64(f32(0.5, 0))]),
                       FormatError, "prefill[0][0] holds more than 12 bytes (3 float32 scores)"),
    "no_pieces": (put(["prefill", 0, 0], []), FormatError,
                  "prefill[0][0] holds 0 bytes, expected 12 (3 float32 scores)"),
    "too_few_heads": (put(["prefill", 0], [[b64(f32(1, 0.5, 0.5))]]), FormatError,
                      "prefill[0] must be a list of 2 heads"),
    "nan_bits": (put(["prefill", 0, 1], [b64(f32(1, np.nan, 0.5))]), ValidationError,
                 "NaN score at (0, 1, 1)"),
    "negative_bits": (put(["prefill", 0, 1], [b64(f32(1, 1.5, -0.5))]), ValidationError,
                      "negative score at (0, 1, 1)"),
    "row_sum": (put(["prefill", 0, 0], [b64(f32(1, 0.5, 0.25))]), ValidationError,
                "row sum 0.75 at (0, 0, 1)"),
    "decode_step_not_a_list": (put(["decode", 0], b64(f32(0.5, 0.5, 0.5, 0.5))), FormatError,
                               "decode[0] must be a list of base64 strings"),
    "decode_step_short": (put(["decode", 0], [b64(f32(0.5, 0.5, 0.5))]), FormatError,
                          "decode[0] holds 12 bytes, expected 16 (4 float32 scores)"),
    "decode_step_long": (put(["decode", 0], [b64(f32(0.5, 0.5, 0.5, 0.5, 0))]), FormatError,
                         "decode[0] holds more than 16 bytes (4 float32 scores)"),
    "decode_step_not_base64": (put(["decode", 0], ["AAAA", "AAA"]), FormatError,
                               "decode[0][1] is not base64: Incorrect padding"),
    "decode_nan_bits": (put(["decode", 0], [b64(f32(0.5, 0.5, 0.5, np.nan))]),
                        ValidationError, "NaN score at decode step 0, (0, 1)"),
    "too_many_steps": (lambda d: d["decode"].append(d["decode"][0]), FormatError,
                       "decode must be a list of 1 steps"),
    "version_after_prefill": (reorder("header", "prefill", "format_version", "decode"),
                              FormatError, "format_version 2 must come before prefill and decode"),
    "version_after_decode": (reorder("header", "decode", "format_version", "prefill"),
                             FormatError, "format_version 2 must come before prefill and decode"),
    "version_last": (reorder("header", "prefill", "decode", "format_version"), FormatError,
                     "format_version 2 must come before prefill and decode"),
    # The decode steps are streamed, so they must follow the prefill.
    "decode_before_prefill": (reorder("format_version", "header", "decode", "prefill"),
                              FormatError, "prefill must come before decode"),
    "version_3": (put(["format_version"], 3), FormatError, "unsupported format_version 3"),
    "version_2.0": (put(["format_version"], 2.0), FormatError, "unsupported format_version 2.0"),
    "version_string": (put(["format_version"], "2"), FormatError,
                       "unsupported format_version '2'"),
    "version_true": (put(["format_version"], True), FormatError,
                     "unsupported format_version True"),
}


# A valid trace as text format version 1 wrote it: each score a JSON number
# and each prefill row its own list. That version is no longer read.
VERSION_1_DOCUMENT = (
    b'{"format_version":1,"header":{"L":1,"H":1,"n":2,"T":1,'
    b'"modality_labels":["text","visual"]},"prefill":[[[[1.0],[0.5,0.5]]]],'
    b'"decode":[[[[0.5,0.5]]]]}\n'
)


class TestMalformedTextV2:
    @pytest.mark.parametrize("case", list(MALFORMED_V2))
    def test_load_and_cli_name_the_fault(self, tmp_path, capsys, case):
        edit, error, message = MALFORMED_V2[case]
        doc = tiny_v2_document()
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_bytes(render(doc, "compact"))
        for rows in (None, 1):
            with pytest.raises(error) as err:
                load_trace(path, rows=rows)
            assert str(err.value) == message
        assert cli_main(["analyze", "--trace", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize("data, message", [
        (VERSION_1_DOCUMENT, "unsupported format_version 1"),
        (VERSION_1_DOCUMENT.replace(b'"format_version":1,', b""),
         "format_version 2 must come before prefill and decode"),
    ], ids=["version_1", "no_version"])
    def test_version_1_and_unversioned_documents_are_refused(self, tmp_path, capsys, data,
                                                             message):
        path = tmp_path / "old.json"
        path.write_bytes(data)
        for rows in (None, 1):
            with pytest.raises(FormatError) as err:
                load_trace(path, rows=rows)
            assert str(err.value) == message
        assert cli_main(["analyze", "--trace", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"

    @pytest.mark.parametrize("row", [5, 20], ids=["dropped_row", "kept_row"])
    @pytest.mark.parametrize("fault", ["negative", "NaN", "row_sum"])
    def test_bad_bits_are_reported_as_the_binary_loader_reports_them(
            self, tmp_path, mixed_trace, fault, row):
        value = {"negative": -0.25, "NaN": np.nan, "row_sum": 0.75}[fault]
        edited = dense(mixed_trace)
        edited.prefill[1, 1, row, 0] = value
        # Neither writer checks the scores it writes.
        paths = [tmp_path / "bad.mkvt", tmp_path / "bad.json"]
        for path in paths:
            save_trace(edited, path)
        for rows in (None, 8):
            messages = set()
            for path in paths:
                with pytest.raises(ValidationError) as err:
                    load_trace(path, rows=rows)
                messages.add(str(err.value))
            assert len(messages) == 1 and f"(1, 1, {row})" in messages.pop()


def load_outcome(load, data, rows):
    """The trace `load` returns, or the class and message of the modkv error
    it raises."""
    try:
        return load(data, rows=rows)
    except ModkvError as exc:
        return type(exc), str(exc)


@settings(max_examples=25, deadline=None)
@given(
    layers=st.integers(1, 2),
    heads=st.integers(1, 2),
    n=st.integers(1, 6),
    steps=st.integers(0, 2),
    seed=st.integers(0, 2 ** 32 - 1),
    target=st.sampled_from(["none", "prefill", "decode"]),
    value=st.sampled_from([-0.5, -0.0, 2.0, 0.25, float("nan"), float("inf"),
                           float("-inf")]),
    where=st.integers(0, 2 ** 16),
)
def test_text_v2_and_binary_loads_agree(layers, heads, n, steps, seed, target, value, where):
    """Any scores, valid or not, load from version 2 text as from the binary
    container: the same trace, or the same error and message."""
    spec = SyntheticTraceSpec(layers, heads, n, steps, skew=1.2, modality_mix=0.5,
                              head_preference_bias=0.3, seed=seed)
    trace = dense(generate_synthetic(spec))
    l, hd, row = where % layers, where // layers % heads, where % n
    if target == "prefill":
        trace.prefill[l, hd, row, where % (row + 1)] = value
    elif target == "decode" and steps:
        vec = trace.decode[where % steps][l, hd]
        vec[where % len(vec)] = value
    text, binary = trace_to_text(trace), trace_to_binary(trace)
    for rows in (None, 1, n):
        want = load_outcome(trace_from_binary, binary, rows)
        got = load_outcome(trace_from_text, text, rows)
        if isinstance(want, AttentionTrace):
            assert isinstance(got, AttentionTrace) and got == want
        else:
            assert got == want


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
    containers, and as text with its payloads cut again."""
    paths = {"text": tmp_path / "t.json", "binary": tmp_path / "t.mkvt",
             "text_recut": tmp_path / "tr.json"}
    save_trace(mixed_trace, paths["text"])
    save_trace(mixed_trace, paths["binary"])
    paths["text_recut"].write_bytes(recut_text(mixed_trace))
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
        # The writer does not check the scores it writes.
        edited = dense(trace)
        edited.prefill[layer, head, row, col] = value
        if kind == "text":
            save_trace(edited, path)
        else:
            path.write_bytes(recut_text(edited))


class TestPartialLoad:
    @pytest.mark.parametrize("kind", ["text", "text_recut", "binary"])
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

    @pytest.mark.parametrize("kind", ["text", "text_recut", "binary"])
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


class _ReduceatSpy:
    """numpy as `modkv.trace` sees it, with a copy of every
    `np.add.reduceat` result kept in `sums`."""

    def __init__(self):
        self.sums = []
        self.add = self

    def reduceat(self, *args, **kwargs):
        out = np.add.reduceat(*args, **kwargs)
        self.sums.append(out.copy())
        return out

    def __getattr__(self, name):
        return getattr(np, name)


# Writer and loader of each container the prefill checks serve. The re-cut
# text puts piece boundaries, some mid-float, where the blocks do not.
CONTAINERS = {"binary": (trace_to_binary, trace_from_binary),
              "text_v2": (trace_to_text, trace_from_text),
              "text_v2_recut": (recut_text, trace_from_text)}


class TestPrefillBlocks:
    """The loaders check prefill rows in blocks of packed scores; a whole-head
    checker in the oracles is the reference. n = 361 fits one head in one
    default block and n = 362 does not; at 64 scores a block, n = 100 has
    rows longer than a block, a row that fills one exactly, and blocks of
    several rows."""

    CASES = [(361, None), (362, None), (100, 64)]

    @pytest.fixture(params=CASES, ids=["n361", "n362", "n100_block64"])
    def case(self, request, monkeypatch):
        n, block = request.param
        if block is not None:
            monkeypatch.setattr(trace_module, "_BLOCK_SCORES", block)
        block = trace_module._BLOCK_SCORES
        trace = dense(generate_synthetic(SyntheticTraceSpec(
            1, 2, n, 1, skew=1.2, modality_mix=0.5,
            head_preference_bias=(0.2, 0.8), seed=n)))
        blocks = trace_module._PrefillTail(1, 2, n, None).blocks
        sizes = [(b * (b + 1) - a * (a + 1)) // 2 for a, b in blocks]
        assert [a for a, _ in blocks] == [0] + [b for _, b in blocks[:-1]]
        assert blocks[-1][1] == n
        assert all(size <= block or b - a == 1 for (a, b), size in zip(blocks, sizes))
        if block == 64:
            assert any(size > block for size in sizes)
            assert block in sizes
            assert any(b - a > 1 for a, b in blocks)
        else:
            assert len(blocks) == (1 if n == 361 else 2)
        return trace, blocks

    @staticmethod
    def reference(trace, rows):
        """The oracle's kept rows and every row sum, per head."""
        h = trace.header
        tail = ReferencePrefillTail(h.num_layers, h.num_heads, h.prompt_len, rows)
        sums = [tail.add(l, hd, reference_packed_rows(trace, l, hd, 0, h.prompt_len))
                for l, hd in np.ndindex(h.num_layers, h.num_heads)]
        return tail, np.concatenate(sums)

    @pytest.mark.parametrize("kind", list(CONTAINERS))
    @pytest.mark.parametrize("rows", [None, 40])
    def test_loads_keep_the_oracles_rows_and_sums(self, case, kind, rows, monkeypatch):
        trace, _ = case
        want, want_sums = self.reference(trace, rows)
        write, load = CONTAINERS[kind]
        data = write(trace)
        spy = _ReduceatSpy()
        monkeypatch.setattr(trace_module, "np", spy)
        loaded = load(data, rows)
        monkeypatch.undo()
        assert loaded.first_row == want.first_row
        assert np.array_equal(loaded.prefill, want.prefill)
        sums = np.concatenate(spy.sums)
        assert sums.view(np.uint64).tolist() == want_sums.view(np.uint64).tolist()

    @pytest.mark.parametrize("kind", list(CONTAINERS))
    @pytest.mark.parametrize("fault", ["negative", "NaN", "row_sum", "sum_then_negative"])
    @pytest.mark.parametrize("where", ["block_first", "block_last", "kept"])
    def test_faults_are_named_as_validate_names_them(self, case, kind, fault, where):
        trace, blocks = case
        n = trace.header.prompt_len
        # The last block of several rows, or the only block.
        start, stop = [(a, b) for a, b in blocks if b - a > 1][-1]
        row = {"block_first": start, "block_last": stop - 1, "kept": n - 3}[where]
        edited = dense(trace)
        scores = edited.prefill[0, 1]
        if fault == "sum_then_negative":
            # A bad sum in the first block, a negative score here: the
            # negative is named, as validate checks signs first.
            scores[0, 0] += np.float32(0.5)
            scores[row, 0] = -0.25
        else:
            scores[row, 0] = {"negative": -0.25, "NaN": np.nan,
                              "row_sum": scores[row, 0] + np.float32(0.5)}[fault]
        with pytest.raises(ValidationError) as by_validate:
            edited.validate()
        write, load = CONTAINERS[kind]
        data = write(edited)
        seen = []
        for rows, on_head in [(None, None), (8, None),
                              (8, lambda header, l, hd, block: seen.append((l, hd)))]:
            with pytest.raises(ValidationError) as err:
                load(data, rows, on_head)
            assert str(err.value) == str(by_validate.value)
        assert f"(0, 1, {row})" in str(by_validate.value)
        # A head reaches on_head only once all its rows are checked.
        assert seen == [(0, 0)]

    @pytest.mark.parametrize("kind", list(CONTAINERS))
    def test_on_head_gets_each_heads_dense_block(self, case, kind):
        """A loader's on_head consumer gets every head, in (layer, head)
        order, as the float64 of its dense rows in one reused C-contiguous
        buffer, and the loaded trace is the one a load without it gives."""
        trace, _ = case
        write, load = CONTAINERS[kind]
        data = write(trace)
        seen, buffers = [], set()

        def on_head(header, layer, head, block):
            assert header == trace.header
            assert block.dtype == np.float64 and block.flags.c_contiguous
            buffers.add(id(block))
            seen.append((layer, head, block.copy()))

        assert load(data, 8, on_head) == load(data, 8)
        assert [(l, hd) for l, hd, _ in seen] == [(0, 0), (0, 1)]
        assert len(buffers) == 1
        for l, hd, block in seen:
            assert block.tobytes() == trace.head_rows(l, hd).astype(np.float64).tobytes()


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

    def test_text_piece_that_is_not_a_string_is_a_format_error(self, mixed_trace):
        doc = json.loads(trace_to_text(mixed_trace))
        doc["prefill"][0][1].append([0.5])
        for rows in (None, 8):
            with pytest.raises(FormatError) as err:
                trace_from_text(json.dumps(doc).encode(), rows=rows)
            assert str(err.value) == "prefill[0][1][1] must be a base64 string, got list"

    @pytest.mark.parametrize("value, message", [
        ("x", "decode[1][0] is not base64: "),
        ("0.25", "decode[1][0] is not base64: Only base64 data is allowed"),
        (True, "decode[1][0] must be a base64 string, got bool"),
        ([0.5], "decode[1][0] must be a base64 string, got list"),
    ], ids=["x", "0.25", "True", "list"])
    def test_decode_piece_that_is_not_base64_is_a_format_error(self, mixed_trace, value,
                                                               message):
        doc = json.loads(trace_to_text(mixed_trace))
        doc["decode"][1][0] = value
        for rows in (None, 8):
            with pytest.raises(FormatError) as err:
                trace_from_text(json.dumps(doc).encode(), rows=rows)
            assert str(err.value).startswith(message)

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

    @pytest.mark.parametrize("rows", [None, 8], ids=["dense", "rows8"])
    def test_loaded_packed_rows_equal_the_reference_gather(self, tmp_path, mixed_trace,
                                                           rows):
        path = tmp_path / "t.mkvt"
        save_trace(mixed_trace, path)
        trace = load_trace(path, rows=rows)
        n = trace.header.prompt_len
        first = trace.first_row
        windows = [(first, n), (first, first + 1), (n - 1, n), (first + 2, n - 3)]
        for l, hd in np.ndindex(2, 2):
            for start, stop in windows:
                packed = trace.packed_rows(l, hd, start, stop)
                assert packed.dtype == np.dtype("<f4")
                for source in (trace, mixed_trace):
                    want = reference_packed_rows(source, l, hd, start, stop)
                    assert packed.tobytes() == want.tobytes()

    def test_packed_rows_below_the_tail_are_refused_as_in_head_rows(self, mixed_trace):
        part = dense(mixed_trace, 8)
        for start in (0, 15):
            with pytest.raises(ParameterError) as packed:
                part.packed_rows(1, 0, start, 20)
            with pytest.raises(ParameterError) as rows:
                part.head_rows(1, 0, start, 20)
            assert str(packed.value) == str(rows.value)
            assert f"prompt row {start} requested" in str(packed.value)


class TestPartialTraceConsumers:
    def test_whole_cube_consumers_refuse_a_partial_trace(self, mixed_trace):
        part = dense(mixed_trace, 8)
        for consumer in (trace_to_binary, trace_to_text,
                         lambda t: head_text_share(t.head_rows(0, 0), t.header.text_mask, 0, 0)):
            with pytest.raises(ParameterError, match="prompt row 0 requested"):
                consumer(part)

    def test_importance_needs_no_more_rows_than_held(self, mixed_trace):
        part = dense(mixed_trace, 8)
        assert np.array_equal(
            proxy_importance_matrix(part, ProxyConfig(8)),
            proxy_importance_matrix(mixed_trace, ProxyConfig(8)),
        )
        assert np.array_equal(
            proxy_importance_matrix(part, ProxyConfig(5)),
            proxy_importance_matrix(mixed_trace, ProxyConfig(5)),
        )
        with pytest.raises(ParameterError, match="9 proxy rows"):
            proxy_importance_matrix(part, ProxyConfig(9))


# ---------------------------------------------------------------------------
# bounded memory


@pytest.fixture(scope="module")
def big_diagonal(tmp_path_factory):
    """A 4x4x1024 trace, every prompt row on its own position, as a binary
    file and a text file."""
    L, H, n = 4, 4, 1024
    prefill = np.zeros((L, H, n, n), dtype=np.float32)
    idx = np.arange(n)
    prefill[:, :, idx, idx] = 1.0
    decode = [np.full((L, H, n + s), 1.0 / (n + s), dtype=np.float32) for s in range(2)]
    labels = np.arange(n) % 3 == 0
    trace = AttentionTrace(TraceHeader(L, H, n, 2, labels), prefill, decode)
    folder = tmp_path_factory.mktemp("big")
    binary, text = folder / "big.mkvt", folder / "big.json"
    save_trace(trace, binary)
    save_trace(trace, text)
    return binary, text


MIB = 1 << 20


def no_whole_document(*args, **kwargs):
    raise AssertionError("the text loader parsed the whole document")


class TestBoundedMemory:
    def test_binary_partial_load_stays_small(self, big_diagonal):
        binary, _ = big_diagonal
        trace, peak = traced_peak(lambda: load_trace(binary, rows=8))
        assert trace.prefill.shape == (4, 4, 8, 1024)
        # Rows are read and checked in blocks of 256 KiB of float32 and
        # 512 KiB of float64, and the kept rows take 512 KiB. One head's
        # packed float32 triangle is 2 MiB, the file 32 MiB and the dense
        # cube 64 MiB.
        assert peak < 16 * MIB
        assert peak < 4 * (1024 * 1025 // 2)

    @pytest.mark.parametrize("container", ["binary", "text"])
    def test_analyze_holds_one_head_not_the_cube(self, big_diagonal, tmp_path, container):
        path = big_diagonal[0 if container == "binary" else 1]
        code, peak = traced_peak(
            lambda: cli_main(["analyze", "--trace", str(path), "--out", str(tmp_path)]))
        assert code == 0
        n = 1024
        head = 8 * n * n  # one head's float64 block: 8 MiB
        # Its text columns, the copy head_text_share sums: 5.3 MiB.
        text_columns = 8 * n * int(np.count_nonzero(np.arange(n) % 3))
        proxy = 4 * 4 * 8 * n * 4  # the 8 proxy rows kept: 512 KiB
        # The text loader also holds one head's packed float32 bytes, 2 MiB.
        packed = 4 * (n * (n + 1) // 2) if container == "text" else 0
        # The dense cube is 64 MiB.
        assert peak < head + text_columns + proxy + packed + 4 * MIB

    def test_analyze_holds_one_trace_at_a_time(self, big_diagonal, tmp_path):
        """analyze over two traces peaks no higher than over the first of
        them, give or take 10%: each trace is freed before the next loads."""
        binary, text = big_diagonal

        def peak(traces, out):
            argv = ["analyze", *(a for p in traces for a in ("--trace", str(p))),
                    "--out", str(out)]
            code, peak_bytes = traced_peak(lambda: cli_main(argv))
            assert code == 0
            return peak_bytes

        # Traces are named by their stems, which must differ.
        other = tmp_path / "other.mkvt"
        other.symlink_to(binary)
        one = peak([text], tmp_path / "one")
        two = peak([text, other], tmp_path / "two")
        assert two <= 1.10 * one, (one, two)

    @pytest.mark.parametrize("name", ["gen.mkvt", "gen.json"])
    def test_generated_save_builds_no_dense_cube(self, tmp_path, name):
        spec = SyntheticTraceSpec(4, 4, 1024, 2, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=(0.1, 0.9, 0.1, 0.9), seed=3)
        path = tmp_path / name

        def generate_and_save():
            trace = generate_synthetic(spec)
            save_trace(trace, path)
            return trace

        trace, peak = traced_peak(generate_and_save)
        payload = 4 * 16 * (1024 * 1025 // 2 + 1024 + 1025)
        if name.endswith(".mkvt"):
            assert path.stat().st_size == 4 + 5 * 4 + 128 + payload
        else:
            # Base64 spells 3 bytes in 4 characters.
            assert 4 * payload // 3 < path.stat().st_size < 4 * payload // 3 + 64 * 1024
        assert load_trace(path, rows=8) == dense(trace, 8)
        # The writers take about 1 MiB of float32 rows at a time; one head's
        # (n, n) float32 block is 4 MiB, the binary file 32 MiB and the dense
        # cube 64 MiB.
        assert peak < 6 * MIB

    @pytest.mark.parametrize("name", ["gen.mkvt", "gen.json"])
    def test_generated_save_keeps_one_layer_of_factors(self, tmp_path, name):
        """Saving a generated trace holds the row factors of one layer at a
        time: beyond the trace's own weights and decode scales, which exist
        before tracing starts, the peak grows with H·n, not with L·H·n."""
        L, H, n = 32, 16, 256
        spec = SyntheticTraceSpec(L, H, n, 2, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=(0.1, 0.9) * 8, seed=3)
        trace = generate_synthetic(spec)
        _, peak = traced_peak(lambda: save_trace(trace, tmp_path / name))
        # One layer's float32 scales and pool weights take 64 KiB, and the
        # writers' one chunk of a head (its 256 x 256 float32 block, mask and
        # packed rows) 448.5 KiB. Factors kept for every layer would take
        # 2 MiB: their (L, H, n, 2) float32 scale table alone is 1 MiB.
        assert peak < 4 * L * H * n * 2

    @pytest.mark.parametrize("name", ["gen.mkvt", "gen.json"])
    def test_generate_and_save_do_not_grow_with_decode_steps(self, tmp_path, name):
        """Generating and saving a trace holds one layer of one decode step at
        a time: 256 decode steps peak less than 256 KiB above one step."""
        path = tmp_path / name

        def peak(steps):
            spec = SyntheticTraceSpec(2, 4, 128, steps, skew=1.2, modality_mix=0.5,
                                      head_preference_bias=(0.1, 0.9, 0.1, 0.9), seed=3)
            return traced_peak(lambda: save_trace(generate_synthetic(spec), path))[1]

        peak(2)  # first calls allocate caches that later calls reuse
        one, many = peak(1), peak(256)
        # Holding the 256 steps would take 2.0 MiB of float32, and every
        # step's history at once 1.0 MiB of float64; one layer of the last
        # step is 6 KiB, and the pool scales kept for every (layer, step,
        # head) 32 KiB.
        assert many - one < 256 * 1024, (one, many)

    def test_text_v2_partial_load_builds_no_dense_cube(self, big_diagonal, monkeypatch):
        binary, text = big_diagonal
        monkeypatch.setattr(json, "loads", no_whole_document)
        trace, peak = traced_peak(lambda: load_trace(text, rows=8))
        assert trace == load_trace(binary, rows=8)
        # One head's bytes are 2 MiB, and the text held at a time up to
        # about 3 MiB; the file is 43 MiB and the dense cube 64 MiB.
        assert peak < 16 * MIB

    def test_a_long_payload_decodes_span_by_span(self):
        """Decoding an 8 MiB payload holds its decoded bytes and a few spans
        of scratch: no temporary grows with the payload beyond one ASCII copy
        of its text."""
        raw = np.random.default_rng(0).bytes(6 * MIB)
        text = base64.b64encode(raw).decode("ascii")
        assert len(text) == 8 * MIB
        got, peak = traced_peak(lambda: trace_module._b64decode(text))
        assert got == raw
        assert peak <= len(raw) + len(text) + MIB

    def test_text_head_of_many_pieces_is_held_once(self, tmp_path):
        """A head written in 16 pieces is decoded piece by piece into one
        buffer: the load holds one head's bytes, not its pieces and their
        join as well."""
        n = 2048
        assert len(list(trace_module._row_chunks(n))) == 16
        spec = SyntheticTraceSpec(1, 2, n, 2, skew=1.2, modality_mix=0.5,
                                  head_preference_bias=(0.1, 0.9), seed=3)
        path = tmp_path / "pieces.json"
        trace = generate_synthetic(spec)
        save_trace(trace, path)
        loaded, peak = traced_peak(lambda: load_trace(path, rows=8))
        assert loaded == dense(trace, 8)
        triangle = 4 * (n * (n + 1) // 2)  # 8.0 MiB
        piece = 4 * (n - 128) * 128 + 4 * 128 * 129 // 2  # the last 128 rows, 0.97 MiB
        # The reader's pending text reaches about 2 MiB, and a refill holds
        # it with its copy and the text read: about 5 MiB at most.
        assert peak < triangle + piece + 5 * MIB

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

    def test_malformed_first_score_fails_without_reading_on(self, big_diagonal, tmp_path):
        """Loading the text file with an invalid escape at the start of its
        first base64 string names that character and peaks well under the
        file's size in tracemalloc."""
        _, text = big_diagonal
        data = text.read_bytes()
        start = b'"prefill":[[["'
        assert data.count(start) == 1
        bad = tmp_path / "bad.json"
        bad.write_bytes(data.replace(start, start + b"\\q"))
        at = data.index(start) + len(start)  # the backslash
        del data

        def load():
            with pytest.raises(FormatError) as err:
                load_trace(bad, rows=8)
            return str(err.value)

        message, peak = traced_peak(load)
        assert message == f"not a valid text trace: Invalid \\escape at character {at}"
        # A chunk of text takes 1 MiB and the kept rows 512 KiB. The file is
        # 43 MiB.
        assert peak < 12 * MIB
