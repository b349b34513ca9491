"""Attention trace model and on-disk containers.

A trace is a recording of post-softmax attention scores from one multimodal
inference: causal prefill rows plus one score vector per decode step.
Nothing here recomputes attention; the simulator only ever replays what was
recorded.

A trace holds prompt rows ``first_row..n-1`` of each (layer, head). With the
default ``first_row = 0`` that is the whole causal prefill cube. The loaders
can keep only the last rows, which are all that importance and the
score-driven baselines read: they stream the file, check every row of every
head in blocks of at most 2**16 packed scores, and keep the tail. The binary
loader reads each block straight from the file, so it holds no buffer that
grows as n**2 beyond the rows it keeps. Every other reader of prefill rows,
here and in the rest of the package, reads one head at a time. Importance
asks ``AttentionTrace.head_rows`` for the proxy rows, validation and
equality for the rows held, and ``head_text_share`` for the whole (n, n)
block, which it sums as float64. The writers ask
``AttentionTrace.packed_rows`` for one chunk of a head's packed causal
triangle at a time, about 1 MiB of float32. A row below ``first_row`` is a
ParameterError in both. So a trace that computes its rows on demand, as the
synthetic generator's does, is simulated, compared and written without its
dense cube ever being built, and simulated and written without even one
whole (n, n) block.

Two interchangeable containers are supported and sniffed by magic bytes.
Both store scores as little-endian float32, so a save/load/save round trip
is byte-identical in either.

* The binary container: magic ``MKVT``, little-endian u32 header, modality
  labels packed as bits, then each (layer, head)'s packed causal triangle
  (row i's i + 1 scores after rows 0..i-1) and each decode step's
  (L, H, n + s) array.
* The text container, version 2 (``TEXT_FORMAT_VERSION``): one JSON object,
  ``{"format_version":2,"header":{...},"prefill":[...],"decode":[...]}``.
  ``prefill[l][h]`` is a list of padded base64 strings; their decoded bytes,
  joined, are that head's packed triangle, the same bytes the binary
  container stores. ``decode[s]`` is a list of base64 strings whose bytes,
  joined, are step s's array. The writer cuts one string per chunk of about
  1 MiB of rows for the prefill and one per layer for the decode; the loader
  accepts any cut, even one inside a float.

The text loader reads the JSON in chunks and parses one value at a time with
the stdlib scanner, so no whole-document object is built. It is therefore
stricter than a whole-document parse: ``header`` must come before
``prefill`` and ``decode``, and so must ``format_version`` in a version 2
file, and a field that appears twice in an object is an error. Each head's
decoded bytes go through the same checks as the binary container's.

Version 1 text files are read, never written. They spell each score as a
JSON number (the writer used the shortest decimal of its float64 value) and
each prefill row as its own list. They are parsed one row at a time; a
decimal is quantized to float32 on load. ``save_trace(load_trace(old),
new)`` converts one to version 2.
"""

from __future__ import annotations

import base64
import binascii
import codecs
import enum
import io
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParameterError, ValidationError
from .files import atomic_file

# Reports, plans, masks and the binary container.
FORMAT_VERSION = 1
# The text container written; version 1 text is still read.
TEXT_FORMAT_VERSION = 2
BINARY_MAGIC = b"MKVT"

# Every attention row must sum to one within this tolerance. Row sums are
# always accumulated in float64 so float32 storage noise stays far below it.
ROW_SUM_TOL = 1e-6

# The loaders check prefill rows in blocks of at most this many packed
# scores: 256 KiB of float32, 512 KiB as float64.
_BLOCK_SCORES = 1 << 16
# The text loader reads this many bytes at a time.
_TEXT_CHUNK = 1 << 20
_WHITESPACE = re.compile(r"[ \t\n\r]*")
# The scanner parses strings and true and false inside a list of scores, but
# a score must be a number (null is NaN, which validation rejects). A list of
# numbers holds none of the characters '"tf' unless it holds Infinity, so
# finding none of them, a fast scan, settles almost every list.
_NOT_NUMBER = re.compile(r'"|true|false')
# Outside a string, the scanner reads at most this many characters past the
# point where a parse fails ("-Infinity", or the escapes of a surrogate pair,
# are the longest reads), so a failure further than this from the end of the
# text is not one that more text could mend.
_LOOKAHEAD = 16


class Modality(enum.Enum):
    """Token tag: plain text or visual (image patch / frame embedding)."""

    TEXT = "text"
    VISUAL = "visual"

    @classmethod
    def from_str(cls, value: str) -> "Modality":
        try:
            return cls(value)
        except ValueError:
            raise FormatError(f"unknown modality label {value!r}") from None


@dataclass(frozen=True)
class TraceHeader:
    """Shape metadata for a trace.

    Attributes:
        num_layers: transformer layers recorded (>= 1).
        num_heads: attention heads per layer (>= 1).
        prompt_len: prompt tokens n (>= 1).
        num_decode_steps: recorded decode steps (>= 0).
        modality_labels: boolean vector of length prompt_len, True = visual.
    """

    num_layers: int
    num_heads: int
    prompt_len: int
    num_decode_steps: int
    modality_labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("num_layers", "num_heads", "prompt_len"):
            if int(getattr(self, name)) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if int(self.num_decode_steps) < 0:
            raise ValidationError(
                f"num_decode_steps must be >= 0, got {self.num_decode_steps}"
            )
        labels = np.asarray(self.modality_labels)
        if labels.dtype != np.bool_:
            raise ValidationError(f"modality labels must be booleans, got {labels.dtype}")
        if labels.shape != (self.prompt_len,):
            raise ValidationError(
                f"expected {self.prompt_len} modality labels, got {labels.shape}"
            )
        object.__setattr__(self, "modality_labels", labels.copy())

    @property
    def text_mask(self) -> np.ndarray:
        return ~self.modality_labels

    def label_strings(self) -> list[str]:
        return [
            Modality.VISUAL.value if v else Modality.TEXT.value
            for v in self.modality_labels
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceHeader):
            return NotImplemented
        return (
            self.num_layers == other.num_layers
            and self.num_heads == other.num_heads
            and self.prompt_len == other.prompt_len
            and self.num_decode_steps == other.num_decode_steps
            and np.array_equal(self.modality_labels, other.modality_labels)
        )


@dataclass
class AttentionTrace:
    """A recorded attention trace.

    Attributes:
        header: shape metadata and modality labels.
        prefill: float32 array (L, H, n - first_row, n); row j of each
            (layer, head) holds prompt row i = first_row + j, a causal
            probability vector over positions 0..i (zero beyond i).
        decode: list of float32 arrays, one per decode step; step s (0-based)
            has shape (L, H, n + s), a probability vector over the prompt plus
            the s decode tokens generated before it.
        first_row: the first prompt row held; 0 (the default) holds the dense
            causal cube.

    Read prefill rows through `head_rows`, never `prefill`: a generated trace
    computes its rows and stores no prefill array.
    """

    header: TraceHeader
    prefill: np.ndarray = field(repr=False)
    decode: list[np.ndarray]
    first_row: int = 0

    def __post_init__(self):
        self.prefill = np.ascontiguousarray(self.prefill, dtype=np.float32)
        self.decode = [np.ascontiguousarray(d, dtype=np.float32) for d in self.decode]

    def validate(self) -> None:
        """Check every structural invariant, raising ValidationError with the
        offending (layer, head, row) coordinates on the first failure. Rows
        are reported as prompt rows, whatever `first_row` is."""
        h = self.header
        L, H, n = h.num_layers, h.num_heads, h.prompt_len
        first = self.first_row
        if not 0 <= first < n:
            raise ValidationError(f"first_row {first} out of range for prompt length {n}")
        # A generated trace computes its rows and stores no prefill array.
        stored = getattr(self, "prefill", None)
        if stored is not None and stored.shape != (L, H, n - first, n):
            raise ValidationError(
                f"prefill shape {stored.shape} does not match header "
                f"({L}, {H}, {n - first}, {n})"
            )
        if len(self.decode) != h.num_decode_steps:
            raise ValidationError(
                f"decode has {len(self.decode)} steps, header says {h.num_decode_steps}"
            )
        # future[j, c]: column c lies after prompt row first + j.
        future = np.arange(n) > np.arange(first, n)[:, None]
        for l, hd in np.ndindex(L, H):
            rows = self.head_rows(l, hd, first)
            # Each check tests what a valid score satisfies (>= 0, within the
            # tolerance), so that NaN fails it.
            ok = rows >= 0
            if not ok.all():
                j, c = np.argwhere(~ok)[0]
                raise _bad_score(rows[j, c], f"({l}, {hd}, {first + j})")
            ahead = rows[future] != 0
            if ahead.any():
                j = np.nonzero(future)[0][np.argmax(ahead)]
                raise ValidationError(
                    f"causality violated at ({l}, {hd}, {first + j}): "
                    f"mass on a future position"
                )
            sums = rows.sum(axis=1, dtype=np.float64)
            ok = np.abs(sums - 1.0) <= ROW_SUM_TOL
            if not ok.all():
                j = np.argmin(ok)
                raise ValidationError(
                    f"row sum {sums[j]:.6g} at ({l}, {hd}, {first + j})"
                )
        for s, vec in enumerate(self.decode):
            if vec.shape != (L, H, n + s):
                raise ValidationError(
                    f"decode step {s} has shape {vec.shape}, expected ({L}, {H}, {n + s})"
                )
            ok = vec >= 0
            if not ok.all():
                l, hd, c = np.argwhere(~ok)[0]
                raise _bad_score(vec[l, hd, c], f"decode step {s}, ({l}, {hd})")
            dsums = vec.sum(axis=2, dtype=np.float64)
            ok = np.abs(dsums - 1.0) <= ROW_SUM_TOL
            if not ok.all():
                l, hd = np.argwhere(~ok)[0]
                raise ValidationError(
                    f"row sum {dsums[l, hd]:.6g} at decode step {s}, ({l}, {hd})"
                )

    def head_rows(self, layer: int, head: int, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
        """Prompt rows start..stop-1 of one (layer, head), (stop - start, n);
        `stop` defaults to n. Rows are absolute: asking for a row below
        `first_row` raises ParameterError."""
        if start < self.first_row:
            raise ParameterError(
                f"prompt row {start} requested; this trace holds rows "
                f"{self.first_row}..{self.header.prompt_len - 1} only"
            )
        stop = self.header.prompt_len if stop is None else stop
        return self.prefill[layer, head, start - self.first_row:stop - self.first_row]

    def packed_rows(self, layer: int, head: int, start: int, stop: int) -> np.ndarray:
        """Prompt rows start..stop-1 of one head's packed causal triangle
        (row i's i + 1 scores after rows start..i-1), as little-endian
        float32. A row below `first_row` raises ParameterError, as in
        `head_rows`."""
        # Boolean indexing reads row-major, so the rows' lower triangles come
        # out in packed order. Columns from stop on are all zero.
        lower = np.tri(stop - start, stop, start, dtype=bool)
        rows = self.head_rows(layer, head, start, stop)[:, :stop]
        return np.ascontiguousarray(rows[lower], dtype="<f4")

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttentionTrace):
            return NotImplemented
        h = self.header
        return (
            h == other.header
            and self.first_row == other.first_row
            and all(
                np.array_equal(self.head_rows(l, hd, self.first_row),
                               other.head_rows(l, hd, other.first_row))
                for l, hd in np.ndindex(h.num_layers, h.num_heads)
            )
            and len(self.decode) == len(other.decode)
            and all(np.array_equal(a, b) for a, b in zip(self.decode, other.decode))
        )


def _bad_score(value, where: str) -> ValidationError:
    """The error for a score that is not >= 0: negative or NaN."""
    kind = "NaN" if np.isnan(value) else "negative"
    return ValidationError(f"{kind} score at {where}")


# ---------------------------------------------------------------------------
# streamed prefill rows


class _PrefillTail:
    """Checks each head's packed causal triangle one block of rows at a time
    and keeps its last rows.

    A packed triangle holds row i's i + 1 scores right after rows 0..i-1, as
    the binary container stores them. `blocks` cuts rows 0..n-1 into runs of
    at most _BLOCK_SCORES packed scores; a longer row is a block of its own.
    Every row of every head is checked, the dropped ones included: no
    negative or NaN score, and a float64 row sum within ROW_SUM_TOL of one.
    A head's bad row sum is raised only once all its scores are checked, so
    failures name the same (layer, head, row) that AttentionTrace.validate
    would on the dense cube.
    """

    def __init__(self, L: int, H: int, n: int, rows: int | None):
        if rows is not None and int(rows) < 1:
            raise ParameterError(f"rows must be >= 1, got {rows}")
        kept = n if rows is None else min(int(rows), n)
        self.first_row = n - kept
        # starts[i]: where row i begins in the packed triangle; starts[n] is
        # the triangle's size.
        i = np.arange(n + 1, dtype=np.int64)
        self.starts = i * (i + 1) // 2
        self.size = int(self.starts[n])
        self.blocks = []
        start = 0
        while start < n:
            fit = int(np.searchsorted(self.starts, self.starts[start] + _BLOCK_SCORES,
                                      side="right")) - 1
            stop = max(fit, start + 1)
            self.blocks.append((start, stop))
            start = stop
        self.block_size = max(int(self.starts[b] - self.starts[a]) for a, b in self.blocks)
        self._wide = np.empty(self.block_size, dtype=np.float64)
        # The kept rows' entries in a (kept, n) block, in packed order.
        self._tail_mask = np.tri(kept, n, self.first_row, dtype=bool)
        self.prefill = np.zeros((L, H, kept, n), dtype=np.float32)

    def add(self, layer: int, head: int, read) -> None:
        """Check one head and keep its last rows. `read(lo, hi)` returns
        packed scores lo..hi-1 as float32, one block at a time."""
        bad_sum = None
        for start, stop in self.blocks:
            lo = int(self.starts[start])
            scores = read(lo, int(self.starts[stop]))
            # The minimum of scores holding a NaN is NaN, which fails too.
            if not scores.min() >= 0:
                pos = lo + int(np.argmin(scores >= 0))
                row = int(np.searchsorted(self.starts, pos, side="right")) - 1
                raise _bad_score(scores[pos - lo], f"({layer}, {head}, {row})")
            if bad_sum is None:
                wide = self._wide[:scores.size]
                np.copyto(wide, scores)
                sums = np.add.reduceat(wide, self.starts[start:stop] - lo)
                ok = np.abs(sums - 1.0) <= ROW_SUM_TOL
                if not ok.all():
                    j = int(np.argmin(ok))
                    bad_sum = ValidationError(
                        f"row sum {sums[j]:.6g} at ({layer}, {head}, {start + j})"
                    )
            keep = max(start, self.first_row)
            if keep < stop:
                rows = slice(keep - self.first_row, stop - self.first_row)
                self.prefill[layer, head, rows][self._tail_mask[rows]] = \
                    scores[self.starts[keep] - lo:]
        if bad_sum is not None:
            raise bad_sum


def _row_chunks(n: int, scores: int = 2**18):
    """(start, stop) pairs that cover prompt rows 0..n-1, each chunk about
    `scores` scores (by default 1 MiB of float32), so that a writer never
    holds a whole (n, n) block."""
    step = max(1, scores // n)
    for start in range(0, n, step):
        yield start, min(start + step, n)


# ---------------------------------------------------------------------------
# text container


def _json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True).encode("ascii")


def _write_base64(fh, payloads) -> None:
    """Write a JSON list of the base64 of each float32 array in `payloads`."""
    fh.write(b"[")
    for k, payload in enumerate(payloads):
        fh.write(b'"' if k == 0 else b',"')
        fh.write(base64.b64encode(payload))
        fh.write(b'"')
    fh.write(b"]")


def _write_text(trace: AttentionTrace, fh) -> None:
    """Write the text container, version 2, with a single trailing newline:
    each head's packed triangle as one base64 string per `_row_chunks` chunk,
    then each decode step as one base64 string per layer."""
    h = trace.header
    header = {
        "L": h.num_layers,
        "H": h.num_heads,
        "n": h.prompt_len,
        "T": h.num_decode_steps,
        "modality_labels": h.label_strings(),
    }
    fh.write(b'{"format_version":' + _json(TEXT_FORMAT_VERSION) + b',"header":' + _json(header))
    fh.write(b',"prefill":[')
    chunks = list(_row_chunks(h.prompt_len))
    for l in range(h.num_layers):
        fh.write(b"[" if l == 0 else b",[")
        for hd in range(h.num_heads):
            if hd:
                fh.write(b",")
            _write_base64(fh, (trace.packed_rows(l, hd, *rows) for rows in chunks))
        fh.write(b"]")
    fh.write(b'],"decode":[')
    for s, vec in enumerate(trace.decode):
        if s:
            fh.write(b",")
        _write_base64(fh, (np.ascontiguousarray(layer, dtype="<f4") for layer in vec))
    fh.write(b"]}\n")


def trace_to_text(trace: AttentionTrace) -> bytes:
    """The text container as bytes."""
    buf = io.BytesIO()
    _write_text(trace, buf)
    return buf.getvalue()


def _unique_fields(pairs: list) -> dict:
    """object_pairs_hook for the leaf decoder: a dict, or FormatError for a
    field that appears twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"duplicate field {key}")
        obj[key] = value
    return obj


class _JsonReader:
    """Reads one JSON document from a binary file, _TEXT_CHUNK bytes at a time.

    The caller walks the structure (`fields`, `items`) and asks for each leaf
    with `value`, which the stdlib scanner parses: numbers, strings and
    literals are accepted or rejected as `json.loads` would. Only the pending
    text is held. A value whose parse stops at the end of the buffer is
    accepted only at the end of the file, since a number may go on in the next
    chunk. A parse that fails near the end of the buffer, or in a string that
    the buffer ends before closing, is retried after a refill; any other
    failure, or one at the end of the file, is a FormatError at once. So a
    malformed value costs no more reading than a good one.
    """

    def __init__(self, fh):
        self._fh = fh
        self._utf8 = codecs.getincrementaldecoder("utf-8")()
        self._decoder = json.JSONDecoder(object_pairs_hook=_unique_fields)
        self._buf = ""
        self._pos = 0
        self._start = 0  # where the value last parsed starts in _buf
        self._dropped = 0  # characters consumed before _buf[0]
        self._eof = False

    def _refill(self) -> bool:
        """Append more text to the pending text, reading at least as many
        bytes as are pending so that a retried parse at least doubles its
        input. False, with the buffer untouched, at the end of the file."""
        size = max(_TEXT_CHUNK, len(self._buf) - self._pos)
        text = ""
        while not text and not self._eof:
            chunk = self._fh.read(size)
            self._eof = not chunk
            try:
                text = self._utf8.decode(chunk, final=self._eof)
            except UnicodeDecodeError as exc:
                raise FormatError(f"not a valid text trace: {exc}") from None
        if not text:
            return False
        self._dropped += self._pos
        self._buf = self._buf[self._pos:] + text
        self._pos = 0
        return True

    def _error(self, what: str) -> FormatError:
        return FormatError(
            f"not a valid text trace: {what} at character {self._dropped + self._pos}"
        )

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end of the file."""
        while True:
            self._pos = _WHITESPACE.match(self._buf, self._pos).end()
            if self._pos < len(self._buf):
                return self._buf[self._pos]
            if not self._refill():
                return ""

    def _take(self, chars: str) -> str:
        """Consume the next character, one of `chars`."""
        char = self.peek()
        if not char or char not in chars:
            raise self._error(" or ".join(repr(c) for c in chars) + " expected")
        self._pos += 1
        return char

    def value(self):
        """Parse the next value."""
        self.peek()
        # Top up a buffer that is running low, so that most values parse at
        # the first try: a failed parse also scans the buffer to build its
        # error.
        if len(self._buf) - self._pos < _TEXT_CHUNK // 2:
            self._refill()
        while True:
            try:
                obj, end = self._decoder.raw_decode(self._buf, self._pos)
            except json.JSONDecodeError as exc:
                truncated = (len(self._buf) - exc.pos < _LOOKAHEAD
                             or exc.msg.startswith("Unterminated string"))
                if truncated and self._refill():
                    continue
                raise FormatError(
                    f"not a valid text trace: {exc.msg} at character "
                    f"{self._dropped + exc.pos}"
                ) from None
            if end < len(self._buf) or not self._refill():
                self._start, self._pos = self._pos, end
                return obj

    def scores(self) -> tuple[object, bool]:
        """Parse the next value, which should hold scores; return it and
        whether its text holds nothing but numbers."""
        obj = self.value()
        start, end = self._start, self._pos
        numeric = (all(self._buf.find(c, start, end) < 0 for c in '"tf')
                   or not _NOT_NUMBER.search(self._buf, start, end))
        return obj, numeric

    def items(self, count: int | None, what: str):
        """Yield 0, 1, ... before each item of the array that comes next,
        for the caller to parse; FormatError(what) unless the value is an
        array, of `count` items unless `count` is None."""
        if self.peek() != "[":
            raise FormatError(what)
        self._pos += 1
        size = 0
        if self.peek() == "]":
            self._pos += 1
        else:
            while True:
                if size == count:
                    raise FormatError(what)
                yield size
                size += 1
                if self._take(",]") == "]":
                    break
        if count is not None and size != count:
            raise FormatError(what)

    def fields(self, what: str):
        """Yield the name of each field of the object that comes next, for
        the caller to parse its value; FormatError(what) unless the value is
        an object, and FormatError for a duplicate field."""
        if self.peek() != "{":
            raise FormatError(what)
        self._pos += 1
        if self.peek() == "}":
            self._pos += 1
            return
        seen = set()
        while True:
            if self.peek() != '"':
                raise self._error("field name expected")
            key = self.value()
            if key in seen:
                raise FormatError(f"duplicate field {key}")
            seen.add(key)
            self._take(":")
            yield key
            if self._take(",}") == "}":
                return

    def end(self) -> None:
        """FormatError unless only whitespace is left."""
        if self.peek():
            raise self._error("data after the top-level object")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise FormatError(f"missing field {where}{key}")
    return obj[key]


def _text_header(obj) -> TraceHeader:
    """The header, from its parsed JSON object."""
    if not isinstance(obj, dict):
        raise FormatError("header must be an object")
    L = _require(obj, "L", "header.")
    H = _require(obj, "H", "header.")
    n = _require(obj, "n", "header.")
    T = _require(obj, "T", "header.")
    labels_raw = _require(obj, "modality_labels", "header.")
    for name, val in (("L", L), ("H", H), ("n", n), ("T", T)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise FormatError(f"header.{name} must be an integer, got {val!r}")
    if not isinstance(labels_raw, list) or len(labels_raw) != n:
        raise FormatError(f"header.modality_labels must be a list of length {n}")
    labels = np.array([Modality.from_str(s) is Modality.VISUAL for s in labels_raw])
    try:
        return TraceHeader(L, H, n, T, labels)
    except ValidationError as exc:
        raise FormatError(f"bad header: {exc}") from None


def _read_base64(reader: _JsonReader, where: str, count: int) -> bytes:
    """Parse a list of base64 strings at `where` whose decoded bytes, joined,
    are `count` float32 scores; return those bytes. The list may be cut
    anywhere. A list that runs past the expected size fails at once."""
    want = 4 * count
    pieces, got = [], 0
    for k in reader.items(None, f"{where} must be a list of base64 strings"):
        piece = reader.value()
        if not isinstance(piece, str):
            raise FormatError(
                f"{where}[{k}] must be a base64 string, got {type(piece).__name__}"
            )
        try:
            raw = base64.b64decode(piece, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise FormatError(f"{where}[{k}] is not base64: {exc}") from None
        del piece  # held no longer than its bytes
        got += len(raw)
        if got > want:
            raise FormatError(f"{where} holds more than {want} bytes ({count} float32 scores)")
        pieces.append(raw)
    if got != want:
        raise FormatError(f"{where} holds {got} bytes, expected {want} ({count} float32 scores)")
    # A single piece is joined without a copy.
    return b"".join(pieces)


def _read_prefill_v2(reader: _JsonReader, header: TraceHeader, tail: _PrefillTail) -> None:
    """Parse a version 2 prefill one head at a time, passing each head's
    packed triangle to `tail`."""
    L, H = header.num_layers, header.num_heads
    for l in reader.items(L, f"prefill must be a list of {L} layers"):
        for hd in reader.items(H, f"prefill[{l}] must be a list of {H} heads"):
            raw = _read_base64(reader, f"prefill[{l}][{hd}]", tail.size)
            tri = np.frombuffer(raw, "<f4")
            tail.add(l, hd, lambda lo, hi: tri[lo:hi])
            # Free the head before the next is read.
            del raw, tri


def _read_decode_v2(reader: _JsonReader, s: int, header: TraceHeader) -> np.ndarray:
    """Parse version 2 decode step `s`, (L, H, n + s) float32."""
    shape = (header.num_layers, header.num_heads, header.prompt_len + s)
    raw = _read_base64(reader, f"decode[{s}]", shape[0] * shape[1] * shape[2])
    # A copy, writable as the binary loader's arrays are.
    return np.frombuffer(raw, "<f4").reshape(shape).copy()


# Why a version 1 list of scores cannot be read. An integer too large for a
# float64 (JSON integers have no limit) is out of range.
_NOT_NUMBERS = "scores must be numbers"
_OUT_OF_RANGE = "score out of range"
# Without format_version, prefill and decode are read as version 1, so a
# version 2 file must give its version first.
_LATE_VERSION = f"format_version {TEXT_FORMAT_VERSION} must come before prefill and decode"


def _read_head(reader: _JsonReader, l: int, hd: int, n: int, tri: np.ndarray,
               unversioned: bool) -> None:
    """Parse version 1 prefill[l][hd], a list of n rows, one row at a time
    into the packed triangle `tri`. A bad score is reported once every row's
    length is checked. `unversioned`: no format_version came first, so a
    base64 string in place of a row means a version 2 file that gives its
    version late."""
    bad = None
    # A score too large for a float32 overflows its cast.
    with np.errstate(over="raise"):
        for i in reader.items(n, f"prefill[{l}][{hd}] must be a list of {n} rows"):
            row, plain = reader.scores()
            if unversioned and isinstance(row, str):
                raise FormatError(_LATE_VERSION)
            if not isinstance(row, list) or len(row) != i + 1:
                raise FormatError(
                    f"prefill[{l}][{hd}] row {i}: expected {i + 1} entries, "
                    f"got {len(row) if isinstance(row, list) else type(row).__name__}"
                )
            if bad is None and not plain:
                bad = _NOT_NUMBERS
            if bad is None:
                start = i * (i + 1) // 2
                try:
                    tri[start:start + i + 1] = np.fromiter(row, dtype=np.float32, count=i + 1)
                except (TypeError, ValueError):
                    bad = _NOT_NUMBERS
                except (OverflowError, FloatingPointError):
                    bad = _OUT_OF_RANGE
    if bad is not None:
        raise FormatError(f"prefill[{l}][{hd}]: {bad}")


def _read_prefill(reader: _JsonReader, header: TraceHeader, tail: _PrefillTail,
                  unversioned: bool) -> None:
    """Parse a version 1 prefill one head at a time, passing each head to
    `tail`."""
    L, H, n = header.num_layers, header.num_heads, header.prompt_len
    tri = np.empty(tail.size, dtype=np.float32)
    for l in reader.items(L, f"prefill must be a list of {L} layers"):
        for hd in reader.items(H, f"prefill[{l}] must be a list of {H} heads"):
            _read_head(reader, l, hd, n, tri, unversioned)
            tail.add(l, hd, lambda lo, hi: tri[lo:hi])


def _decode_step(step, plain: bool, s: int, header: TraceHeader,
                 unversioned: bool) -> np.ndarray:
    """Check version 1 decode step `s`, parsed as one value, and convert it.
    `plain` says whether its text holds nothing but numbers; if not, the
    vectors are searched for the score that is not one. `unversioned` as for
    `_read_head`."""
    L, H, want = header.num_layers, header.num_heads, header.prompt_len + s
    arr = np.zeros((L, H, want), dtype=np.float32)
    if unversioned and isinstance(step, list) and step and isinstance(step[0], str):
        raise FormatError(_LATE_VERSION)
    if not isinstance(step, list) or len(step) != L:
        raise FormatError(f"decode[{s}] must be a list of {L} layers")
    for l, layer in enumerate(step):
        if not isinstance(layer, list) or len(layer) != H:
            raise FormatError(f"decode[{s}][{l}] must be a list of {H} heads")
        for hd, vec in enumerate(layer):
            if not isinstance(vec, list) or len(vec) != want:
                raise FormatError(
                    f"decode[{s}][{l}][{hd}]: expected {want} entries, "
                    f"got {len(vec) if isinstance(vec, list) else type(vec).__name__}"
                )
            numbers = plain or all(type(x) in (int, float) for x in vec)
            try:
                # A score too large for a float32 overflows its cast.
                with np.errstate(over="raise"):
                    arr[l, hd] = vec
            except (TypeError, ValueError):
                numbers = False
            except (OverflowError, FloatingPointError):
                if numbers:
                    raise FormatError(f"decode[{s}][{l}][{hd}]: {_OUT_OF_RANGE}") from None
            if not numbers:
                raise FormatError(f"decode[{s}][{l}][{hd}]: {_NOT_NUMBERS}")
    return arr


def trace_from_text(data, rows: int | None = None) -> AttentionTrace:
    """Parse a text container, version 2 or 1, from bytes or an open binary
    file.

    `rows` keeps only the last `rows` prompt rows of each (layer, head); None
    keeps all of them. Every row is checked either way. The document is read
    in chunks and parsed one value at a time (a base64 string, or a version 1
    prefill row or decode step), so no whole-document object is built;
    `header` must therefore come before `prefill` and `decode`, and so must
    `format_version` in a version 2 file.
    """
    if isinstance(data, (bytes, bytearray)):
        data = io.BytesIO(data)
    reader = _JsonReader(data)
    header = tail = version = None
    seen = set()
    decode = []
    for key in reader.fields("top-level value must be an object"):
        if key in ("prefill", "decode") and header is None:
            raise FormatError(f"header must come before {key}")
        if key == "format_version":
            version = reader.value()
            if version != FORMAT_VERSION and version != TEXT_FORMAT_VERSION:
                raise FormatError(f"unsupported format_version {version!r}")
            if version == TEXT_FORMAT_VERSION and seen & {"prefill", "decode"}:
                raise FormatError(_LATE_VERSION)
        elif key == "header":
            header = _text_header(reader.value())
            tail = _PrefillTail(header.num_layers, header.num_heads, header.prompt_len, rows)
        elif key == "prefill":
            if version == TEXT_FORMAT_VERSION:
                _read_prefill_v2(reader, header, tail)
            else:
                _read_prefill(reader, header, tail, version is None)
        elif key == "decode":
            T = header.num_decode_steps
            for s in reader.items(T, f"decode must be a list of {T} steps"):
                if version == TEXT_FORMAT_VERSION:
                    decode.append(_read_decode_v2(reader, s, header))
                else:
                    decode.append(_decode_step(*reader.scores(), s, header, version is None))
        else:
            reader.value()  # an unknown field is ignored
        seen.add(key)
    reader.end()
    for key in ("format_version", "header", "prefill", "decode"):
        if key not in seen:
            raise FormatError(f"missing field {key}")

    trace = AttentionTrace(header, tail.prefill, decode, tail.first_row)
    trace.validate()
    return trace


# ---------------------------------------------------------------------------
# binary container
#
# layout: MKVT | u32 version | u32 L | u32 H | u32 n | u32 T
#         | ceil(n/8) bytes of labels (bit i set = visual, LSB-first)
#         | prefill scores, f32le, [layer][head][row] lower triangle only
#         | decode scores, f32le, [step][layer][head][position]


def _write_binary(trace: AttentionTrace, fh) -> None:
    """Write the binary container, each (layer, head)'s packed triangle one
    `_row_chunks` chunk at a time."""
    h = trace.header
    L, H, n, T = h.num_layers, h.num_heads, h.prompt_len, h.num_decode_steps
    fh.write(BINARY_MAGIC)
    fh.write(np.array([FORMAT_VERSION, L, H, n, T], dtype="<u4").tobytes())
    fh.write(np.packbits(h.modality_labels, bitorder="little").tobytes())
    for l in range(L):
        for hd in range(H):
            for start, stop in _row_chunks(n):
                fh.write(trace.packed_rows(l, hd, start, stop).data)
    for vec in trace.decode:
        fh.write(np.ascontiguousarray(vec, dtype="<f4").data)


def trace_to_binary(trace: AttentionTrace) -> bytes:
    """The binary container as bytes."""
    buf = io.BytesIO()
    _write_binary(trace, buf)
    return buf.getvalue()


def _fill(fh, buf: np.ndarray, what: str) -> None:
    """Read exactly buf.nbytes bytes from fh into buf."""
    view = memoryview(buf.reshape(-1).view(np.uint8))
    got = 0
    while got < len(view):
        count = fh.readinto(view[got:])
        if not count:
            raise FormatError(f"truncated file: {what}")
        got += count


def trace_from_binary(data, rows: int | None = None) -> AttentionTrace:
    """Parse a binary container from bytes or an open binary file.

    `rows` keeps only the last `rows` prompt rows of each (layer, head); None
    keeps all of them. The length is checked against the header first; the
    prefill is then read one block of rows at a time, straight from the file
    into one reused block buffer, and every row of every head is checked.
    """
    if isinstance(data, (bytes, bytearray)):
        fh, size = io.BytesIO(data), len(data)
    else:
        fh, size = data, os.fstat(data.fileno()).st_size - data.tell()
    head = fh.read(4 + 5 * 4)
    if head[:4] != BINARY_MAGIC:
        raise FormatError("bad magic: not a binary trace")
    if len(head) < 4 + 5 * 4:
        raise FormatError("truncated file: header")
    version, L, H, n, T = (int(x) for x in np.frombuffer(head, dtype="<u4", offset=4))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version}")
    if min(L, H, n) < 1:
        raise FormatError(f"bad header dimensions L={L} H={H} n={n}")
    pos = 4 + 5 * 4
    label_bytes = (n + 7) // 8
    if size < pos + label_bytes:
        raise FormatError("truncated file: modality labels")
    tri_count = L * H * (n * (n + 1) // 2)
    decode_count = L * H * (T * n + T * (T - 1) // 2)
    want = pos + label_bytes + 4 * (tri_count + decode_count)
    if size != want:
        raise FormatError(
            f"file length {size} does not match header (expected {want})"
        )

    packed = np.empty(label_bytes, dtype=np.uint8)
    _fill(fh, packed, "modality labels")
    bits = np.unpackbits(packed, bitorder="little")[:n].astype(bool)
    header = TraceHeader(L, H, n, T, bits)

    tail = _PrefillTail(L, H, n, rows)
    block = np.empty(tail.block_size, dtype="<f4")

    def read(lo: int, hi: int) -> np.ndarray:
        _fill(fh, block[:hi - lo], "prefill scores")
        return block[:hi - lo]

    for l in range(L):
        for hd in range(H):
            tail.add(l, hd, read)
    decode = []
    for s in range(T):
        vec = np.empty((L, H, n + s), dtype="<f4")
        _fill(fh, vec, "decode scores")
        decode.append(vec)
    if fh.read(1):
        raise FormatError(f"file grew while it was read (expected {want} bytes)")

    trace = AttentionTrace(header, tail.prefill, decode, tail.first_row)
    trace.validate()
    return trace


# ---------------------------------------------------------------------------
# file front end


def save_trace(trace: AttentionTrace, path: str | os.PathLike, *, binary: bool | None = None) -> None:
    """Write a trace. Format comes from `binary` or, when None, the suffix
    (``.mkvt`` means binary, anything else text, version 2). The write is
    atomic and streams about 1 MiB of one head's packed triangle at a time
    from `trace.packed_rows`."""
    path = os.fspath(path)
    if binary is None:
        binary = path.endswith(".mkvt")
    with atomic_file(path) as fh:
        (_write_binary if binary else _write_text)(trace, fh)


def load_trace(path: str | os.PathLike, rows: int | None = None) -> AttentionTrace:
    """Read a trace, sniffing the container by magic bytes, and validate it.

    `rows` keeps only the last `rows` prompt rows of each (layer, head), as
    many as importance or a baseline's observation window reads; None keeps
    the dense cube. Every row is checked either way, and the file is streamed
    rather than read whole: a binary file one block of rows at a time, a text
    file one head at a time.
    """
    with open(path, "rb") as fh:
        binary = fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
        fh.seek(0)
        if binary:
            return trace_from_binary(fh, rows)
        return trace_from_text(fh, rows)
