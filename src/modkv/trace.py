"""Attention trace model and on-disk containers.

A trace is a recording of post-softmax attention scores from one multimodal
inference: causal prefill rows plus one score vector per decode step.
Nothing here recomputes attention; the simulator only ever replays what was
recorded.

A trace holds prompt rows ``first_row..n-1`` of each (layer, head). With the
default ``first_row = 0`` that is the whole causal prefill cube. The loaders
can keep only the last rows, which are all that importance and the
score-driven baselines read: they stream the file, check every row of every
head in blocks of at most 2**16 packed scores, and keep the tail, one layer
at a time. Each layer's kept rows go to the loader's ``on_layer`` consumer as
a trace of that layer alone (``layer`` set), in one reused buffer, so a
reader that works a layer at a time holds no (L, H, rows, n) tail. A reader
of every row, such as ``head_text_share``, gets each head from the loader's
``on_head`` consumer instead: one reused float64 (n, n) buffer, filled from
the blocks as they are checked. The binary loader reads each block straight
from the file, so it holds no buffer that grows as n**2 beyond the rows it
keeps and, with ``on_head``, that one head buffer. Every other reader of
prefill rows, here and in the rest of the package, reads one head at a time.
Importance asks ``AttentionTrace.head_rows`` for the proxy rows, and
validation and equality for the rows held. The writers ask
``AttentionTrace.packed_rows`` for one chunk of a head's packed causal
triangle at a time, about 1 MiB of float32. A row below ``first_row`` is a
ParameterError in both. So a loaded trace is analyzed without its dense cube
ever being built, and a trace that computes its rows on demand, as the
synthetic generator's does, is simulated, compared and written without it,
and simulated and written without even one whole (n, n) block. The writers
likewise take each decode step one layer at a time from
``AttentionTrace.decode_rows``, so a generated trace is written without its
decode steps being built, and ``AttentionTrace.decode_steps`` builds one
whole step at a time from them.

A loader can also stream the decode steps instead of keeping them. Both
containers store them after the prefill. Given ``on_layer``, ``on_prefill``
or ``on_decode``, the loader hands the checked trace, holding its kept rows
and no steps, to ``on_prefill`` (if given) and lets it go; it then hands
``on_decode`` an iterator over the steps, each checked before it is yielded.
So a reader that replays every step holds one step at a time.

Two interchangeable containers are supported and sniffed by magic bytes.
Both store scores as little-endian float32, so a save/load/save round trip
is byte-identical in either.

* The binary container: magic ``MKVT``, little-endian u32 header, modality
  labels packed as bits, then each (layer, head)'s packed causal triangle
  (row i's i + 1 scores after rows 0..i-1) and each decode step's
  (L, H, n + s) array.
* The text container, version 2 (``TEXT_FORMAT_VERSION``): one JSON object,
  ``{"format_version":2,"header":{...},"prefill":[...],"decode":[...]}``,
  whose ``format_version`` is the JSON integer 2 (not ``2.0``).
  ``prefill[l][h]`` is a list of padded base64 strings; their decoded bytes,
  joined, are that head's packed triangle, the same bytes the binary
  container stores. ``decode[s]`` is a list of base64 strings whose bytes,
  joined, are step s's array. The writer cuts one string per chunk of about
  1 MiB of rows for the prefill and one per layer for the decode; the loader
  accepts any cut, even one inside a float.

The text loader reads the JSON in chunks and parses one value at a time with
the stdlib scanner, so no whole-document object is built. Base64 payload
strings skip the scanner: each is found in the pending text by its closing
quote and decoded there by ``_b64decode``, which takes a long payload 128 Ki
characters at a time through a numpy word kernel and the rest through
``binascii``. It accepts exactly the strings that
``base64.b64decode(validate=True)`` accepts, with the same bytes, and any
other goes to that function for its error. The scanner parses only a payload
that is not a plain string of strict base64, to decode its escapes or name
its fault, and the same decoder decodes it. The loader is therefore stricter
than a whole-document parse: ``header`` and ``format_version`` must come
before ``prefill`` and ``decode``, ``prefill`` before ``decode`` (as the
writer puts them, so that the steps can be streamed), and a field that
appears twice in an object is an error. Each head's decoded bytes go
through the same checks as the binary container's. Version 1 text, which
spelled each score as a JSON number, is no longer read: its
``format_version`` is refused.
"""

from __future__ import annotations

import base64
import binascii
import codecs
import enum
import io
import itertools
import json
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParameterError, ValidationError
from .files import atomic_file, canonical_json

# Reports, plans, masks and the binary container.
FORMAT_VERSION = 1
# The text container, the only version written or read.
TEXT_FORMAT_VERSION = 2
BINARY_MAGIC = b"MKVT"

# Every attention row must sum to one within this tolerance. Row sums are
# always accumulated in float64 so float32 storage noise stays far below it.
ROW_SUM_TOL = 1e-6

# The loaders check prefill rows in blocks of at most this many packed
# scores: 256 KiB of float32, 512 KiB as float64.
_BLOCK_SCORES = 1 << 16
# The writers take prefill rows in chunks of about this many packed scores,
# about 1 MiB of float32.
_CHUNK_SCORES = 1 << 18
# The text loader reads this many bytes at a time.
_TEXT_CHUNK = 1 << 20
_WHITESPACE = re.compile(r"[ \t\n\r]*")
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
            the s decode tokens generated before it. None for a trace a
            loader handed to `on_prefill`: it streamed the steps instead.
        first_row: the first prompt row held; 0 (the default) holds the dense
            causal cube.
        layer: None (the default) holds every layer; a layer index holds
            that layer only, as the loaders hand each layer on, and prefill
            is then (1, H, n - first_row, n).

    Read prefill rows through `head_rows`, never `prefill`: a generated trace
    computes its rows and stores no prefill array. The writers read decode
    steps through `decode_rows`, one layer at a time, and replay through
    `decode_steps`, one step at a time: a generated trace computes those
    blocks too and builds `decode` only when it is read.
    """

    header: TraceHeader
    prefill: np.ndarray = field(repr=False)
    decode: list[np.ndarray] | None
    first_row: int = 0
    layer: int | None = None

    def __post_init__(self):
        self.prefill = np.ascontiguousarray(self.prefill, dtype=np.float32)
        if self.decode is not None:
            self.decode = [np.ascontiguousarray(d, dtype=np.float32) for d in self.decode]

    @property
    def layers(self) -> range:
        """The layers whose prefill rows the trace holds."""
        if self.layer is None:
            return range(self.header.num_layers)
        return range(self.layer, self.layer + 1)

    def validate(self) -> None:
        """Check every structural invariant, raising ValidationError with the
        offending (layer, head, row) coordinates on the first failure. Rows
        are reported as prompt rows, whatever `first_row` is, and layers as
        the header's, whatever `layer` is. A trace whose `decode` is None
        has no steps to check: its loader checks each step as it streams
        it."""
        h = self.header
        L, H, n = h.num_layers, h.num_heads, h.prompt_len
        first = self.first_row
        if not 0 <= first < n:
            raise ValidationError(f"first_row {first} out of range for prompt length {n}")
        if self.layer is not None and not 0 <= self.layer < L:
            raise ValidationError(f"layer {self.layer} out of range for {L} layers")
        # A generated trace computes its rows and stores no prefill array.
        stored = getattr(self, "prefill", None)
        if stored is not None and stored.shape != (len(self.layers), H, n - first, n):
            raise ValidationError(
                f"prefill shape {stored.shape} does not match header "
                f"({len(self.layers)}, {H}, {n - first}, {n})"
            )
        if self.decode is not None and len(self.decode) != h.num_decode_steps:
            raise ValidationError(
                f"decode has {len(self.decode)} steps, header says {h.num_decode_steps}"
            )
        # future[j, c]: column c lies after prompt row first + j.
        future = np.arange(n) > np.arange(first, n)[:, None]
        for l, hd in itertools.product(self.layers, range(H)):
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
        for s, vec in enumerate(self.decode or ()):
            if vec.shape != (L, H, n + s):
                raise ValidationError(
                    f"decode step {s} has shape {vec.shape}, expected ({L}, {H}, {n + s})"
                )
            _check_step(s, vec)

    def head_rows(self, layer: int, head: int, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
        """Prompt rows start..stop-1 of one (layer, head), (stop - start, n);
        `stop` defaults to n. Rows and layers are absolute: asking for a row
        below `first_row`, or a layer other than `layer`, raises
        ParameterError."""
        if start < self.first_row:
            raise ParameterError(
                f"prompt row {start} requested; this trace holds rows "
                f"{self.first_row}..{self.header.prompt_len - 1} only"
            )
        if self.layer is not None:
            if layer != self.layer:
                raise ParameterError(
                    f"layer {layer} requested; this trace holds layer {self.layer} only"
                )
            layer = 0
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

    def decode_rows(self, step: int, layer: int) -> np.ndarray:
        """One layer of decode step `step`, (H, n + step), as little-endian
        float32."""
        return np.ascontiguousarray(self.decode[step][layer], dtype="<f4")

    def decode_steps(self):
        """Yield each decode step, (L, H, n + s) float32, built from
        `decode_rows` one layer at a time, so a generated trace builds one
        step at a time and no `decode` list."""
        h = self.header
        for s in range(h.num_decode_steps):
            step = np.empty((h.num_layers, h.num_heads, h.prompt_len + s), dtype="<f4")
            for l in range(h.num_layers):
                step[l] = self.decode_rows(s, l)
            yield step

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttentionTrace):
            return NotImplemented
        h = self.header
        return (
            h == other.header
            and self.first_row == other.first_row
            and self.layer == other.layer
            and all(
                np.array_equal(self.head_rows(l, hd, self.first_row),
                               other.head_rows(l, hd, other.first_row))
                for l, hd in itertools.product(self.layers, range(h.num_heads))
            )
            and (self.decode is None) == (other.decode is None)
            and len(self.decode or ()) == len(other.decode or ())
            and all(np.array_equal(a, b) for a, b in zip(self.decode or (), other.decode or ()))
        )


def _bad_score(value, where: str) -> ValidationError:
    """The error for a score that is not >= 0: negative or NaN."""
    kind = "NaN" if np.isnan(value) else "negative"
    return ValidationError(f"{kind} score at {where}")


def _check_step(s: int, vec: np.ndarray) -> None:
    """Check the scores of decode step `s`, (L, H, n + s): each is >= 0 and
    each (layer, head) vector sums to one within ROW_SUM_TOL in float64."""
    # The minimum of scores holding a NaN is NaN, which fails too.
    if not vec.min() >= 0:
        l, hd, c = np.argwhere(~(vec >= 0))[0]
        raise _bad_score(vec[l, hd, c], f"decode step {s}, ({l}, {hd})")
    sums = vec.sum(axis=2, dtype=np.float64)
    ok = np.abs(sums - 1.0) <= ROW_SUM_TOL
    if not ok.all():
        l, hd = np.argwhere(~ok)[0]
        raise ValidationError(f"row sum {sums[l, hd]:.6g} at decode step {s}, ({l}, {hd})")


# ---------------------------------------------------------------------------
# streamed prefill rows


class _PrefillTail:
    """Checks each head's packed causal triangle one block of rows at a time
    and keeps its last rows, one layer at a time.

    A packed triangle holds row i's i + 1 scores right after rows 0..i-1, as
    the binary container stores them. `blocks` cuts rows 0..n-1 into runs of
    at most _BLOCK_SCORES packed scores; a longer row is a block of its own.
    Every row of every head is checked, the dropped ones included: no
    negative or NaN score, and a float64 row sum within ROW_SUM_TOL of one.
    A head's bad row sum is raised only once all its scores are checked, so
    failures name the same (layer, head, row) that AttentionTrace.validate
    would on the dense cube.

    The kept rows go into `prefill`, float32 with each row's upper
    triangle zero: with `keep`, (L, H, rows, n), the rows of every layer,
    which a loader returns or hands to `on_prefill`; without it,
    (1, H, rows, n), one buffer that each layer reuses. Once a layer's heads
    are added, `end_layer` hands its rows on as a trace of that layer.

    With `whole`, each head's rows are also written as float64 into `whole`,
    one reused, C-contiguous (n, n) buffer whose upper triangle stays zero:
    once `add` returns, it holds that head's dense block until the next
    head is added.
    """

    def __init__(self, L: int, H: int, n: int, rows: int | None, whole: bool = False,
                 keep: bool = True):
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
        self._keep = keep
        self.prefill = np.zeros((L if keep else 1, H, kept, n), dtype=np.float32)
        self.whole = np.zeros((n, n), dtype=np.float64) if whole else None
        # Per block, its rows' entries in columns 0..stop-1, in packed order.
        self._lower = [np.tri(stop - start, stop, start, dtype=bool)
                       for start, stop in self.blocks] if whole else None

    def add(self, layer: int, head: int, read) -> None:
        """Check one head, keep its last rows in `prefill` and, with
        `whole`, fill `whole`. `read(lo, hi)` returns packed scores lo..hi-1
        as float32, one block at a time."""
        out = self.prefill[layer if self._keep else 0, head]
        bad_sum = None
        for k, (start, stop) in enumerate(self.blocks):
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
                if self.whole is not None:
                    # Columns from stop on stay zero.
                    self.whole[start:stop, :stop][self._lower[k]] = wide
            keep = max(start, self.first_row)
            if keep < stop:
                rows = slice(keep - self.first_row, stop - self.first_row)
                out[rows][self._tail_mask[rows]] = scores[self.starts[keep] - lo:]
        if bad_sum is not None:
            raise bad_sum

    def end_layer(self, header: TraceHeader, layer: int) -> AttentionTrace:
        """The trace of `layer`'s kept rows once all its heads are added,
        checked by `validate`. It shares `prefill`: without `keep`, the next
        layer overwrites its rows."""
        k = layer if self._keep else 0
        trace = AttentionTrace(header, self.prefill[k:k + 1], None, self.first_row, layer)
        trace.validate()
        return trace

    def take(self) -> np.ndarray | None:
        """The kept rows of every layer (None without `keep`), which the tail
        then lets go, with its head buffer."""
        prefill = self.prefill if self._keep else None
        self.prefill = self.whole = self._lower = None
        return prefill


def _hand_over(header: TraceHeader, tail: _PrefillTail, steps, on_prefill,
               on_decode) -> AttentionTrace | None:
    """End a load once every prefill row is checked and every layer handed
    on: the trace of the rows `tail` kept and the decode steps, each checked
    as the iterator `steps` yields it.

    If the tail kept its rows (`_keeps_rows`) and not for `on_prefill`, no
    hook streams the file: the trace keeps the steps and is returned.
    Otherwise it holds none: it goes to `on_prefill`, if given, and is let
    go before the first step is read, so its rows live only as long as
    `on_prefill` keeps them. The steps go to `on_decode`, and any step it
    leaves (every step, without it) is checked and dropped. None is then
    returned.
    """
    prefill = tail.take()
    if prefill is not None and on_prefill is None:
        trace = AttentionTrace(header, prefill, None, tail.first_row)
        trace.decode = list(steps)
        return trace
    if on_prefill is not None:
        on_prefill(AttentionTrace(header, prefill, None, tail.first_row))
    del prefill
    if on_decode is not None:
        on_decode(steps)
    for _ in steps:
        pass
    return None


def _keeps_rows(on_layer, on_prefill, on_decode) -> bool:
    """Whether a load builds its kept trace: for `on_prefill`, or to return
    it when no hook streams the file."""
    return on_prefill is not None or (on_layer is None and on_decode is None)


def _row_chunks(n: int):
    """(start, stop) pairs that cover prompt rows 0..n-1, each chunk about
    _CHUNK_SCORES scores, so that a writer never holds a whole (n, n)
    block."""
    step = max(1, _CHUNK_SCORES // n)
    for start in range(0, n, step):
        yield start, min(start + step, n)


# ---------------------------------------------------------------------------
# text container


# Each byte's sextet in the standard base64 alphabet, 0xFF for any other byte.
_B64_SEXTETS = bytes(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/".find(c) & 0xFF
    for c in range(256)
)
# `_b64decode` takes payloads of at least this many characters (and at least
# 16) to its numpy kernel; below it, `binascii` is faster than the kernel's
# fixed cost.
_B64_KERNEL_MIN = 1 << 14
# The kernel decodes this many characters of text at a time, 96 KiB of bytes.
_B64_SPAN = 1 << 17
# The last 16 to 28 characters of a payload, where padding may occur, go to
# `binascii`.
_B64_TAIL = 16


def _b64decode(text: str, start: int = 0, stop: int | None = None) -> bytes | bytearray:
    """The bytes `base64.b64decode(text[start:stop], validate=True)` returns
    (a bytearray where the kernel decoded them), or the error it raises. A
    payload the kernel takes is read from `text` span by span, not sliced."""
    if stop is None:
        stop = len(text)
    size = stop - start
    if size >= _B64_KERNEL_MIN and size % 4 == 0:
        raw = _b64_kernel(text, start, stop)
        if raw is not None:
            return raw
    return base64.b64decode(text[start:stop], validate=True)


def _b64_kernel(text: str, start: int, stop: int) -> bytearray | None:
    """Decode `text[start:stop]`, a multiple of 4 characters, or return None
    for any text that is not strict base64 and ASCII, for `base64` to name
    its fault.

    All but the last `_B64_TAIL` to `_B64_TAIL + 12` characters are a
    multiple of 16 characters, which decode without padding, span by span:
    `bytes.translate` maps each character to its sextet, and each `<u4`
    word of four sextets s0..s3 becomes the 24 bits s0 s1 s2 s3. Each 16
    characters' four such words are packed big-endian into three output
    words, which one byteswap turns into the output bytes. Every temporary
    is one span long. `binascii` decodes the rest strictly, padding and all.
    """
    body = stop - start - _B64_TAIL - (stop - start) % 16
    try:
        tail = binascii.a2b_base64(text[start + body:stop].encode("ascii"), strict_mode=True)
    except ValueError:
        return None
    out = bytearray(body // 4 * 3 + len(tail))
    out[body // 4 * 3:] = tail
    words = np.frombuffer(out, "<u4", body // 16 * 3)
    lanes = np.empty(min(body, _B64_SPAN) // 4, np.uint32)
    spare = np.empty_like(lanes)
    for lo in range(0, body, _B64_SPAN):
        hi = min(lo + _B64_SPAN, body)
        try:
            sextets = text[start + lo:start + hi].encode("ascii").translate(_B64_SEXTETS)
        except UnicodeEncodeError:
            return None
        if sextets.find(b"\xff") >= 0:
            return None
        quads = np.frombuffer(sextets, "<u4")  # s0 | s1 << 8 | s2 << 16 | s3 << 24
        v, t = lanes[:quads.size], spare[:quads.size]
        # Each 16-bit lane: s0 << 6 | s1, and s2 << 6 | s3.
        np.bitwise_and(quads, 0x00FF00FF, out=v)
        np.left_shift(v, 6, out=v)
        np.right_shift(quads, 8, out=t)
        np.bitwise_and(t, 0x00FF00FF, out=t)
        np.bitwise_or(v, t, out=v)
        # The 24 bits: the low lane << 12 | the high lane.
        np.right_shift(v, 16, out=t)
        np.bitwise_and(v, 0xFFFF, out=v)
        np.left_shift(v, 12, out=v)
        np.bitwise_or(v, t, out=v)
        # Four 24-bit groups a, b, c, d per 16 characters: a << 8 | b >> 16,
        # b << 16 | c >> 8 and c << 24 | d.
        g = v.reshape(-1, 4)
        o = words[lo // 16 * 3:hi // 16 * 3].reshape(-1, 3)
        t = t[:len(g)]
        np.left_shift(g[:, 0], 8, out=o[:, 0])
        np.right_shift(g[:, 1], 16, out=t)
        np.bitwise_or(o[:, 0], t, out=o[:, 0])
        np.left_shift(g[:, 1], 16, out=o[:, 1])
        np.right_shift(g[:, 2], 8, out=t)
        np.bitwise_or(o[:, 1], t, out=o[:, 1])
        np.left_shift(g[:, 2], 24, out=o[:, 2])
        np.bitwise_or(o[:, 2], g[:, 3], out=o[:, 2])
        o.byteswap(inplace=True)
    return out


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
    fh.write(b'{"format_version":' + canonical_json(TEXT_FORMAT_VERSION)
             + b',"header":' + canonical_json(header))
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
    for s in range(h.num_decode_steps):
        if s:
            fh.write(b",")
        _write_base64(fh, (trace.decode_rows(s, l) for l in range(h.num_layers)))
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
            del chunk
        if not text:
            return False
        self._dropped += self._pos
        # The consumed text is freed before the rest is joined to the new.
        rest, self._buf = self._buf[self._pos:], ""
        self._buf = rest + text
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
                self._pos = end
                return obj

    def base64_string(self) -> bytes | None:
        """The decoded bytes of the next value if it is a string of strict
        base64; otherwise None, with the value left for `value` to parse.

        The pending text is searched once from the opening quote for the
        closing quote or a backslash, with a refill only while neither has
        been found, so a payload is read no further than `value` reads a good
        string. The text up to a closing quote is decoded in place with
        `_b64decode`, the decoder `_read_base64` also uses, which refuses a
        control or non-ASCII character too: searching for those as well would
        take longer than the JSON scanner does. Any other value, an escape,
        text that is not strict base64, or the end of the file returns None,
        and the caller's `value` names the fault.
        """
        if self.peek() != '"':
            return None
        scanned = 1  # characters from self._pos on already searched
        while True:
            start = self._pos + scanned
            quote = self._buf.find('"', start)
            stop = len(self._buf) if quote < 0 else quote
            if self._buf.find("\\", start, stop) >= 0:
                return None
            if quote >= 0:
                break
            scanned = stop - self._pos
            if not self._refill():
                return None
        try:
            raw = _b64decode(self._buf, self._pos + 1, quote)
        except (binascii.Error, ValueError):
            return None
        self._pos = quote + 1
        return raw

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


def _read_base64(reader: _JsonReader, where: str, count: int) -> bytes | bytearray:
    """Parse a list of base64 strings at `where` whose decoded bytes, joined,
    are `count` float32 scores; return those bytes. The list may be cut
    anywhere. A list that runs past the expected size fails at once.

    Each piece is decoded by `_b64decode` straight from the pending text;
    only a piece that is not a plain string of strict base64 goes through the
    JSON scanner, which decodes its escapes or names its fault, and then
    through `_b64decode` too. A list of one piece returns that piece's bytes.
    A longer list is copied, one piece at a time as each is decoded, into one
    writable buffer of all `count` scores, so no more than one piece is held
    beside it."""
    want = 4 * count
    first, buf, got = b"", None, 0
    for k in reader.items(None, f"{where} must be a list of base64 strings"):
        raw = reader.base64_string()
        if raw is None:
            piece = reader.value()
            if not isinstance(piece, str):
                raise FormatError(
                    f"{where}[{k}] must be a base64 string, got {type(piece).__name__}"
                )
            try:
                raw = _b64decode(piece)
            except (binascii.Error, ValueError) as exc:
                raise FormatError(f"{where}[{k}] is not base64: {exc}") from None
            del piece  # held no longer than its bytes
        end = got + len(raw)
        if end > want:
            raise FormatError(f"{where} holds more than {want} bytes ({count} float32 scores)")
        if k == 0:
            first = raw
        else:
            if buf is None:
                buf = bytearray(want)
                memoryview(buf)[:got] = first
                first = b""
            memoryview(buf)[got:end] = raw
        got = end
        del raw  # not held while the next piece is decoded
    if got != want:
        raise FormatError(f"{where} holds {got} bytes, expected {want} ({count} float32 scores)")
    return first if buf is None else buf


def _read_prefill_v2(reader: _JsonReader, header: TraceHeader, tail: _PrefillTail,
                     on_head, on_layer) -> None:
    """Parse a version 2 prefill one head at a time, passing each head's
    packed triangle to `tail`, and then, unless `on_head` is None, its
    dense block to `on_head`; once a layer's heads are in, its trace goes
    to `on_layer`, unless None."""
    L, H = header.num_layers, header.num_heads
    for l in reader.items(L, f"prefill must be a list of {L} layers"):
        for hd in reader.items(H, f"prefill[{l}] must be a list of {H} heads"):
            raw = _read_base64(reader, f"prefill[{l}][{hd}]", tail.size)
            tri = np.frombuffer(raw, "<f4")
            tail.add(l, hd, lambda lo, hi: tri[lo:hi])
            # Free the head before the next is read.
            del raw, tri
            if on_head is not None:
                on_head(header, l, hd, tail.whole)
        layer = tail.end_layer(header, l)
        if on_layer is not None:
            on_layer(layer)


def _text_steps(reader: _JsonReader, header: TraceHeader):
    """Parse a version 2 decode list, yielding each step, (L, H, n + s)
    float32, once its scores are checked."""
    L, H, n, T = header.num_layers, header.num_heads, header.prompt_len, header.num_decode_steps
    for s in reader.items(T, f"decode must be a list of {T} steps"):
        raw = _read_base64(reader, f"decode[{s}]", L * H * (n + s))
        step = np.frombuffer(raw, "<f4").reshape(L, H, n + s)
        _check_step(s, step)
        # Writable, as the binary loader's arrays are: a step of one piece
        # that `base64` decoded is read-only bytes, so it alone is copied.
        yield step if step.flags.writeable else step.copy()


# A file that gives its version late, or not at all, is refused before any
# payload is read.
_LATE_VERSION = f"format_version {TEXT_FORMAT_VERSION} must come before prefill and decode"


def trace_from_text(data, rows: int | None = None, on_head=None, on_prefill=None,
                    on_decode=None, on_layer=None, on_header=None) -> AttentionTrace | None:
    """Parse a text container, version 2, from bytes or an open binary file.

    `rows` keeps only the last `rows` prompt rows of each (layer, head); None
    keeps all of them. Every row is checked either way. `on_head`,
    `on_prefill`, `on_decode`, `on_layer` and `on_header` are as in
    `load_trace`; `on_header` is called once `prefill` is reached. The
    document is read in chunks and parsed one value at a time (a base64
    string), so no whole-document object is built; `header` and
    `format_version` must therefore come before `prefill` and `decode`, and
    `prefill` before `decode`.
    """
    if isinstance(data, (bytes, bytearray)):
        data = io.BytesIO(data)
    reader = _JsonReader(data)
    header = tail = version = trace = None
    seen = set()
    for key in reader.fields("top-level value must be an object"):
        if key in ("prefill", "decode"):
            if header is None:
                raise FormatError(f"header must come before {key}")
            if version is None:
                raise FormatError(_LATE_VERSION)
        if key == "format_version":
            version = reader.value()
            if type(version) is not int or version != TEXT_FORMAT_VERSION:
                raise FormatError(f"unsupported format_version {version!r}")
        elif key == "header":
            header = _text_header(reader.value())
            tail = _PrefillTail(header.num_layers, header.num_heads, header.prompt_len, rows,
                                on_head is not None,
                                _keeps_rows(on_layer, on_prefill, on_decode))
        elif key == "prefill":
            if on_header is not None:
                on_header(header)
            _read_prefill_v2(reader, header, tail, on_head, on_layer)
        elif key == "decode":
            if "prefill" not in seen:
                raise FormatError("prefill must come before decode")
            trace = _hand_over(header, tail, _text_steps(reader, header), on_prefill, on_decode)
        else:
            reader.value()  # an unknown field is ignored
        seen.add(key)
    reader.end()
    for key in ("format_version", "header", "prefill", "decode"):
        if key not in seen:
            raise FormatError(f"missing field {key}")
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
    `_row_chunks` chunk at a time, then each decode step one layer at a
    time."""
    h = trace.header
    L, H, n, T = h.num_layers, h.num_heads, h.prompt_len, h.num_decode_steps
    fh.write(BINARY_MAGIC)
    fh.write(np.array([FORMAT_VERSION, L, H, n, T], dtype="<u4").tobytes())
    fh.write(np.packbits(h.modality_labels, bitorder="little").tobytes())
    for l in range(L):
        for hd in range(H):
            for start, stop in _row_chunks(n):
                fh.write(trace.packed_rows(l, hd, start, stop).data)
    for s in range(T):
        for l in range(L):
            fh.write(trace.decode_rows(s, l).data)


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


def trace_from_binary(data, rows: int | None = None, on_head=None, on_prefill=None,
                      on_decode=None, on_layer=None,
                      on_header=None) -> AttentionTrace | None:
    """Parse a binary container from bytes or an open binary file.

    `rows` keeps only the last `rows` prompt rows of each (layer, head); None
    keeps all of them. `on_head`, `on_prefill`, `on_decode`, `on_layer` and
    `on_header` are as in `load_trace`. The length is checked against the
    header first, before `on_header` is called; the prefill is then read
    one block of rows at a time, straight from the file into one reused
    block buffer, and every row of every head is checked. Each decode step
    is read into its own array and checked.
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
    if on_header is not None:
        on_header(header)

    tail = _PrefillTail(L, H, n, rows, on_head is not None,
                        _keeps_rows(on_layer, on_prefill, on_decode))
    block = np.empty(tail.block_size, dtype="<f4")

    def read(lo: int, hi: int) -> np.ndarray:
        _fill(fh, block[:hi - lo], "prefill scores")
        return block[:hi - lo]

    for l in range(L):
        for hd in range(H):
            tail.add(l, hd, read)
            if on_head is not None:
                on_head(header, l, hd, tail.whole)
        layer = tail.end_layer(header, l)
        if on_layer is not None:
            on_layer(layer)
        del layer

    def steps():
        for s in range(T):
            step = np.empty((L, H, n + s), dtype="<f4")
            _fill(fh, step, "decode scores")
            _check_step(s, step)
            yield step
            del step  # freed, once the consumer lets it go, before the next is read

    trace = _hand_over(header, tail, steps(), on_prefill, on_decode)
    if fh.read(1):
        raise FormatError(f"file grew while it was read (expected {want} bytes)")
    return trace


# ---------------------------------------------------------------------------
# file front end


def save_trace(trace: AttentionTrace, path: str | os.PathLike, *, binary: bool | None = None) -> None:
    """Write a trace. Format comes from `binary` or, when None, the suffix
    (``.mkvt`` means binary, anything else text, version 2). The write is
    atomic and streams about 1 MiB of one head's packed triangle at a time
    from `trace.packed_rows`, then one layer of a decode step at a time from
    `trace.decode_rows`."""
    path = os.fspath(path)
    if binary is None:
        binary = path.endswith(".mkvt")
    with atomic_file(path) as fh:
        (_write_binary if binary else _write_text)(trace, fh)


def load_trace(path: str | os.PathLike, rows: int | None = None, on_head=None,
               on_prefill=None, on_decode=None, on_layer=None,
               on_header=None) -> AttentionTrace | None:
    """Read a trace, sniffing the container by magic bytes, and validate it.

    `rows` keeps only the last `rows` prompt rows of each (layer, head), as
    many as importance or a baseline's observation window reads; None keeps
    the dense cube. Every row is checked either way, and the file is streamed
    rather than read whole: a binary file one block of rows at a time, a text
    file one head at a time.

    `on_header(header)`, unless None, is called once the header is read and
    checked, before the first prefill row is read.

    Each layer's kept rows are gathered in one reused (H, rows, n) float32
    buffer, or, when the kept trace is returned or handed to `on_prefill`,
    straight into its (L, H, rows, n) array. Once all its heads are
    checked, the layer is checked by `AttentionTrace.validate` as a trace
    of that layer alone (`layer` set, sharing those rows), and
    `on_layer(trace)`, unless None, is called with it; in the reused buffer,
    the next layer overwrites its rows. So a reader of the kept rows that
    works a layer at a time, as `TraceTables.load` does, never holds them
    all.

    `on_head(header, layer, head, block)`, unless None, is called for each
    head in (layer, head) order once all its rows are checked. `block` is
    the head's dense (n, n) prefill block as float64, a buffer that the next
    head overwrites. So a statistic over every row is taken while the file
    streams, without the dense cube being kept. A fault found after a head
    was passed on, in a later head or a decode step, is still raised. With
    None the loader does no more work than keeping its rows.

    With `on_layer`, `on_prefill` or `on_decode`, the decode steps are
    streamed, not kept, and None is returned. `on_prefill(trace)`, unless
    None, is called once every prefill row is checked, with the trace: its
    kept rows, each layer checked as above, and no decode steps (`decode` is
    None). The loader lets the trace go before it reads the first step, so
    its rows live only as long as `on_prefill` keeps them.
    `on_decode(steps)`, unless None, is then called with an iterator that
    yields each decode step in order, a fresh (L, H, n + s) float32 array,
    once its scores are checked.
    Steps it does not take, every step without it, are read, checked and
    dropped once it returns, so a fault in any step is raised.
    """
    with open(path, "rb") as fh:
        binary = fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
        fh.seek(0)
        load = trace_from_binary if binary else trace_from_text
        return load(fh, rows, on_head, on_prefill, on_decode, on_layer, on_header)
