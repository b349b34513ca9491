"""Attention trace model and on-disk containers.

A trace is a recording of post-softmax attention scores from one multimodal
inference: causal prefill rows plus one score vector per decode step.
Nothing here recomputes attention; the simulator only ever replays what was
recorded.

A trace holds prompt rows ``first_row..n-1`` of each (layer, head). With the
default ``first_row = 0`` that is the whole causal prefill cube. The loaders
can keep only the last rows, which are all that importance and the
score-driven baselines read: they stream the file one head at a time, check
every row of every head, and keep the tail. Every reader of prefill rows,
here and in the rest of the package, asks ``AttentionTrace.head_rows`` for
one head's rows at a time: importance for the proxy rows, validation and
equality for the rows held, ``head_text_share`` and the writers for every
row (the binary writer about 1 MiB at a time, the text writer about 2**16
scores at a time). A row below ``first_row`` is a ParameterError. So a trace
that computes its rows on demand, as the synthetic generator's does, is
simulated, compared and written without its dense cube, or even one whole
(n, n) block, ever being built.

Two interchangeable containers are supported and sniffed by magic bytes:

* a text container (JSON, canonical field order, each score rendered as
  the shortest decimal of its float64 value), and
* a binary container (magic ``MKVT``, little-endian u32 header, modality
  labels packed as bits, scores as little-endian float32).

The text container is streamed too: the loader reads it in chunks and parses
one prefill row and one decode step at a time with the stdlib JSON scanner,
so no whole-document object is built. It is therefore stricter than a
whole-document parse: ``header`` must come before ``prefill`` and ``decode``
(the writer always puts it there), and a field that appears twice in an
object is an error rather than silently replaced. Turning decimals into
floats is nearly all the work of loading text, so, from a regular file and
given two CPUs or more, the prefill's heads are parsed in a pool of forked
workers, one per CPU: the loading process only searches the text for where
each head ends, and each worker reads its heads' bytes itself and runs the
same per-head parse and checks. A load that fails in the pool is parsed
again in the loading process, so the trace, or the error and its message, is
the same however many CPUs parse it.

Scores are canonically float32: the binary container stores float32 anyway,
and the text writer renders each float32 score widened to float64, as the
shortest decimal that round-trips through float64 (0.1f is written
0.10000000149011612). Reading such a decimal back to float32 is exact, so
saving a loaded trace reproduces the file byte for byte in either format.
Text input written with higher precision is quantized on load.

Rendering those decimals is nearly all the work of writing text, so the text
writer spells each distinct score of a task once (a synthetic row repeats
about half of the row before it) and, given two CPUs or more, renders the
tasks in a pool of forked worker processes, one per CPU, which inherit the
trace. The file is the same, byte for byte, however many CPUs render it.
"""

from __future__ import annotations

import codecs
import collections
import contextlib
import enum
import io
import json
import os
import re
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ParameterError, ValidationError
from .files import atomic_file

FORMAT_VERSION = 1
BINARY_MAGIC = b"MKVT"

# Every attention row must sum to one within this tolerance. Row sums are
# always accumulated in float64 so float32 storage noise stays far below it.
ROW_SUM_TOL = 1e-6

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
# A list of lists of numbers ends at its first "]" followed by "]": numbers
# hold no brackets.
_LIST_END = re.compile(r"\][ \t\n\r]*\]")


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


def visual_mask(labels, n: int | None = None) -> np.ndarray:
    """Coerce a label sequence to a boolean mask (True where visual).

    Accepts a boolean array, a sequence of Modality, or a sequence of
    "text"/"visual" strings.
    """
    arr = np.asarray(labels)
    if arr.dtype == np.bool_:
        mask = arr.astype(bool)
    else:
        mask = np.array(
            [
                tok is Modality.VISUAL
                or tok == Modality.VISUAL.value
                or tok is True
                for tok in labels
            ],
            dtype=bool,
        )
    if n is not None and mask.shape != (n,):
        raise ValidationError(f"expected {n} modality labels, got {mask.shape}")
    return mask


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
        object.__setattr__(
            self, "modality_labels", visual_mask(self.modality_labels, self.prompt_len)
        )

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
    """Checks one head's packed causal triangle at a time and keeps its
    last rows.

    A packed triangle holds row i's i + 1 scores right after rows 0..i-1, as
    the binary container stores them. Every row of every head is checked, the
    dropped ones included: no negative or NaN score, and a float64 row sum
    within ROW_SUM_TOL of one. Failures name the same (layer, head, row) that
    AttentionTrace.validate would on the dense cube.
    """

    def __init__(self, L: int, H: int, n: int, rows: int | None):
        if rows is not None and int(rows) < 1:
            raise ParameterError(f"rows must be >= 1, got {rows}")
        kept = n if rows is None else min(int(rows), n)
        self.first_row = n - kept
        i = np.arange(n, dtype=np.int64)
        self.starts = i * (i + 1) // 2
        self.size = n * (n + 1) // 2
        self._wide = np.empty(self.size, dtype=np.float64)
        # The kept rows' entries in a (kept, n) block, in packed order.
        self._tail_mask = np.tri(kept, n, self.first_row, dtype=bool)
        self.prefill = np.zeros((L, H, kept, n), dtype=np.float32)

    def keep(self, layer: int, head: int, tri: np.ndarray, out: np.ndarray) -> None:
        """Check one head's packed triangle and write its kept rows into
        `out`, a zeroed (kept, n) block."""
        ok = tri >= 0
        if not ok.all():
            pos = int(np.argmin(ok))
            row = int(np.searchsorted(self.starts, pos, side="right")) - 1
            raise _bad_score(tri[pos], f"({layer}, {head}, {row})")
        np.copyto(self._wide, tri)
        sums = np.add.reduceat(self._wide, self.starts)
        ok = np.abs(sums - 1.0) <= ROW_SUM_TOL
        if not ok.all():
            row = int(np.argmin(ok))
            raise ValidationError(f"row sum {sums[row]:.6g} at ({layer}, {head}, {row})")
        out[self._tail_mask] = tri[self.starts[self.first_row]:]

    def add(self, layer: int, head: int, tri: np.ndarray) -> None:
        """Check one head's packed triangle and keep its last rows."""
        self.keep(layer, head, tri, self.prefill[layer, head])


def _row_chunks(n: int, scores: int = 2**18):
    """(start, stop) pairs that cover prompt rows 0..n-1, each chunk about
    `scores` scores (by default 1 MiB of float32), so that a writer never
    holds a whole (n, n) block."""
    step = max(1, scores // n)
    for start in range(0, n, step):
        yield start, min(start + step, n)


# ---------------------------------------------------------------------------
# pools of forked workers


def _cpus() -> int:
    """How many CPUs this process may run on; 1 where the platform cannot
    say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


# What a pool's tasks read: the trace a text writer renders, or the file
# descriptor, header and `rows` of a text load. Set in the pool's workers only.
_worker_state = None


def _start_worker(state) -> None:
    import signal  # already loaded by multiprocessing

    global _worker_state
    _worker_state = state
    # An interrupt is the parent process's to handle: it stops the pool.
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@contextlib.contextmanager
def _fork_pool(workers: int, state):
    """A pool of `workers` forked processes. Each inherits `state` rather
    than unpickling it, so tasks pickle only their coordinates and results.
    The pool is terminated when the block ends, whether or not it raised."""
    # Imported here: it adds about 20 ms to every start of the package.
    import multiprocessing

    context = multiprocessing.get_context("fork")
    with context.Pool(workers, _start_worker, (state,)) as pool:
        yield pool


# ---------------------------------------------------------------------------
# text container


def _json(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True).encode("ascii")


def _json_lists(values: np.ndarray, lengths) -> bytes:
    """The float32 `values`, cut into consecutive runs of the given lengths,
    as comma-separated JSON lists, each score spelled as `_json` spells it.

    Each distinct score is rendered once. Scores are told apart by their
    bits, so -0.0 and 0.0 stay distinct and every NaN is still a NaN.
    """
    bits = np.ascontiguousarray(values, dtype=np.float32).reshape(-1).view(np.uint32)
    distinct, inverse = np.unique(bits, return_inverse=True)
    spelled = _json(distinct.view(np.float32).tolist())[1:-1].split(b",")
    words = list(map(spelled.__getitem__, inverse.tolist()))
    begin = 0
    for length in lengths:
        end = begin + length
        words[begin] = b"[" + words[begin]
        words[end - 1] += b"]"
        begin = end
    return b",".join(words)


def _prefill_text(trace: AttentionTrace, layer: int, head: int, start: int,
                  stop: int) -> bytes:
    """Prompt rows start..stop-1 of one head as comma-separated JSON lists of
    each row's causal prefix."""
    block = trace.head_rows(layer, head, start, stop)
    causal = np.tri(stop - start, block.shape[1], start, dtype=bool)
    return _json_lists(block[causal], range(start + 1, stop + 1))


# A text task renders or parses about this many scores: a chunk of one
# head's rows, or several whole heads where heads are smaller. A task's
# scores, their text and its result are all held at once, so larger tasks
# raise peak memory.
_TEXT_TASK_SCORES = 2**16


def _worker_prefill_text(piece: tuple[int, int, int, int]) -> bytes:
    """`_prefill_text` of one (layer, head, start, stop) chunk, in a worker."""
    return _prefill_text(_worker_state, *piece)


@contextlib.contextmanager
def _rendered_prefill(trace: AttentionTrace, chunks: list):
    """Yield an iterator over the `_prefill_text` of each (start, stop) row
    chunk of each (layer, head), in file order.

    Chunks are rendered in tasks of about _TEXT_TASK_SCORES scores: one chunk,
    or several heads' when heads are smaller. With at least two tasks and two
    CPUs, the tasks run in a pool of forked workers, one per CPU up to one per
    task, which inherit the trace. Otherwise, and where the platform cannot
    report the CPUs this process may use, the chunks are rendered here.
    """
    h = trace.header
    pieces = ((l, hd, start, stop) for l, hd in np.ndindex(h.num_layers, h.num_heads)
              for start, stop in chunks)
    per_task = max(1, _TEXT_TASK_SCORES // ((chunks[0][1] - chunks[0][0]) * h.prompt_len))
    workers = min(_cpus(), -(-h.num_layers * h.num_heads * len(chunks) // per_task))
    if workers < 2:
        yield map(lambda piece: _prefill_text(trace, *piece), pieces)
        return
    with _fork_pool(workers, trace) as pool:
        yield pool.imap(_worker_prefill_text, pieces, chunksize=per_task)


def _write_text(trace: AttentionTrace, fh) -> None:
    """Write the canonical text container (fixed field order, each score as
    the shortest float64 round-trip decimal, single trailing newline): the
    prefill a chunk of one (layer, head)'s rows at a time, rendered on every
    CPU, then the decode one (step, layer) at a time."""
    h = trace.header
    n = h.prompt_len
    header = {
        "L": h.num_layers,
        "H": h.num_heads,
        "n": h.prompt_len,
        "T": h.num_decode_steps,
        "modality_labels": h.label_strings(),
    }
    fh.write(b'{"format_version":' + _json(FORMAT_VERSION) + b',"header":' + _json(header))
    fh.write(b',"prefill":[')
    chunks = list(_row_chunks(n, _TEXT_TASK_SCORES))
    with _rendered_prefill(trace, chunks) as texts:
        for l in range(h.num_layers):
            fh.write(b"[" if l == 0 else b",[")
            for hd in range(h.num_heads):
                fh.write(b"[" if hd == 0 else b",[")
                for start, _ in chunks:
                    if start:
                        fh.write(b",")
                    fh.write(next(texts))
                fh.write(b"]")
            fh.write(b"]")
    fh.write(b'],"decode":[')
    for s, vec in enumerate(trace.decode):
        fh.write(b"[" if s == 0 else b",[")
        for l, layer in enumerate(vec):
            if l:
                fh.write(b",")
            fh.write(b"[" + _json_lists(layer, [layer.shape[1]] * len(layer)) + b"]")
        fh.write(b"]")
    fh.write(b"]}\n")


def trace_to_text(trace: AttentionTrace) -> bytes:
    """The canonical text container as bytes."""
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

    def position(self) -> int:
        """How many characters come before the next one."""
        return self._dropped + self._pos

    def offset(self) -> int:
        """The file offset of the next character: the bytes read, less those
        of the pending text and those the UTF-8 decoder holds back."""
        held, _ = self._utf8.getstate()
        return self._fh.tell() - len(held) - len(self._buf[self._pos:].encode("utf-8"))

    def skip_list(self) -> bool:
        """Move past the next "]", whitespace and "]", where a list of lists
        of numbers ends, by searching the text: nothing is parsed. False, at
        no defined position, if the file ends first or the text passed over
        is not all ASCII."""
        while True:
            found = _LIST_END.search(self._buf, self._pos)
            if found:
                end = found.end()
            else:
                # Keep a last "]" that the next chunk may complete.
                end = self._buf.rfind("]", self._pos)
                if end < 0 or _WHITESPACE.match(self._buf, end + 1).end() < len(self._buf):
                    end = len(self._buf)
            # isascii() of the whole buffer is a flag lookup.
            if not (self._buf.isascii() or self._buf[self._pos:end].isascii()):
                return False
            self._pos = end
            if found:
                return True
            if not self._refill():
                return False

    def items(self, count: int, what: str):
        """Yield 0..count-1 before each item of the array that comes next,
        for the caller to parse; FormatError(what) unless the value is an
        array of `count` items."""
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
        if size != count:
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


# Why a list of scores cannot be read. An integer too large for a float64
# (JSON integers have no limit) is out of range.
_NOT_NUMBERS = "scores must be numbers"
_OUT_OF_RANGE = "score out of range"


def _read_head(reader: _JsonReader, l: int, hd: int, n: int, tri: np.ndarray) -> None:
    """Parse prefill[l][hd], a list of n rows, one row at a time into the
    packed triangle `tri`. A bad score is reported once every row's length is
    checked."""
    bad = None
    # A score too large for a float32 overflows its cast.
    with np.errstate(over="raise"):
        for i in reader.items(n, f"prefill[{l}][{hd}] must be a list of {n} rows"):
            row, plain = reader.scores()
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


def _read_prefill(reader: _JsonReader, header: TraceHeader, tail: _PrefillTail) -> None:
    """Parse the prefill one head at a time, passing each head to `tail`."""
    L, H, n = header.num_layers, header.num_heads, header.prompt_len
    tri = np.empty(tail.size, dtype=np.float32)
    for l in reader.items(L, f"prefill must be a list of {L} layers"):
        for hd in reader.items(H, f"prefill[{l}] must be a list of {H} heads"):
            _read_head(reader, l, hd, n, tri)
            tail.add(l, hd, tri)


class _FileSpan(io.RawIOBase):
    """`size` bytes of an open file from `offset`, read with os.pread, so
    that the offset the file's other readers share never moves."""

    def __init__(self, fd: int, offset: int, size: int):
        super().__init__()
        self._fd, self._at, self._end = fd, offset, offset + size

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        data = os.pread(self._fd, min(len(buf), self._end - self._at), self._at)
        buf[:len(data)] = data
        self._at += len(data)
        return len(data)


def _worker_heads(first: int, spans: list) -> np.ndarray:
    """Heads first, first + 1, ... of the prefill, each read from its
    (offset, size) byte span of the file, parsed and checked as the serial
    loader does; their kept rows, (heads, kept, n) float32. A span must hold
    its head and nothing else."""
    fd, header, rows = _worker_state
    n = header.prompt_len
    tail = _PrefillTail(header.num_layers, header.num_heads, n, rows)
    kept = np.zeros((len(spans), n - tail.first_row, n), dtype=np.float32)
    tri = np.empty(tail.size, dtype=np.float32)
    for j, (offset, size) in enumerate(spans):
        l, hd = divmod(first + j, header.num_heads)
        reader = _JsonReader(_FileSpan(fd, offset, size))
        _read_head(reader, l, hd, n, tri)
        reader.end()
        tail.keep(l, hd, tri, kept[j])
    return kept


class _SerialRetry(Exception):
    """The pool did not parse the prefill; the serial parse names why."""


def _read_prefill_in_pool(reader: _JsonReader, header: TraceHeader, tail: _PrefillTail,
                          rows: int | None, fd: int) -> bool:
    """Parse the prefill of the file `fd` in a pool of forked workers, one
    per CPU, into `tail.prefill`. False, having read nothing, unless
    this process may use two CPUs and the prefill makes two tasks or more.

    A task is consecutive whole heads of about _TEXT_TASK_SCORES scores, at
    least one. This process only walks the layer and head lists and finds
    where each head ends (`_JsonReader.skip_list`); its workers parse the
    heads (`_worker_heads`). Tasks are submitted in file order, at most two a
    worker in flight, and their kept rows stored as they arrive. Raises
    _SerialRetry once anything fails: a worker, a head end not found, or
    text in a head that is not ASCII, where characters stop being bytes.
    """
    L, H, n = header.num_layers, header.num_heads, header.prompt_len
    per_task = max(1, _TEXT_TASK_SCORES // tail.size)
    workers = min(_cpus(), -(-L * H // per_task))
    if workers < 2:
        return False
    prefill = tail.prefill.reshape(L * H, n - tail.first_row, n)
    pending = collections.deque()

    def collect(limit: int) -> None:
        # Results are stored in file order. A worker's error is not raised
        # here: its traceback would tie this frame, and the parse state with
        # it, into a cycle that outlives the serial retry.
        while pending and (len(pending) > limit or pending[0][1].ready()):
            first, result = pending.popleft()
            result.wait()
            if not result.successful():
                raise _SerialRetry
            heads = result.get()
            prefill[first:first + len(heads)] = heads

    try:
        # From here on a character is a byte: the walk takes only ASCII
        # punctuation and whitespace, and skip_list gives up on anything else.
        base = reader.offset() - reader.position()
        with _fork_pool(workers, (fd, header, rows)) as pool:
            spans = []
            for l in reader.items(L, f"prefill must be a list of {L} layers"):
                for hd in reader.items(H, f"prefill[{l}] must be a list of {H} heads"):
                    reader.peek()
                    start = reader.position()
                    if not reader.skip_list():
                        raise _SerialRetry
                    spans.append((base + start, reader.position() - start))
                    if len(spans) == per_task or l * H + hd == L * H - 1:
                        first = l * H + hd + 1 - len(spans)
                        pending.append((first, pool.apply_async(_worker_heads, (first, spans))))
                        spans = []
                        collect(2 * workers)
            collect(0)
    except (FormatError, OSError) as exc:
        # The walk met malformed text (which a worker may have met earlier
        # in the file), or the pool could not start.
        raise _SerialRetry from exc
    return True


def _decode_step(step, plain: bool, s: int, header: TraceHeader) -> np.ndarray:
    """Check decode step `s`, parsed as one value, and convert it. `plain`
    says whether its text holds nothing but numbers; if not, the vectors are
    searched for the score that is not one."""
    L, H, want = header.num_layers, header.num_heads, header.prompt_len + s
    arr = np.zeros((L, H, want), dtype=np.float32)
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


def _regular_file(fh) -> int | None:
    """The descriptor of `fh` if it is a regular file, else None."""
    try:
        fd = fh.fileno()
    except (AttributeError, OSError, ValueError):
        return None
    return fd if stat.S_ISREG(os.fstat(fd).st_mode) else None


def trace_from_text(data, rows: int | None = None) -> AttentionTrace:
    """Parse a text container from bytes or an open binary file.

    `rows` keeps only the last `rows` prompt rows of each (layer, head); None
    keeps all of them. Every row is checked either way. The document is read
    in chunks and parsed one prefill row and one decode step at a time, so no
    whole-document object is built; `header` must therefore come before
    `prefill` and `decode`.

    From a regular file, given two CPUs and a prefill of two tasks or more,
    the prefill's heads are parsed in a pool of forked workers
    (`_read_prefill_in_pool`). If that fails, the file is read again from
    where it started and parsed here, so the result, or the error and its
    message, is the same either way.
    """
    if isinstance(data, (bytes, bytearray)):
        data = io.BytesIO(data)
    fd = _regular_file(data)
    if fd is not None:
        origin = data.tell()
        try:
            return _parse_text(data, rows, fd)
        except _SerialRetry:
            data.seek(origin)
    return _parse_text(data, rows, None)


def _parse_text(fh, rows: int | None, fd: int | None) -> AttentionTrace:
    """`trace_from_text` of a binary file; `fd`, if not None, is its
    descriptor, for a pool to parse the prefill from."""
    reader = _JsonReader(fh)
    header = tail = None
    seen = set()
    decode = []
    for key in reader.fields("top-level value must be an object"):
        if key in ("prefill", "decode") and header is None:
            raise FormatError(f"header must come before {key}")
        if key == "format_version":
            version = reader.value()
            if version != FORMAT_VERSION:
                raise FormatError(f"unsupported format_version {version!r}")
        elif key == "header":
            header = _text_header(reader.value())
            tail = _PrefillTail(header.num_layers, header.num_heads, header.prompt_len, rows)
        elif key == "prefill":
            if fd is None or not _read_prefill_in_pool(reader, header, tail, rows, fd):
                _read_prefill(reader, header, tail)
        elif key == "decode":
            T = header.num_decode_steps
            for s in reader.items(T, f"decode must be a list of {T} steps"):
                decode.append(_decode_step(*reader.scores(), s, header))
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
    """Write the binary container, one (layer, head) packed triangle at a time."""
    h = trace.header
    L, H, n, T = h.num_layers, h.num_heads, h.prompt_len, h.num_decode_steps
    fh.write(BINARY_MAGIC)
    fh.write(np.array([FORMAT_VERSION, L, H, n, T], dtype="<u4").tobytes())
    fh.write(np.packbits(h.modality_labels, bitorder="little").tobytes())
    for l in range(L):
        for hd in range(H):
            for start, stop in _row_chunks(n):
                # Boolean indexing reads row-major, so the chunks' lower
                # triangles make up the packed triangle.
                lower = np.tri(stop - start, n, start, dtype=bool)
                block = trace.head_rows(l, hd, start, stop)
                fh.write(np.ascontiguousarray(block[lower], dtype="<f4").data)
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
    prefill is then read one head's packed triangle at a time into one
    reused buffer, and every row of every head is checked.
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
    tri = np.empty(tail.size, dtype="<f4")
    for l in range(L):
        for hd in range(H):
            _fill(fh, tri, "prefill scores")
            tail.add(l, hd, tri)
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
    (``.mkvt`` means binary, anything else text). The write is atomic and
    streams one (layer, head) block at a time from `trace.head_rows`."""
    path = os.fspath(path)
    if binary is None:
        binary = path.endswith(".mkvt")
    with atomic_file(path) as fh:
        (_write_binary if binary else _write_text)(trace, fh)


def load_trace(path: str | os.PathLike, rows: int | None = None) -> AttentionTrace:
    """Read a trace, sniffing the container by magic bytes, and validate it.

    `rows` keeps only the last `rows` prompt rows of each (layer, head), as
    many as importance or a baseline's observation window reads; None keeps
    the dense cube. Every row is checked either way, and a binary file is
    streamed one head at a time rather than read whole.
    """
    with open(path, "rb") as fh:
        binary = fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
        fh.seek(0)
        if binary:
            return trace_from_binary(fh, rows)
        return trace_from_text(fh, rows)
