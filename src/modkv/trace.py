"""Attention trace model and on-disk containers.

A trace is a recording of post-softmax attention scores from one multimodal
inference: a dense causal prefill cube plus one score vector per decode step.
Nothing here recomputes attention; the simulator only ever replays what was
recorded.

Two interchangeable containers are supported and sniffed by magic bytes:

* a text container (JSON, canonical field order, each score rendered as
  the shortest decimal of its float64 value), and
* a binary container (magic ``MKVT``, little-endian u32 header, modality
  labels packed as bits, scores as little-endian float32).

Scores are canonically float32: the binary container stores float32 anyway,
and the text writer renders each float32 score widened to float64, as the
shortest decimal that round-trips through float64 (0.1f is written
0.10000000149011612). Reading such a decimal back to float32 is exact, so
saving a loaded trace reproduces the file byte for byte in either format.
Text input written with higher precision is quantized on load.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .files import write_atomic

FORMAT_VERSION = 1
BINARY_MAGIC = b"MKVT"

# Every attention row must sum to one within this tolerance. Row sums are
# always accumulated in float64 so float32 storage noise stays far below it.
ROW_SUM_TOL = 1e-6


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
        prefill: float32 array (L, H, n, n); row i of each (layer, head) is a
            causal probability vector over positions 0..i (upper triangle 0).
        decode: list of float32 arrays, one per decode step; step s (0-based)
            has shape (L, H, n + s), a probability vector over the prompt plus
            the s decode tokens generated before it.
    """

    header: TraceHeader
    prefill: np.ndarray
    decode: list[np.ndarray]

    def __post_init__(self):
        self.prefill = np.ascontiguousarray(self.prefill, dtype=np.float32)
        self.decode = [np.ascontiguousarray(d, dtype=np.float32) for d in self.decode]

    def validate(self) -> None:
        """Check every structural invariant, raising ValidationError with the
        offending (layer, head, row) coordinates on the first failure."""
        h = self.header
        L, H, n = h.num_layers, h.num_heads, h.prompt_len
        if self.prefill.shape != (L, H, n, n):
            raise ValidationError(
                f"prefill shape {self.prefill.shape} does not match header "
                f"({L}, {H}, {n}, {n})"
            )
        if len(self.decode) != h.num_decode_steps:
            raise ValidationError(
                f"decode has {len(self.decode)} steps, header says {h.num_decode_steps}"
            )
        if np.any(self.prefill < 0):
            l, hd, i, _ = np.argwhere(self.prefill < 0)[0]
            raise ValidationError(f"negative score at ({l}, {hd}, {i})")
        upper = np.triu_indices(n, k=1)
        if n > 1 and np.any(self.prefill[:, :, upper[0], upper[1]] != 0):
            bad = np.argwhere(self.prefill[:, :, upper[0], upper[1]] != 0)[0]
            l, hd, flat = bad
            raise ValidationError(
                f"causality violated at ({l}, {hd}, {upper[0][flat]}): "
                f"mass on a future position"
            )
        sums = self.prefill.sum(axis=3, dtype=np.float64)
        bad = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(bad):
            l, hd, i = np.argwhere(bad)[0]
            raise ValidationError(
                f"row sum {sums[l, hd, i]:.6g} at ({l}, {hd}, {i})"
            )
        for s, vec in enumerate(self.decode):
            if vec.shape != (L, H, n + s):
                raise ValidationError(
                    f"decode step {s} has shape {vec.shape}, expected ({L}, {H}, {n + s})"
                )
            if np.any(vec < 0):
                l, hd, _ = np.argwhere(vec < 0)[0]
                raise ValidationError(
                    f"negative score at decode step {s}, ({l}, {hd})"
                )
            dsums = vec.sum(axis=2, dtype=np.float64)
            dbad = np.abs(dsums - 1.0) > ROW_SUM_TOL
            if np.any(dbad):
                l, hd = np.argwhere(dbad)[0]
                raise ValidationError(
                    f"row sum {dsums[l, hd]:.6g} at decode step {s}, ({l}, {hd})"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttentionTrace):
            return NotImplemented
        return (
            self.header == other.header
            and np.array_equal(self.prefill, other.prefill)
            and len(self.decode) == len(other.decode)
            and all(np.array_equal(a, b) for a, b in zip(self.decode, other.decode))
        )


# ---------------------------------------------------------------------------
# text container


def _trace_to_json_obj(trace: AttentionTrace) -> dict:
    h = trace.header
    n = h.prompt_len
    prefill = [
        [
            [trace.prefill[l, hd, i, : i + 1].tolist() for i in range(n)]
            for hd in range(h.num_heads)
        ]
        for l in range(h.num_layers)
    ]
    decode = [vec.tolist() for vec in trace.decode]
    return {
        "format_version": FORMAT_VERSION,
        "header": {
            "L": h.num_layers,
            "H": h.num_heads,
            "n": h.prompt_len,
            "T": h.num_decode_steps,
            "modality_labels": h.label_strings(),
        },
        "prefill": prefill,
        "decode": decode,
    }


def trace_to_text(trace: AttentionTrace) -> bytes:
    """Render the canonical text container (fixed field order, each score as
    the shortest float64 round-trip decimal, single trailing newline)."""
    obj = _trace_to_json_obj(trace)
    body = json.dumps(obj, separators=(",", ":"), ensure_ascii=True)
    return body.encode("ascii") + b"\n"


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise FormatError(f"missing field {where}{key}")
    return obj[key]


def trace_from_text(data: bytes) -> AttentionTrace:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"not a valid text trace: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError("top-level value must be an object")
    version = _require(obj, "format_version", "")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version!r}")
    header_obj = _require(obj, "header", "")
    if not isinstance(header_obj, dict):
        raise FormatError("header must be an object")
    L = _require(header_obj, "L", "header.")
    H = _require(header_obj, "H", "header.")
    n = _require(header_obj, "n", "header.")
    T = _require(header_obj, "T", "header.")
    labels_raw = _require(header_obj, "modality_labels", "header.")
    for name, val in (("L", L), ("H", H), ("n", n), ("T", T)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise FormatError(f"header.{name} must be an integer, got {val!r}")
    if not isinstance(labels_raw, list) or len(labels_raw) != n:
        raise FormatError(f"header.modality_labels must be a list of length {n}")
    labels = np.array([Modality.from_str(s) is Modality.VISUAL for s in labels_raw])

    prefill_obj = _require(obj, "prefill", "")
    decode_obj = _require(obj, "decode", "")
    try:
        header = TraceHeader(L, H, n, T, labels)
    except ValidationError as exc:
        raise FormatError(f"bad header: {exc}") from None

    prefill = np.zeros((L, H, n, n), dtype=np.float32)
    if not isinstance(prefill_obj, list) or len(prefill_obj) != L:
        raise FormatError(f"prefill must be a list of {L} layers")
    for l, layer in enumerate(prefill_obj):
        if not isinstance(layer, list) or len(layer) != H:
            raise FormatError(f"prefill[{l}] must be a list of {H} heads")
        for hd, rows in enumerate(layer):
            if not isinstance(rows, list) or len(rows) != n:
                raise FormatError(f"prefill[{l}][{hd}] must be a list of {n} rows")
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != i + 1:
                    raise FormatError(
                        f"prefill[{l}][{hd}] row {i}: expected {i + 1} entries, "
                        f"got {len(row) if isinstance(row, list) else type(row).__name__}"
                    )
                prefill[l, hd, i, : i + 1] = row

    decode = []
    if not isinstance(decode_obj, list) or len(decode_obj) != T:
        raise FormatError(f"decode must be a list of {T} steps")
    for s, step in enumerate(decode_obj):
        want = n + s
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
                arr[l, hd] = vec
        decode.append(arr)

    trace = AttentionTrace(header, prefill, decode)
    trace.validate()
    return trace


# ---------------------------------------------------------------------------
# binary container
#
# layout: MKVT | u32 version | u32 L | u32 H | u32 n | u32 T
#         | ceil(n/8) bytes of labels (bit i set = visual, LSB-first)
#         | prefill scores, f32le, [layer][head][row] lower triangle only
#         | decode scores, f32le, [step][layer][head][position]


def trace_to_binary(trace: AttentionTrace) -> bytes:
    h = trace.header
    L, H, n, T = h.num_layers, h.num_heads, h.prompt_len, h.num_decode_steps
    out = bytearray()
    out += BINARY_MAGIC
    out += np.array([FORMAT_VERSION, L, H, n, T], dtype="<u4").tobytes()
    out += np.packbits(h.modality_labels, bitorder="little").tobytes()
    rows, cols = np.tril_indices(n)
    tri = np.ascontiguousarray(trace.prefill[:, :, rows, cols], dtype="<f4")
    out += tri.tobytes()
    for vec in trace.decode:
        out += np.ascontiguousarray(vec, dtype="<f4").tobytes()
    return bytes(out)


def trace_from_binary(data: bytes) -> AttentionTrace:
    if data[:4] != BINARY_MAGIC:
        raise FormatError("bad magic: not a binary trace")
    if len(data) < 4 + 5 * 4:
        raise FormatError("truncated file: header")
    head = np.frombuffer(data, dtype="<u4", count=5, offset=4)
    version, L, H, n, T = (int(x) for x in head)
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version}")
    if min(L, H, n) < 1:
        raise FormatError(f"bad header dimensions L={L} H={H} n={n}")
    pos = 4 + 5 * 4
    label_bytes = (n + 7) // 8
    if len(data) < pos + label_bytes:
        raise FormatError("truncated file: modality labels")
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, count=label_bytes, offset=pos),
        bitorder="little",
    )[:n].astype(bool)
    pos += label_bytes

    tri_count = L * H * (n * (n + 1) // 2)
    decode_counts = [L * H * (n + s) for s in range(T)]
    want = pos + 4 * (tri_count + sum(decode_counts))
    if len(data) != want:
        raise FormatError(
            f"file length {len(data)} does not match header (expected {want})"
        )

    flat = np.frombuffer(data, dtype="<f4", count=tri_count, offset=pos)
    pos += 4 * tri_count
    rows, cols = np.tril_indices(n)
    prefill = np.zeros((L, H, n, n), dtype=np.float32)
    prefill[:, :, rows, cols] = flat.reshape(L * H, -1).reshape(L, H, -1)
    decode = []
    for s in range(T):
        cnt = decode_counts[s]
        vec = np.frombuffer(data, dtype="<f4", count=cnt, offset=pos)
        pos += 4 * cnt
        decode.append(vec.reshape(L, H, n + s).copy())

    header = TraceHeader(L, H, n, T, bits)
    trace = AttentionTrace(header, prefill, decode)
    trace.validate()
    return trace


# ---------------------------------------------------------------------------
# file front end


def save_trace(trace: AttentionTrace, path: str | os.PathLike, *, binary: bool | None = None) -> None:
    """Write a trace. Format comes from `binary` or, when None, the suffix
    (``.mkvt`` means binary, anything else text). The write is atomic."""
    path = os.fspath(path)
    if binary is None:
        binary = path.endswith(".mkvt")
    write_atomic(path, trace_to_binary(trace) if binary else trace_to_text(trace))


def load_trace(path: str | os.PathLike) -> AttentionTrace:
    """Read a trace, sniffing the container by magic bytes, and validate it."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] == BINARY_MAGIC:
        return trace_from_binary(data)
    return trace_from_text(data)
