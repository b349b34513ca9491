"""Deterministic synthetic trace generator.

The generator builds traces with the two structural properties the eviction
policies care about:

* within each modality, token weights follow a Zipf law with a configurable
  exponent, under a per-(layer, head) random rank assignment, and
* each attention row routes a fixed share of its mass to visual tokens
  (``head_preference_bias``), exactly, whenever its causal prefix contains
  both modalities.

Prefill row i is the causal prefix of the head's weight vector, renormalized
per modality so the visual share equals the head bias. Decode rows reuse the
same weights plus two small extras that mimic decode-time behavior: a
"question anchor" bump on the last few prompt positions (decode steps keep
consulting the end of the prompt) and a recency-decayed component over
previously generated tokens. The same exact modality rebalance is applied, so
the bias contract holds for decode rows too.

Everything is a pure function of the SyntheticTraceSpec fields (including
the 64-bit seed): equal specs yield bit-identical traces. A generated trace
stores per-head weight vectors, not prefill or decode rows, and works a
layer at a time. For the prefill, the first read of a layer builds its row
factors, O(H·n); one kernel computes a chunk of rows over the columns they
can reach, `packed_rows` gathers its lower triangle for the writers, and
`head_rows` zero-pads it to full rows for every other reader. For the
decode, `generate_synthetic` keeps each (layer, step, head)'s two pool
scales and each head's bulk mass, and `decode_rows` rebuilds one layer of
one step, `(H, n + s)`, from them and the weights. So `generate` holds the
O(L·H·n) weights, the O(L·T·H) scales and one such block, and no decode
step. The `decode` list is built only when an in-process reader asks for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import round_half_up
from .errors import ParameterError
from .trace import AttentionTrace, TraceHeader

# Decode-row mixture constants, as fractions of the bulk weight mass.
QUESTION_ANCHOR_WIDTH = 8
QUESTION_ANCHOR_WEIGHT = 0.15
DECODE_HISTORY_WEIGHT = 0.05
DECODE_HISTORY_DECAY = 0.7


@dataclass(frozen=True)
class SyntheticTraceSpec:
    """Parameters for one synthetic trace.

    Attributes:
        num_layers / num_heads / prompt_len / num_decode_steps: trace shape.
        skew: Zipf exponent for within-modality weight concentration (> 0).
        modality_mix: fraction of prompt tokens labeled visual, in [0, 1].
        head_preference_bias: per-head share of row mass routed to visual
            tokens; a scalar broadcasts to every head.
        seed: 64-bit seed; identical specs generate bit-identical traces.
    """

    num_layers: int
    num_heads: int
    prompt_len: int
    num_decode_steps: int
    skew: float
    modality_mix: float
    head_preference_bias: float | tuple[float, ...]
    seed: int

    def __post_init__(self):
        for name in ("num_layers", "num_heads", "prompt_len"):
            if int(getattr(self, name)) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if int(self.num_decode_steps) < 0:
            raise ParameterError(
                f"num_decode_steps must be >= 0, got {self.num_decode_steps}"
            )
        if not self.skew > 0:
            raise ParameterError(f"skew must be > 0, got {self.skew}")
        if not 0.0 <= self.modality_mix <= 1.0:
            raise ParameterError(f"modality_mix must be in [0, 1], got {self.modality_mix}")
        bias = self.head_preference_bias
        if isinstance(bias, (int, float)):
            bias = (float(bias),) * self.num_heads
        else:
            bias = tuple(float(b) for b in bias)
        if len(bias) != self.num_heads:
            raise ParameterError(
                f"head_preference_bias has {len(bias)} entries for "
                f"{self.num_heads} heads"
            )
        for b in bias:
            if not 0.0 <= b <= 1.0:
                raise ParameterError(f"head_preference_bias entries must be in [0, 1], got {b}")
        object.__setattr__(self, "head_preference_bias", bias)
        if not 0 <= int(self.seed) < 2**64:
            raise ParameterError(f"seed must fit in 64 bits, got {self.seed}")


def _rebalance_scales(sum_v: np.ndarray, sum_t: np.ndarray,
                      bias: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pool scale factors that pin the visual share to `bias`, one pair
    per (visual, text) pair of pool masses, broadcast together.

    Where one pool is empty all mass goes to the other, whatever the bias.
    """
    both = (sum_v > 0) & (sum_t > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale_v = np.where(both, bias / sum_v, np.where(sum_v > 0, 1.0 / sum_v, 0.0))
        scale_t = np.where(both, (1.0 - bias) / sum_t, np.where(sum_t > 0, 1.0 / sum_t, 0.0))
    return scale_v, scale_t


def _decode_prompt(u: np.ndarray, bulk: np.ndarray, anchor_width: int) -> np.ndarray:
    """A layer's (H, n) decode weights over the prompt: each head's weights
    `u` with the question anchor bump, a share of its bulk mass `bulk`
    (H, 1), added to its last `anchor_width` positions."""
    w_prompt = u.copy()
    w_prompt[:, u.shape[-1] - anchor_width:] += QUESTION_ANCHOR_WEIGHT * bulk / anchor_width
    return w_prompt


def _history(bulk: np.ndarray, step: int) -> np.ndarray:
    """A layer's (H, step) decode weights over the tokens generated before
    decode step `step`, decaying with age from each head's bulk mass."""
    ages = np.arange(step - 1, -1, -1, dtype=np.float64)
    return DECODE_HISTORY_WEIGHT * bulk * DECODE_HISTORY_DECAY ** ages


class _SyntheticTrace(AttentionTrace):
    """A generated trace whose prefill and decode rows are computed on demand.

    Prefill row i of head (l, h) is a closed-form function of the head's
    weight vector, so only the weights `(L, H, n)` are kept and no prefill
    array is stored. The first read of a layer builds its heads' row factors,
    O(H·n), and keeps them until another layer is read. One layer of a
    decode step is rebuilt from the weights, each head's bulk mass and the
    step's two pool scales whenever it is read, until `decode` is read.
    """

    def __init__(self, header: TraceHeader, weights: np.ndarray, bias: np.ndarray,
                 bulk: np.ndarray, scales: np.ndarray):
        self.header = header
        self.first_row = 0
        self.layer = None
        self._weights = weights
        self._bias = bias
        self._bulk = bulk
        self._scales = scales
        self._decode = None
        self._layer = self._factors = None

    @property
    def decode(self) -> list[np.ndarray]:
        """Every decode step, built on first access and kept: from then on
        it is what `decode_rows` reads, so an edit to it is saved."""
        if self._decode is None:
            h = self.header
            self._decode = [np.stack([self._decode_block(s, l) for l in range(h.num_layers)])
                            for s in range(h.num_decode_steps)]
        return self._decode

    @decode.setter
    def decode(self, steps: list[np.ndarray]) -> None:
        self._decode = steps

    def _decode_block(self, step: int, layer: int) -> np.ndarray:
        """One layer of decode step `step`, (H, n + step) float32: the prompt
        and history weights, each modality scaled by the step's pool scale."""
        vis, n = self.header.modality_labels, self.header.prompt_len
        bulk = self._bulk[layer, :, None]
        w_prompt = _decode_prompt(self._weights[layer], bulk, min(QUESTION_ANCHOR_WIDTH, n))
        sv, st = self._scales[layer, :, step, :, None]
        rows = np.empty((self.header.num_heads, n + step), dtype="<f4")
        rows[:, :n] = np.where(vis, sv * w_prompt, st * w_prompt)
        rows[:, n:] = st * _history(bulk, step)
        return rows

    def decode_rows(self, step: int, layer: int) -> np.ndarray:
        if self._decode is not None:
            return super().decode_rows(step, layer)
        return self._decode_block(step, layer)

    def _block(self, layer: int, head: int, start: int, stop: int) -> np.ndarray:
        """Prefill rows start..stop-1 of one head over columns 0..stop-1, as
        float32, with the scores above the diagonal left in: row i scales
        each modality's weights by the factor that makes the causal prefix
        0..i carry the head bias as its visual share."""
        if layer != self._layer:
            vis, u = self.header.modality_labels, self._weights[layer]
            uv, ut = np.where(vis, u, 0.0), np.where(vis, 0.0, u)
            scale_v, scale_t = _rebalance_scales(np.cumsum(uv, axis=-1), np.cumsum(ut, axis=-1),
                                                 self._bias)
            # The layer's float32 (H, n, 2) scales and (H, 2, n) pool weights.
            self._factors = (np.stack([scale_v, scale_t], axis=-1).astype(np.float32),
                             np.stack([uv, ut], axis=1).astype(np.float32))
            self._layer = layer
        scales, pools = self._factors
        # Row i is scale_v[i] * uv + scale_t[i] * ut in float32, computed as
        # one matrix product: several times faster than elementwise passes
        # over the block. One of the two products is exactly 0 in every
        # column, so each score is the other product rounded once, whatever
        # order, layout or fused multiply-add the matrix product uses.
        return scales[head, start:stop] @ pools[head, :, :stop]

    def packed_rows(self, layer: int, head: int, start: int, stop: int) -> np.ndarray:
        lower = np.tri(stop - start, stop, start, dtype=bool)
        return self._block(layer, head, start, stop)[lower].astype("<f4", copy=False)

    def head_rows(self, layer: int, head: int, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
        n = self.header.prompt_len
        stop = n if stop is None else stop
        rows = np.zeros((stop - start, n), dtype=np.float32)
        np.copyto(rows[:, :stop], self._block(layer, head, start, stop),
                  where=np.tri(stop - start, stop, start, dtype=bool))
        return rows


def generate_synthetic(spec: SyntheticTraceSpec) -> AttentionTrace:
    """Generate a trace satisfying every AttentionTrace invariant.

    The returned trace keeps each head's weight vector and computes prefill
    rows and decode blocks when they are read, so neither saving nor
    simulating it builds the dense cube, and saving it builds no decode step
    beyond the one layer being written.
    """
    L, H = spec.num_layers, spec.num_heads
    n, T = spec.prompt_len, spec.num_decode_steps
    rng = np.random.default_rng(spec.seed)

    count_v = round_half_up(spec.modality_mix * n)
    vis = np.zeros(n, dtype=bool)
    vis[rng.permutation(n)[:count_v]] = True
    txt = ~vis
    header = TraceHeader(L, H, n, T, vis)

    anchor_width = min(QUESTION_ANCHOR_WIDTH, n)
    bias = np.array(spec.head_preference_bias, dtype=np.float64)[:, None]
    weights = np.empty((L, H, n), dtype=np.float64)
    bulks = np.empty((L, H), dtype=np.float64)
    # Each (layer, step, head)'s visual and text pool scales.
    scales = np.empty((L, 2, T, H), dtype=np.float64)

    for l in range(L):
        for u in weights[l]:  # head by head: the draw order fixes the bytes
            if count_v:
                u[vis] = (rng.permutation(count_v) + 1.0) ** -spec.skew
            if count_v < n:
                u[txt] = (rng.permutation(n - count_v) + 1.0) ** -spec.skew

        if T:
            # Every sum runs over contiguous rows, so each head's sums are
            # the pairwise sums of its own 1-d row. Each step's history is
            # summed and dropped before the next is built.
            bulk = weights[l].sum(axis=-1, keepdims=True)
            w_prompt = _decode_prompt(weights[l], bulk, anchor_width)
            scale_v, scale_t = _rebalance_scales(
                w_prompt.compress(vis, axis=-1).sum(axis=-1, keepdims=True),
                w_prompt.compress(txt, axis=-1).sum(axis=-1, keepdims=True)
                + np.array([_history(bulk, s).sum(axis=-1, keepdims=True) for s in range(T)]),
                bias)
            bulks[l] = bulk[:, 0]
            scales[l] = scale_v[..., 0], scale_t[..., 0]

    return _SyntheticTrace(header, weights, bias, bulks, scales)
