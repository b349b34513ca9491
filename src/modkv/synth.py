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
stores per-head weight vectors, not prefill rows: `head_rows` computes the
rows each reader asks for, so its memory is O(L·H·n) however it is used.
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


def _rebalance_scales(sum_v: float, sum_t: float, bias: float) -> tuple[float, float]:
    """Per-pool scale factors that pin the visual share to `bias`.

    When one pool is empty all mass goes to the other, whatever the bias.
    """
    if sum_v <= 0.0 and sum_t <= 0.0:
        raise ParameterError("cannot rebalance a row with no mass")
    if sum_v <= 0.0:
        return 0.0, 1.0 / sum_t
    if sum_t <= 0.0:
        return 1.0 / sum_v, 0.0
    return bias / sum_v, (1.0 - bias) / sum_t


class _SyntheticTrace(AttentionTrace):
    """A generated trace whose prefill rows are computed on demand.

    Prefill row i of head (l, h) is a closed-form function of the head's
    weight vector, so only the weights `(L, H, n)` are kept and no prefill
    array is stored: `head_rows` computes the rows asked for of one head.
    """

    def __init__(self, header: TraceHeader, weights: np.ndarray,
                 bias: tuple[float, ...], decode: list[np.ndarray]):
        self.header = header
        self.decode = decode
        self.first_row = 0
        self._weights = weights
        self._bias = bias

    def head_rows(self, layer: int, head: int, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
        """Prefill rows start..stop-1 of one head: row i is the causal prefix
        0..i of the weights, each modality scaled so the visual share is the
        head bias."""
        stop = self.header.prompt_len if stop is None else stop
        u = self._weights[layer, head]
        vis = self.header.modality_labels
        bias = self._bias[head]
        uv = np.where(vis, u, 0.0)
        ut = np.where(vis, 0.0, u)
        cum_v = np.cumsum(uv)[start:stop]
        cum_t = np.cumsum(ut)[start:stop]
        both = (cum_v > 0) & (cum_t > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale_v = np.where(both, bias / cum_v, np.where(cum_v > 0, 1.0 / cum_v, 0.0))
            scale_t = np.where(both, (1.0 - bias) / cum_t, np.where(cum_t > 0, 1.0 / cum_t, 0.0))
        m = np.multiply(scale_v[:, None].astype(np.float32), uv.astype(np.float32))
        m += scale_t[:, None].astype(np.float32) * ut.astype(np.float32)
        m *= np.tri(stop - start, len(u), start, dtype=bool)
        return m


def generate_synthetic(spec: SyntheticTraceSpec) -> AttentionTrace:
    """Generate a trace satisfying every AttentionTrace invariant.

    The returned trace keeps each head's weight vector and computes prefill
    rows when they are read, so neither saving nor simulating it builds the
    dense cube.
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
    weights = np.empty((L, H, n), dtype=np.float64)
    decode = [np.empty((L, H, n + s), dtype=np.float32) for s in range(T)]

    for l in range(L):
        for h in range(H):
            bias = spec.head_preference_bias[h]
            u = weights[l, h]
            if count_v:
                u[vis] = (rng.permutation(count_v) + 1.0) ** -spec.skew
            if count_v < n:
                u[txt] = (rng.permutation(n - count_v) + 1.0) ** -spec.skew

            if T:
                bulk = u.sum()
                w_prompt = u.copy()
                w_prompt[n - anchor_width:] += QUESTION_ANCHOR_WEIGHT * bulk / anchor_width
                sum_v = float(w_prompt[vis].sum())
                sum_t_prompt = float(w_prompt[txt].sum())
                for s in range(T):
                    ages = np.arange(s - 1, -1, -1, dtype=np.float64)
                    hist = DECODE_HISTORY_WEIGHT * bulk * DECODE_HISTORY_DECAY**ages
                    sv, st = _rebalance_scales(sum_v, sum_t_prompt + float(hist.sum()), bias)
                    row = decode[s][l, h]
                    row[:n] = np.where(vis, sv * w_prompt, st * w_prompt)
                    row[n:] = st * hist

    return _SyntheticTrace(header, weights, spec.head_preference_bias, decode)
