"""Token importance from proxy rows, and trace-level attention statistics.

Importance of a prompt token is the attention mass it receives from the proxy
rows (the last few prompt rows, which sit on the question in a multimodal
prompt). Cumulative importance over *all* rows is deliberately not provided
here; that scorer belongs to the heavy-hitter baseline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .trace import AttentionTrace, Modality

DEFAULT_PROXY_COUNT = 8


@dataclass(frozen=True)
class ProxyConfig:
    """Which prompt rows act as importance probes.

    proxy_count is clamped to the prompt length, so the effective proxy set
    is the last min(proxy_count, n) prompt rows.
    """

    proxy_count: int = DEFAULT_PROXY_COUNT

    def __post_init__(self):
        if int(self.proxy_count) < 1:
            raise ParameterError(f"proxy_count must be >= 1, got {self.proxy_count}")

    def effective(self, prompt_len: int) -> int:
        return min(self.proxy_count, prompt_len)


def proxy_importance_matrix(trace: AttentionTrace, proxy: ProxyConfig | None = None) -> np.ndarray:
    """Importance for every (layer, head) the trace holds; shape (L, H, n),
    or (1, H, n) for a trace of one layer, float64.

    Column sums over the proxy rows, accumulated in float64 in ascending row
    order (a fixed order keeps results bit-stable between runs). Only the
    proxy rows of one head are read at a time. One head's importance is
    `[layer, head]` of the result, and its split by modality is
    `TraceTables.pool_mass`.
    """
    h = trace.header
    n = h.prompt_len
    p = (proxy or ProxyConfig()).effective(n)
    held = n - trace.first_row
    if p > held:
        raise ParameterError(
            f"{p} proxy rows requested, but the trace holds only the last {held} "
            f"prefill rows"
        )
    layers = trace.layers
    out = np.empty((len(layers), h.num_heads, n), dtype=np.float64)
    for (k, l), hd in itertools.product(enumerate(layers), range(h.num_heads)):
        out[k, hd] = trace.head_rows(l, hd, n - p).astype(np.float64).sum(axis=0)
    return out


def head_text_share(rows: np.ndarray, text_mask: np.ndarray, layer: int, head: int) -> float:
    """Share of one head's total prefill mass landing on text tokens.

    `rows` is the head's whole (n, n) prefill block: the float64 buffer a
    loader hands its `on_head` consumer, or `trace.head_rows(layer, head)`.
    It is summed as a C-contiguous float64 array, so both give the same bits.
    `text_mask` is the header's; `layer` and `head` name the head in errors.

    Prefill-only by design: it characterizes the prompt-processing pass, and
    appending decode steps to a trace must not change it.
    """
    n = text_mask.shape[0]
    if rows.shape != (n, n):
        raise ParameterError(
            f"head ({layer}, {head}): expected its whole ({n}, {n}) prefill block, "
            f"got rows of shape {rows.shape}"
        )
    block = np.ascontiguousarray(rows, dtype=np.float64)
    total = block.sum()
    if total <= 0:
        raise ValidationError(f"head ({layer}, {head}) carries no attention mass")
    # The same (n, k) array as block[:, text_mask], gathered several times
    # faster.
    return float(np.compress(text_mask, block, axis=1).sum() / total)


def sparsity_curve(
    trace: AttentionTrace,
    budget_fracs,
    proxy: ProxyConfig | None = None,
) -> list[tuple[float, str, float]]:
    """Retained importance share of the top tokens at each budget fraction.

    For each fraction f and each group ("all", "text", "visual"), tokens of
    the group are ranked by importance aggregated over layers and heads, the
    top ceil(f * group_size) are taken, and the captured share of the group's
    importance mass is reported. Rows come back as (budget_frac, group,
    retained_share) tuples, in input order of fractions.

    A group with no tokens (or no mass) reports share 1.0: there is nothing
    left to capture.
    """
    fracs = [float(f) for f in budget_fracs]
    for f in fracs:
        if not 0.0 < f <= 1.0:
            raise ParameterError(f"budget fractions must be in (0, 1], got {f}")
    agg = proxy_importance_matrix(trace, proxy).mean(axis=(0, 1))
    vis = trace.header.modality_labels
    groups = {
        "all": np.ones_like(vis, dtype=bool),
        Modality.TEXT.value: ~vis,
        Modality.VISUAL.value: vis,
    }
    # One descending cumulative sum per group; sequential accumulation of
    # non-negative values makes the curve exactly monotone in f.
    prefix = {}
    for name, mask in groups.items():
        scores = np.sort(agg[mask])[::-1]
        prefix[name] = np.cumsum(scores)
    rows = []
    for f in fracs:
        for name in groups:
            cum = prefix[name]
            if cum.size == 0 or cum[-1] <= 0:
                rows.append((f, name, 1.0))
                continue
            k = int(np.ceil(f * cum.size))
            rows.append((f, name, float(cum[k - 1] / cum[-1])))
    return rows
