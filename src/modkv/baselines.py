"""Reference eviction baselines, simplified to their core selection rules.

All four share one interface: a per-(layer, head) keep-vector over prompt
positions with exactly B kept tokens, B = round(budget_frac * n) clamped to
[1, n], uniform across layers. The score-driven ones rank tokens by attention
mass received over a trailing window of prefill rows; ties break toward the
more recent token, matching the adaptive policy's convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .allocation import round_half_up
from .errors import ParameterError
from .policy import EvictionMask, TraceTables
from .trace import AttentionTrace


class BaselineKind(enum.Enum):
    RECENT_WINDOW = "recent_window"
    SINK_WINDOW = "sink_window"
    CUMULATIVE_TOPK = "cumulative_topk"
    FIXED_PRIORITY = "fixed_priority"


@dataclass(frozen=True)
class BaselineConfig:
    """Configuration shared by the baseline policies.

    Attributes:
        kind: which selection rule to apply.
        budget_frac: kept fraction of the prompt, in (0, 1].
        sink_count: leading positions SinkWindow always keeps.
        observation_window: trailing prefill rows the score-driven baselines
            aggregate over (default matches the adaptive policy's proxy
            count, for a like-for-like scorer).
        text_priority_frac: share of the budget FixedModalityPriority offers
            to text tokens before visual tokens get the rest.
    """

    kind: BaselineKind
    budget_frac: float
    sink_count: int = 4
    observation_window: int = 8
    text_priority_frac: float = 0.7

    def __post_init__(self):
        if not 0.0 < self.budget_frac <= 1.0:
            raise ParameterError(f"budget_frac must be in (0, 1], got {self.budget_frac}")
        if int(self.sink_count) < 0:
            raise ParameterError(f"sink_count must be >= 0, got {self.sink_count}")
        if int(self.observation_window) < 1:
            raise ParameterError(
                f"observation_window must be >= 1, got {self.observation_window}"
            )
        if not 0.0 <= self.text_priority_frac <= 1.0:
            raise ParameterError(
                f"text_priority_frac must be in [0, 1], got {self.text_priority_frac}"
            )

    @property
    def name(self) -> str:
        return self.kind.value

    @property
    def prefill_rows(self) -> int:
        """Trailing prefill rows this baseline reads: the observation window
        for the score-driven ones, none for the window ones."""
        if self.kind in (BaselineKind.CUMULATIVE_TOPK, BaselineKind.FIXED_PRIORITY):
            return self.observation_window
        return 0

    def kept_per_head(self, prompt_len: int) -> int:
        return min(max(round_half_up(self.budget_frac * prompt_len), 1), prompt_len)

    def check(self, prompt_len: int) -> None:
        """Raise ParameterError if no trace of `prompt_len` tokens can take
        these settings: a sink_count above the budget. The header alone
        decides it, so `run` checks before the file streams."""
        budget = self.kept_per_head(prompt_len)
        if self.kind is BaselineKind.SINK_WINDOW and self.sink_count > budget:
            raise ParameterError(
                f"sink_count {self.sink_count} must not exceed the budget {budget}"
            )


def baseline_mask(tables: TraceTables | AttentionTrace, cfg: BaselineConfig) -> EvictionMask:
    """Build the keep-vectors for one baseline policy.

    The score-driven baselines keep prefixes of rankings from `tables`,
    shared with other policies run on the same trace; given the trace
    itself, they are computed for this call.
    """
    tables = TraceTables.of(tables)
    h = tables.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    cfg.check(n)
    budget = cfg.kept_per_head(n)
    keep = np.zeros((L, H, n), dtype=bool)

    if cfg.kind is BaselineKind.RECENT_WINDOW:
        keep[:, :, n - budget:] = True
        return EvictionMask(policy=cfg.name, keep=keep)

    if cfg.kind is BaselineKind.SINK_WINDOW:
        # sink_count == budget leaves an empty recent window.
        keep[:, :, : cfg.sink_count] = True
        keep[:, :, n - (budget - cfg.sink_count):] = True
        return EvictionMask(policy=cfg.name, keep=keep)

    if cfg.kind is BaselineKind.CUMULATIVE_TOPK:
        keep = tables.token_ranks(cfg.observation_window) < budget
        return EvictionMask(policy=cfg.name, keep=keep)

    # FixedModalityPriority: text tokens first, visual with the rest, spill
    # back to text if visual runs short.
    vis = h.modality_labels
    n_vis = int(vis.sum())
    want_text = min(round_half_up(cfg.text_priority_frac * budget), n - n_vis)
    want_vis = min(budget - want_text, n_vis)
    want_text = min(budget - want_vis, n - n_vis)
    ranks = tables.modality_ranks(cfg.observation_window)
    keep = ranks < np.where(vis, want_vis, want_text).astype(ranks.dtype)
    return EvictionMask(policy=cfg.name, keep=keep)
