"""Modality-adaptive eviction policy: budget planning and mask construction.

Planning walks the layers in order. For every head it measures, per modality,
how many tokens are needed to cover a threshold share of that modality's
importance mass (the coverage counts). In Adaptive mode those counts are the
retention; in Proportional mode retention is the head's layer budget split
between modalities in proportion to their importance mass. Either way, each
layer's aggregate deviation from budget is rolled into the remaining layers'
budgets, so early overdrafts shrink what later layers may keep. The budget
stays real-valued across layers; integers only appear where retention counts
are materialized.

Mask construction turns allocations into per-(layer, head) keep-vectors by
taking the top-importance tokens of each modality, ties broken toward the
more recent token. Proxy tokens can be pinned (kept unconditionally, charged
against the text allocation) since they anchor the question being answered.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .allocation import round_half_up
from .errors import FormatError, ParameterError, ValidationError
from .files import write_atomic
from .importance import ProxyConfig, proxy_importance_matrix
from .trace import FORMAT_VERSION, AttentionTrace


class PolicyMode(enum.Enum):
    ADAPTIVE = "adaptive"
    PROPORTIONAL = "proportional"


@dataclass(frozen=True)
class PolicyConfig:
    """Knobs for the modality-adaptive policy.

    Attributes:
        budget_frac: target kept fraction of the prompt per head, in (0, 1].
        coverage_threshold: share of each modality's importance mass the
            coverage counts must reach, in (0, 1].
        proxy: which prompt rows probe token importance.
        mode: ADAPTIVE retains the coverage counts; PROPORTIONAL retains the
            layer budget split by modality preference.
        head_normalize_compensation: spread each layer's budget deviation
            over heads as well as remaining layers (keeps the global budget
            conserved); the unnormalized variant divides by remaining layers
            only.
        min_keep_per_modality: floor on each modality's allocation.
        pin_proxy_tokens: always keep the proxy tokens, charging their count
            against the text allocation.
    """

    budget_frac: float
    coverage_threshold: float = 0.9
    proxy: ProxyConfig = field(default_factory=ProxyConfig)
    mode: PolicyMode = PolicyMode.ADAPTIVE
    head_normalize_compensation: bool = True
    min_keep_per_modality: int = 0
    pin_proxy_tokens: bool = True

    def __post_init__(self):
        if not 0.0 < self.budget_frac <= 1.0:
            raise ParameterError(f"budget_frac must be in (0, 1], got {self.budget_frac}")
        if not 0.0 < self.coverage_threshold <= 1.0:
            raise ParameterError(
                f"coverage_threshold must be in (0, 1], got {self.coverage_threshold}"
            )
        if int(self.min_keep_per_modality) < 0:
            raise ParameterError(
                f"min_keep_per_modality must be >= 0, got {self.min_keep_per_modality}"
            )

    @property
    def name(self) -> str:
        return self.mode.value

    @property
    def prefill_rows(self) -> int:
        """Trailing prefill rows this policy reads: its proxy rows."""
        return self.proxy.proxy_count


@dataclass
class BudgetPlan:
    """Planner output: budgets, deviations, and integer allocations.

    layer_budget[l] is the per-head budget entering layer l (real valued);
    deviation[l] sums, over heads, how far that layer's coverage needs sit
    above (+) or below (-) the budget. The last entry is the residual left
    after the final layer. Allocations are the retained token counts per
    (layer, head, modality).
    """

    mode: PolicyMode
    budget_frac: float
    prompt_len: int
    layer_budget: np.ndarray
    deviation: np.ndarray
    alloc_visual: np.ndarray
    alloc_text: np.ndarray
    need_visual: np.ndarray
    need_text: np.ndarray
    warnings: list[str] = field(default_factory=list)

    @property
    def final_residual(self) -> float:
        return float(self.deviation[-1])

    def total_allocated(self) -> int:
        return int(self.alloc_visual.sum() + self.alloc_text.sum())


@dataclass
class EvictionMask:
    """Per-(layer, head) boolean keep-vectors over prompt positions."""

    policy: str
    keep: np.ndarray
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.keep = np.asarray(self.keep, dtype=bool)
        if self.keep.ndim != 3:
            raise ValidationError(f"keep must be (layers, heads, prompt), got {self.keep.shape}")

    def kept_counts(self) -> np.ndarray:
        return self.keep.sum(axis=2)


# ---------------------------------------------------------------------------
# rank-prefix kernel


def pool_ranks(scores: np.ndarray, pools) -> np.ndarray:
    """Rank of every position within its pool, per (layer, head).

    Rank 0 is the highest score; ties go to the more recent (larger)
    position, so keeping a prefix `rank < k` of a pool keeps its top k tokens
    under the same order everywhere. `pools` is a sequence of disjoint
    position-index arrays; a position in no pool gets rank n, which no quota
    reaches.
    """
    n = scores.shape[-1]
    ranks = np.full(scores.shape, n, dtype=np.int64)
    for idx in pools:
        if idx.size == 0:
            continue
        # A stable ascending sort of the negated, reversed pool orders by
        # score descending with the later position first among equals.
        order = idx.size - 1 - np.argsort(-scores[..., idx[::-1]], axis=-1, kind="stable")
        sub = np.empty(order.shape, dtype=np.int64)
        np.put_along_axis(sub, order, np.arange(idx.size), axis=-1)
        ranks[..., idx] = sub
    return ranks


class TraceTables:
    """The tables every policy evaluated on one trace shares.

    Importance, rankings and coverage counts depend on the trace and a few
    knobs (proxy or observation row count, pinned tail, threshold), never on
    the budget, so a grid of cells needs each of them once. Each table is
    built on first use and lives as long as this object: make one per trace,
    pass it down to `compare` and the planners, and drop it to free them. The
    trace must not change while its tables are in use.
    """

    def __init__(self, trace: AttentionTrace):
        self.trace = trace
        self._tables: dict = {}

    def _get(self, key, build):
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def _rows(self, count: int) -> int:
        return min(count, self.trace.header.prompt_len)

    def importance(self, count: int) -> np.ndarray:
        """Column sums over the last `count` prefill rows, (L, H, n) float64.

        Proxy importance and the baselines' window scores are this one table.
        """
        rows = self._rows(count)
        return self._get(
            ("importance", rows),
            lambda: proxy_importance_matrix(self.trace, ProxyConfig(rows)),
        )

    def needs(self, count: int, threshold: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-head coverage counts (visual, text), each (L, H) int64."""
        rows = self._rows(count)
        vis = self.trace.header.modality_labels
        return self._get(
            ("needs", rows, threshold),
            lambda: coverage_counts(self.importance(rows), vis, threshold),
        )

    def pool_mass(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-head importance mass (visual, text), each (L, H) float64."""
        rows = self._rows(count)
        vis = self.trace.header.modality_labels

        def build():
            scores = self.importance(rows)
            # Contiguous pools sum row by row exactly as a 1-d sum would.
            return tuple(
                np.ascontiguousarray(scores[..., pool]).sum(axis=-1) for pool in (vis, ~vis)
            )

        return self._get(("pool_mass", rows), build)

    def modality_ranks(self, count: int, pinned: int = 0) -> np.ndarray:
        """Ranks within the visual and the text pool, (L, H, n).

        The last `pinned` positions belong to neither pool.
        """
        rows = self._rows(count)
        vis = self.trace.header.modality_labels
        head = vis[: vis.size - pinned]
        return self._get(
            ("modality_ranks", rows, pinned),
            lambda: pool_ranks(
                self.importance(rows), (np.flatnonzero(head), np.flatnonzero(~head))
            ),
        )

    def token_ranks(self, count: int) -> np.ndarray:
        """Ranks over all prompt positions as one pool, (L, H, n)."""
        rows = self._rows(count)
        n = self.trace.header.prompt_len
        return self._get(
            ("token_ranks", rows),
            lambda: pool_ranks(self.importance(rows), (np.arange(n),)),
        )

    def decode(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per decode step: the float64 vector (L, H, n + s), its mass on
        decode tokens and its total, both (L, H)."""
        n = self.trace.header.prompt_len

        def build():
            steps = []
            for vec in self.trace.decode:
                v = vec.astype(np.float64)
                steps.append((v, v[:, :, n:].sum(axis=2), v.sum(axis=2)))
            return steps

        return self._get(("decode",), build)


# ---------------------------------------------------------------------------
# planning primitives


def coverage_counts(scores: np.ndarray, visual: np.ndarray, threshold: float):
    """Minimum token counts covering `threshold` of each modality's mass.

    Tokens are taken in descending importance order; the count is the
    smallest prefix whose mass reaches threshold * modality_total. A modality
    with no mass needs 0 tokens. Scale-invariant: rescaling all scores leaves
    the counts unchanged.

    `scores` has shape (..., n); the counts are taken along the last axis.

    Returns:
        (visual_count, text_count): two ints for a 1-d input, else two int64
        arrays of shape scores.shape[:-1].
    """
    if not 0.0 < threshold <= 1.0:
        raise ParameterError(f"threshold must be in (0, 1], got {threshold}")
    scores = np.asarray(scores)
    visual = np.asarray(visual, dtype=bool)
    out = []
    for mask in (visual, ~visual):
        vals = np.sort(scores[..., mask], axis=-1)[..., ::-1]
        cum = np.cumsum(vals, axis=-1)
        if cum.shape[-1] == 0:
            out.append(np.zeros(cum.shape[:-1], dtype=np.int64))
            continue
        total = cum[..., -1:]
        # On a non-decreasing cumsum, the count of entries below the target
        # is the left insertion point of the target.
        count = (cum < threshold * total).sum(axis=-1, dtype=np.int64) + 1
        out.append(np.where(total[..., 0] > 0, count, 0))
    if scores.ndim == 1:
        return int(out[0]), int(out[1])
    return out[0], out[1]


def layer_budget_deviation(
    need_visual: np.ndarray, need_text: np.ndarray, layer_budget: float
) -> float:
    """Aggregate, over heads, how far coverage needs exceed the budget.

    Positive means the layer wants more than budgeted; negative means thrift.
    """
    needs = np.asarray(need_visual, dtype=np.float64) + np.asarray(need_text, dtype=np.float64)
    return float(np.sum(needs - layer_budget))


def update_layer_budget(
    layer_budget: float,
    deviation: float,
    layer_index: int,
    num_layers: int,
    num_heads: int,
    head_normalize: bool = True,
) -> float:
    """Roll one layer's deviation into the next layer's budget.

    The deviation is amortized over the remaining layers; with
    head_normalize it is spread over heads too (per-head units), which is
    what makes total retention telescope back to the global budget. The
    result is not clamped: `plan_budgets` applies its floor, and warns.
    """
    remaining = num_layers - layer_index - 1
    if remaining < 1:
        raise ParameterError("no remaining layers to update")
    if num_heads < 1:
        raise ParameterError(f"num_heads must be >= 1, got {num_heads}")
    step = deviation / (num_heads * remaining) if head_normalize else deviation / remaining
    return layer_budget - step


def _split_by_preference(
    wv: np.ndarray, wt: np.ndarray, n_vis: int, n_txt: int, total: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per head, the largest-remainder split of `total` in proportion to
    [wv, wt], falling back to the token counts where a head has no mass.

    Same arithmetic as the scalar split kept as the reference in
    tests/oracles.py: shares (w / w.sum()) * total,
    floored, and the 0-2 leftover units go by larger remainder, then larger
    weight, then visual first.
    """
    has_mass = wv + wt > 0
    w0 = np.where(has_mass, wv, float(n_vis))
    w1 = np.where(has_mass, wt, float(n_txt))
    s = w0 + w1
    e0 = (w0 / s) * total
    e1 = (w1 / s) * total
    b0 = np.floor(e0).astype(np.int64)
    b1 = np.floor(e1).astype(np.int64)
    leftover = total - (b0 + b1)
    f0 = e0 - b0
    f1 = e1 - b1
    visual_first = (f0 > f1) | ((f0 == f1) & (w0 >= w1))
    b0 += (leftover == 2) | ((leftover == 1) & visual_first)
    b1 += (leftover == 2) | ((leftover == 1) & ~visual_first)
    return b0, b1


# ---------------------------------------------------------------------------
# planner


def plan_budgets(
    trace: AttentionTrace, cfg: PolicyConfig, *, tables: TraceTables | None = None
) -> BudgetPlan:
    """Plan per-(layer, head, modality) retention for a whole trace.

    `tables` shares importance and coverage counts with other policies run
    on the same trace; without it they are computed for this call.
    """
    if tables is None:
        tables = TraceTables(trace)
    h = trace.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    vis = h.modality_labels
    n_vis = int(vis.sum())
    n_txt = n - n_vis
    warnings: list[str] = []

    budget0 = round_half_up(cfg.budget_frac * n)
    if budget0 < 1:
        warnings.append(f"initial budget {budget0} clamped up to 1")
        budget0 = 1
    floor = 2.0 * cfg.min_keep_per_modality

    # Copies: the plan owns its arrays, the tables serve every plan.
    need_v, need_t = (
        a.copy() for a in tables.needs(cfg.proxy.proxy_count, cfg.coverage_threshold)
    )
    proportional = cfg.budget_frac < 1.0 and cfg.mode is PolicyMode.PROPORTIONAL
    if cfg.budget_frac >= 1.0:
        # A full budget evicts nothing, whatever the coverage needs.
        alloc_v = np.full((L, H), n_vis, dtype=np.int64)
        alloc_t = np.full((L, H), n_txt, dtype=np.int64)
    elif proportional:
        alloc_v = np.zeros((L, H), dtype=np.int64)
        alloc_t = np.zeros((L, H), dtype=np.int64)
        mass_v, mass_t = tables.pool_mass(cfg.proxy.proxy_count)
    else:
        alloc_v, alloc_t = need_v, need_t
    layer_budget = np.zeros(L, dtype=np.float64)
    deviation = np.zeros(L, dtype=np.float64)

    budget = float(budget0)
    for l in range(L):
        layer_budget[l] = budget
        if proportional:
            total = min(round_half_up(budget), n)
            av, at = _split_by_preference(mass_v[l], mass_t[l], n_vis, n_txt, total)
            over_v = av > n_vis
            over_t = ~over_v & (at > n_txt)
            for hd in np.flatnonzero(over_v | over_t):
                if over_v[hd]:
                    warnings.append(
                        f"layer {l} head {hd}: visual allocation exceeded "
                        f"{n_vis} visual tokens, spilled {av[hd] - n_vis} to text"
                    )
                else:
                    warnings.append(
                        f"layer {l} head {hd}: text allocation exceeded "
                        f"{n_txt} text tokens, spilled {at[hd] - n_txt} to visual"
                    )
            alloc_v[l] = np.where(
                over_v, n_vis, np.where(over_t, np.minimum(av + at - n_txt, n_vis), av)
            )
            alloc_t[l] = np.where(
                over_t, n_txt, np.where(over_v, np.minimum(at + av - n_vis, n_txt), at)
            )
        deviation[l] = layer_budget_deviation(need_v[l], need_t[l], budget)
        if l + 1 < L:
            raw = update_layer_budget(
                budget,
                deviation[l],
                l,
                L,
                H,
                head_normalize=cfg.head_normalize_compensation,
            )
            if raw < floor:
                warnings.append(
                    f"layer {l + 1}: budget {raw:.3f} clamped up to floor {floor:.3f}"
                )
                raw = floor
            budget = raw

    return BudgetPlan(
        mode=cfg.mode,
        budget_frac=cfg.budget_frac,
        prompt_len=n,
        layer_budget=layer_budget,
        deviation=deviation,
        alloc_visual=np.maximum(alloc_v, min(cfg.min_keep_per_modality, n_vis)),
        alloc_text=np.maximum(alloc_t, min(cfg.min_keep_per_modality, n_txt)),
        need_visual=need_v,
        need_text=need_t,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# masks


def build_masks(
    trace: AttentionTrace,
    plan: BudgetPlan,
    cfg: PolicyConfig,
    *,
    tables: TraceTables | None = None,
) -> EvictionMask:
    """Materialize the plan into keep-vectors.

    Per (layer, head) and per modality the kept set is the top tokens by
    importance, sized by the plan's allocation: a prefix of that modality's
    ranking. Pinned proxy tokens are kept first and charged against the text
    allocation.
    """
    h = trace.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    if plan.prompt_len != n or plan.alloc_visual.shape != (L, H):
        raise ValidationError(
            f"plan shape {plan.alloc_visual.shape}/{plan.prompt_len} does not "
            f"match trace ({L}, {H})/{n}"
        )
    if tables is None:
        tables = TraceTables(trace)
    vis = h.modality_labels
    n_vis = int(vis.sum())
    n_txt = n - n_vis
    p_eff = cfg.proxy.effective(n) if cfg.pin_proxy_tokens else 0
    quota_v = plan.alloc_visual
    quota_t = plan.alloc_text
    # An allocation covering every token evicts nothing, and gets no
    # proxy-pinning arithmetic.
    full = (quota_v >= n_vis) & (quota_t >= n_txt)

    warnings: list[str] = []
    if p_eff:
        for l, hd in np.argwhere(~full & (quota_t < p_eff)):
            warnings.append(
                f"layer {l} head {hd}: {p_eff} pinned proxy tokens "
                f"exceed text allocation {quota_t[l, hd]}"
            )
        quota_t = np.maximum(quota_t - p_eff, 0)
    ranks = tables.modality_ranks(cfg.proxy.proxy_count, p_eff)
    keep = ranks < np.where(vis, quota_v[..., None], quota_t[..., None])
    keep[:, :, n - p_eff:] = True
    keep[full] = True
    return EvictionMask(policy=cfg.name, keep=keep, warnings=warnings)


# ---------------------------------------------------------------------------
# serialization (same canonical-text conventions as the trace container)


def _dump_canonical(obj: dict) -> bytes:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True).encode("ascii") + b"\n"


def plan_to_obj(plan: BudgetPlan) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "budget_plan",
        "mode": plan.mode.value,
        "budget_frac": plan.budget_frac,
        "prompt_len": plan.prompt_len,
        "layer_budget": plan.layer_budget.tolist(),
        "deviation": plan.deviation.tolist(),
        "alloc_visual": plan.alloc_visual.tolist(),
        "alloc_text": plan.alloc_text.tolist(),
        "need_visual": plan.need_visual.tolist(),
        "need_text": plan.need_text.tolist(),
        "warnings": list(plan.warnings),
    }


def save_plan(plan: BudgetPlan, path: str | os.PathLike) -> None:
    write_atomic(path, _dump_canonical(plan_to_obj(plan)))


def load_plan(path: str | os.PathLike) -> BudgetPlan:
    with open(path, "rb") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not a valid plan file: {exc}") from None
    if not isinstance(obj, dict) or obj.get("kind") != "budget_plan":
        raise FormatError("not a budget_plan document")
    if obj.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {obj.get('format_version')!r}")
    try:
        return BudgetPlan(
            mode=PolicyMode(obj["mode"]),
            budget_frac=float(obj["budget_frac"]),
            prompt_len=int(obj["prompt_len"]),
            layer_budget=np.asarray(obj["layer_budget"], dtype=np.float64),
            deviation=np.asarray(obj["deviation"], dtype=np.float64),
            alloc_visual=np.asarray(obj["alloc_visual"], dtype=np.int64),
            alloc_text=np.asarray(obj["alloc_text"], dtype=np.int64),
            need_visual=np.asarray(obj["need_visual"], dtype=np.int64),
            need_text=np.asarray(obj["need_text"], dtype=np.int64),
            warnings=[str(w) for w in obj.get("warnings", [])],
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad plan field: {exc}") from None


def mask_to_obj(mask: EvictionMask) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "eviction_mask",
        "policy": mask.policy,
        "keep": mask.keep.astype(np.uint8).tolist(),
        "warnings": list(mask.warnings),
    }


def save_mask(mask: EvictionMask, path: str | os.PathLike) -> None:
    write_atomic(path, _dump_canonical(mask_to_obj(mask)))


def load_mask(path: str | os.PathLike) -> EvictionMask:
    with open(path, "rb") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not a valid mask file: {exc}") from None
    if not isinstance(obj, dict) or obj.get("kind") != "eviction_mask":
        raise FormatError("not an eviction_mask document")
    if obj.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {obj.get('format_version')!r}")
    try:
        return EvictionMask(
            policy=str(obj["policy"]),
            keep=np.asarray(obj["keep"], dtype=bool),
            warnings=[str(w) for w in obj.get("warnings", [])],
        )
    except KeyError as exc:
        raise FormatError(f"bad mask field: {exc}") from None
