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
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .allocation import round_half_up
from .errors import ParameterError, ValidationError
from .files import canonical_json, write_atomic
from .importance import ProxyConfig, proxy_importance_matrix
from .trace import FORMAT_VERSION, AttentionTrace, load_trace


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

    def pinned(self, prompt_len: int) -> int:
        """Proxy tokens this policy pins on a prompt of `prompt_len` tokens."""
        return self.proxy.effective(prompt_len) if self.pin_proxy_tokens else 0


# ---------------------------------------------------------------------------
# warnings

# Each warning code and its text: the planner's initial-budget clamp, its
# spills over a pool that is too small, its layer-budget floor clamp, and the
# mask's pinned proxy tokens beyond a head's text allocation. A
# `budget_floor_clamped` occurrence's layer is the one whose budget update
# fell below the floor; its text names the layer the budget enters.
_WARNING_TEXT = {
    "initial_budget_clamped": "initial budget {value} clamped up to {limit}",
    "visual_spill": "layer {layer} head {head}: visual allocation exceeded {limit} visual "
                    "tokens, spilled {value} to text",
    "text_spill": "layer {layer} head {head}: text allocation exceeded {limit} text "
                  "tokens, spilled {value} to visual",
    "budget_floor_clamped": "layer {next_layer}: budget {value:.3f} clamped up to floor "
                            "{limit:.3f}",
    "pinned_over_text": "layer {layer} head {head}: {limit} pinned proxy tokens exceed "
                        "text allocation {value}",
}
WARNING_CODES = tuple(_WARNING_TEXT)


@dataclass
class CodedWarning:
    """Every occurrence of one warning code in a plan or a mask, as data.

    `layer`, `head` and `value` hold one entry per occurrence, in (layer,
    head) order; `limit` is the number every occurrence's text shares (the
    pool size, the floor, the pinned count). An occurrence with no layer or
    head has layer -1 or head 0.
    """

    code: str
    limit: int | float
    layer: np.ndarray
    head: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        self.layer = np.asarray(self.layer, dtype=np.int64)
        self.head = np.asarray(self.head, dtype=np.int64)
        self.value = np.asarray(self.value)

    def __len__(self) -> int:
        return len(self.layer)

    def lines(self, stop: int | None = None) -> list[str]:
        """The text of the first `stop` occurrences (None: of all)."""
        text = _WARNING_TEXT[self.code]
        return [text.format(layer=l, next_layer=l + 1, head=h, value=v, limit=self.limit)
                for l, h, v in zip(self.layer[:stop].tolist(), self.head[:stop].tolist(),
                                   self.value[:stop].tolist())]

    def order(self) -> np.ndarray:
        """Each occurrence's place among a plan's warnings, (3, count): by
        layer, a layer's spills before the floor clamp of the budget it
        hands on, then by head."""
        tie = int(self.code == "budget_floor_clamped")
        return np.stack([self.layer, np.full(len(self), tie), self.head])


class Warnings(Sequence):
    """The warnings of a plan or a mask: its `CodedWarning`s, read as a
    sequence of text lines.

    A line is formatted only when it is read, so a plan that is summarized
    (`summary`) and never written formats one line per code, however many
    heads warn.
    """

    __slots__ = ("coded",)

    def __init__(self, coded=()):
        self.coded = tuple(c for c in coded if len(c))

    def __len__(self) -> int:
        return sum(len(c) for c in self.coded)

    def _lines(self) -> list[str]:
        if not self.coded:
            return []
        keys = np.concatenate([c.order() for c in self.coded], axis=1)
        lines = [line for c in self.coded for line in c.lines()]
        return [lines[k] for k in np.lexsort(keys[::-1]).tolist()]

    def __getitem__(self, index):
        return self._lines()[index]

    def __iter__(self):
        return iter(self._lines())

    def __eq__(self, other) -> bool:
        if isinstance(other, (Warnings, list, tuple)):
            return self._lines() == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Warnings({self._lines()!r})"

    def summary(self) -> list[str]:
        """One entry per code, `<code> x<count> (first: <first line>)`, in the
        order the codes first occur among the lines."""
        coded = sorted(self.coded, key=lambda c: tuple(c.order()[:, 0].tolist()))
        return [f"{c.code} x{len(c)} (first: {c.lines(1)[0]})" for c in coded]


@dataclass
class BudgetPlan:
    """Planner output: budgets, deviations, and integer allocations.

    layer_budget[l] is the per-head budget entering layer l (real valued);
    deviation[l] sums, over heads, how far that layer's coverage needs sit
    above (+) or below (-) the budget. The last entry is the residual left
    after the final layer. Allocations are the retained token counts per
    (layer, head, modality). warnings are the planner's `Warnings`: its
    initial-budget clamp, spills and floor clamps.
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
    warnings: Sequence[str] = field(default_factory=Warnings)

    @property
    def final_residual(self) -> float:
        return float(self.deviation[-1])

    def total_allocated(self) -> int:
        return int(self.alloc_visual.sum() + self.alloc_text.sum())


@dataclass
class EvictionMask:
    """Per-(layer, head) boolean keep-vectors over prompt positions, and
    the mask's `Warnings` (pinned proxy tokens beyond a text allocation)."""

    policy: str
    keep: np.ndarray
    warnings: Sequence[str] = field(default_factory=Warnings)

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

    Ranks are int32, half the bytes of int64 for every mask comparison; a
    prompt of 2**31 tokens is far beyond any trace that fits in memory.
    """
    n = scores.shape[-1]
    ranks = np.full(scores.shape, n, dtype=np.int32)
    for idx in pools:
        if idx.size == 0:
            continue
        # A stable ascending sort of the negated, reversed pool orders by
        # score descending with the later position first among equals.
        order = idx.size - 1 - np.argsort(-scores[..., idx[::-1]], axis=-1, kind="stable")
        sub = np.empty(order.shape, dtype=np.int32)
        np.put_along_axis(sub, order, np.arange(idx.size, dtype=np.int32), axis=-1)
        ranks[..., idx] = sub
    return ranks


@dataclass(frozen=True)
class BudgetPath:
    """The layer-budget recurrence of one planner configuration.

    layer_budget[l] is the per-head budget entering layer l and deviation[l]
    that layer's summed need above it, as in `BudgetPlan`. clamps holds the
    `budget_floor_clamped` warnings: each layer l whose update fell below the
    floor, and the value it fell to.
    """

    layer_budget: np.ndarray
    deviation: np.ndarray
    clamps: CodedWarning


class TraceTables:
    """The tables every policy evaluated on one trace shares.

    A grid of cells needs each table once, because none depends on the cell
    beyond the knobs in its key. It holds:

    * `importance`: column sums over the last proxy or observation rows,
      (L, H, n) float64, per row count;
    * `needs`: coverage counts (visual, text), each (L, H) int64, per row
      count and threshold; `fill_needs` builds a grid's from one sort per
      row count;
    * `pool_mass`: importance mass (visual, text), each (L, H) float64, per
      row count;
    * `modality_ranks` and `token_ranks`: int32 ranks within the modality
      pools or over all positions, (L, H, n), per row count (and pinned
      tail);
    * `budget_path`: the layer-budget recurrence (`BudgetPath`), per row
      count, threshold, initial budget, head normalization and floor, so the
      adaptive and proportional cells of one (theta, budget) share it;
    * `replayed`: per keep-set key (`keep_key`), what `simulate` measured of
      the keep-set: its kept counts, (L, H) int32, its mask's warning
      summary and its per-step retained masses, so a grid builds and replays
      each distinct keep-set once;
    * `settled`: per spec that `simulate.settle` evaluated, its outcome, for
      `compare` and `simulate` to report once the decode steps are gone.

    No table holds a decode step: `simulate.replay` reads the steps one at a
    time, from the trace or from the loader.

    Each table lives as long as this object: make one per trace, pass it
    first to `compare`, `simulate`, `plan_budgets`, `build_masks`,
    `baseline_mask` or `replay`, and drop it to free them.
    `TraceTables(trace)` keeps its trace and builds each table on first use;
    the trace must not change while its tables are in use.
    `TraceTables.load(path, specs, settle)` builds what `specs` read from the
    trace file, evaluates them while the file streams, and keeps no trace.
    """

    def __init__(self, trace: AttentionTrace):
        self.trace: AttentionTrace | None = trace
        self.header = trace.header
        self.num_steps = trace.header.num_decode_steps
        self._tables: dict = {}
        self.replayed: dict = {}
        self.settled: dict = {}

    @classmethod
    def of(cls, source: TraceTables | AttentionTrace) -> TraceTables:
        """`source` if it is tables, else new tables of the trace `source`."""
        return source if isinstance(source, cls) else cls(source)

    @classmethod
    def load(cls, path: str | os.PathLike, specs, settle=None) -> TraceTables:
        """The tables of the trace file at `path` for the policies in
        `specs`, holding no trace.

        The file is read once. It is loaded with the last prefill rows the
        specs read (the largest `spec.prefill_rows`, at least one). Once they
        are checked, `importance` is built at each of the specs' row counts
        and the trace is dropped, which frees its rows before the first
        decode step is read. Then `settle(tables, specs, steps)`, unless
        None, is called with an iterator over the checked decode steps:
        `simulate.settle` plans, masks and replays every spec on them. Steps
        it does not take are checked and dropped. Importance at any other row
        count raises ParameterError.
        """
        counts = [spec.prefill_rows for spec in specs]
        loaded = []

        def on_prefill(trace):
            tables = cls(trace)
            for count in counts:
                if count:
                    tables.importance(count)
            tables.trace = None
            loaded.append(tables)

        def on_decode(steps):
            settle(loaded[0], specs, steps)

        load_trace(path, rows=max([1, *counts]), on_prefill=on_prefill,
                   on_decode=None if settle is None else on_decode)
        return loaded[0]

    def release_prefill(self) -> None:
        """Drop every table built from prefill rows: importance and all that
        is built from it. `replayed` and `settled` stay. A table asked for
        again is rebuilt from the trace, or, with no trace, refused."""
        self._tables.clear()

    def _get(self, key, build):
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def _rows(self, count: int) -> int:
        return min(count, self.header.prompt_len)

    def importance(self, count: int) -> np.ndarray:
        """Column sums over the last `count` prefill rows, (L, H, n) float64.

        Proxy importance and the baselines' window scores are this one table.
        """
        rows = self._rows(count)
        key = ("importance", rows)
        if key not in self._tables and self.trace is None:
            held = sorted(k[1] for k in self._tables if k[0] == "importance")
            raise ParameterError(
                f"importance over {rows} prefill rows requested; these tables hold "
                f"importance over {held} rows only"
            )
        return self._get(key, lambda: proxy_importance_matrix(self.trace, ProxyConfig(rows)))

    def needs(self, count: int, threshold: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-head coverage counts (visual, text), each (L, H) int64."""
        rows = self._rows(count)
        key = ("needs", rows, threshold)
        if key not in self._tables:
            self._build_needs(rows, [threshold])
        return self._tables[key]

    def fill_needs(self, specs) -> None:
        """Build the `needs` that `plan_budgets` will ask for on behalf of
        each `PolicyConfig` in `specs` (other specs are skipped), from one
        sort of each pool per row count: a sweep over thresholds sorts once."""
        wanted: dict[int, set[float]] = {}
        for spec in specs:
            if isinstance(spec, PolicyConfig):
                rows = self._rows(spec.proxy.proxy_count)
                wanted.setdefault(rows, set()).add(spec.coverage_threshold)
        for rows, thresholds in wanted.items():
            self._build_needs(rows, thresholds)

    def _build_needs(self, rows: int, thresholds) -> None:
        """Build `needs` at `rows` for every threshold not built yet, from
        one `coverage_counts` call."""
        todo = sorted({float(t) for t in thresholds if ("needs", rows, t) not in self._tables})
        if todo:
            vis = self.header.modality_labels
            need_v, need_t = coverage_counts(self.importance(rows), vis, np.array(todo))
            for theta, v, t in zip(todo, need_v, need_t):
                self._tables[("needs", rows, theta)] = (v, t)

    def pool_mass(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-head importance mass (visual, text), each (L, H) float64."""
        rows = self._rows(count)
        vis = self.header.modality_labels

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
        vis = self.header.modality_labels
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
        n = self.header.prompt_len
        return self._get(
            ("token_ranks", rows),
            lambda: pool_ranks(self.importance(rows), (np.arange(n),)),
        )

    def budget_path(self, count: int, threshold: float, budget0: int,
                    head_normalize: bool, floor: float) -> BudgetPath:
        """The layer budgets from `budget0` on, rolled forward by each
        layer's coverage needs and clamped up to `floor`.

        It depends on the needs only, never on the mode, so every planner
        with the same key walks one path.
        """
        rows = self._rows(count)

        def build():
            need_v, need_t = self.needs(rows, threshold)
            L, H = need_v.shape
            layer_budget = np.zeros(L, dtype=np.float64)
            deviation = np.zeros(L, dtype=np.float64)
            clamped, raws = [], []
            budget = float(budget0)
            for l in range(L):
                layer_budget[l] = budget
                # Positive: the layer's heads need more than budgeted.
                deviation[l] = float(np.sum(need_v[l] + need_t[l] - budget))
                if l + 1 < L:
                    # Amortized over the remaining layers and, with
                    # head_normalize, over heads too (per-head units), which
                    # makes total retention telescope back to the budget.
                    remaining = L - l - 1
                    raw = budget - deviation[l] / (H * remaining if head_normalize else remaining)
                    if raw < floor:
                        clamped.append(l)
                        raws.append(raw)
                        raw = floor
                    budget = raw
            clamps = CodedWarning("budget_floor_clamped", floor, clamped, [0] * len(clamped),
                                  np.array(raws, dtype=np.float64))
            return BudgetPath(layer_budget, deviation, clamps)

        return self._get(("budget_path", rows, threshold, budget0, head_normalize, floor), build)

    def keep_key(self, plan: BudgetPlan, cfg: PolicyConfig) -> tuple:
        """The key in `replayed` of the keep-set that
        `build_masks(self, plan, cfg)` makes.

        It is exactly what `build_masks` reads of `plan` and `cfg`: the
        proxy row count, the pinned count, and both (L, H) allocations. A
        planner allocates at most the prompt length, which the int32 ranks
        already bound, so the key holds the allocations as int32 exactly.
        Cells that repeat an allocation (adaptive at every budget below 1,
        say) share one entry.
        """
        return (self._rows(cfg.proxy.proxy_count), cfg.pinned(self.header.prompt_len),
                *(a.astype(np.int32).tobytes() for a in (plan.alloc_visual, plan.alloc_text)))


# ---------------------------------------------------------------------------
# planning primitives


def coverage_counts(scores: np.ndarray, visual: np.ndarray, threshold):
    """Minimum token counts covering `threshold` of each modality's mass.

    Tokens are taken in descending importance order; the count is the
    smallest prefix whose mass reaches threshold * modality_total. A modality
    with no mass needs 0 tokens. Scale-invariant: rescaling all scores leaves
    the counts unchanged.

    `scores` has shape (..., n); the counts are taken along the last axis.
    `threshold` is a float, or a 1-d array of them: each pool is sorted once
    for all of them, and every count is the one its threshold alone gives.

    Returns:
        (visual_count, text_count): for a float threshold, two ints for a 1-d
        input, else two int64 arrays of shape scores.shape[:-1]; for an array
        of thresholds, two int64 arrays of shape
        thresholds.shape + scores.shape[:-1].
    """
    thresholds = np.asarray(threshold, dtype=np.float64)
    for theta in thresholds if thresholds.ndim else [threshold]:
        if not 0.0 < theta <= 1.0:
            raise ParameterError(f"threshold must be in (0, 1], got {theta}")
    scores = np.asarray(scores)
    visual = np.asarray(visual, dtype=bool)
    out = []
    for mask in (visual, ~visual):
        vals = np.sort(scores[..., mask], axis=-1)[..., ::-1]
        cum = np.cumsum(vals, axis=-1)
        if cum.shape[-1] == 0:
            out.append(np.zeros(thresholds.shape + cum.shape[:-1], dtype=np.int64))
            continue
        total = cum[..., -1:]
        # On a non-decreasing cumsum, the count of entries below the target
        # is the left insertion point of the target.
        count = np.array([(cum < theta * total).sum(axis=-1, dtype=np.int64) + 1
                          for theta in thresholds.reshape(-1)], dtype=np.int64)
        count = count.reshape(thresholds.shape + cum.shape[:-1])
        out.append(np.where(total[..., 0] > 0, count, 0))
    if scores.ndim == 1 and thresholds.ndim == 0:
        return int(out[0]), int(out[1])
    return out[0], out[1]


def _split_by_preference(
    wv: np.ndarray, wt: np.ndarray, n_vis: int, n_txt: int, total
) -> tuple[np.ndarray, np.ndarray]:
    """Per head, the largest-remainder split of `total` in proportion to
    [wv, wt], falling back to the token counts where a head has no mass.
    `total` is an int or an int64 array that broadcasts against the weights
    (one total per layer, say).

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


def _proportional_split(
    pool_mass: tuple[np.ndarray, np.ndarray], layer_budget: np.ndarray, n_vis: int, n_txt: int
) -> tuple[np.ndarray, np.ndarray, CodedWarning, CodedWarning]:
    """Every layer's budget split by modality preference, with what spills
    over a pool that is too small moved to the other: (alloc_visual,
    alloc_text, visual spills, text spills)."""
    n = n_vis + n_txt
    mass_v, mass_t = pool_mass
    totals = np.array([min(round_half_up(b), n) for b in layer_budget], dtype=np.int64)
    av, at = _split_by_preference(mass_v, mass_t, n_vis, n_txt, totals[:, None])
    over_v = av > n_vis
    over_t = ~over_v & (at > n_txt)
    spills = (CodedWarning("visual_spill", n_vis, *np.nonzero(over_v), av[over_v] - n_vis),
              CodedWarning("text_spill", n_txt, *np.nonzero(over_t), at[over_t] - n_txt))
    alloc_v = np.where(over_v, n_vis, np.where(over_t, np.minimum(av + at - n_txt, n_vis), av))
    alloc_t = np.where(over_t, n_txt, np.where(over_v, np.minimum(at + av - n_vis, n_txt), at))
    return alloc_v, alloc_t, *spills


# ---------------------------------------------------------------------------
# planner


def plan_budgets(tables: TraceTables | AttentionTrace, cfg: PolicyConfig) -> BudgetPlan:
    """Plan per-(layer, head, modality) retention for a whole trace.

    `tables` shares importance and coverage counts with other policies run
    on the same trace; given the trace itself, they are computed for this
    call.
    """
    tables = TraceTables.of(tables)
    h = tables.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    vis = h.modality_labels
    n_vis = int(vis.sum())
    n_txt = n - n_vis
    warnings = []

    budget0 = round_half_up(cfg.budget_frac * n)
    if budget0 < 1:
        warnings.append(CodedWarning("initial_budget_clamped", 1, [-1], [0], [budget0]))
        budget0 = 1
    floor = 2.0 * cfg.min_keep_per_modality

    # Copies: the plan owns its arrays, the tables serve every plan.
    need_v, need_t = (
        a.copy() for a in tables.needs(cfg.proxy.proxy_count, cfg.coverage_threshold)
    )
    path = tables.budget_path(cfg.proxy.proxy_count, cfg.coverage_threshold, budget0,
                              cfg.head_normalize_compensation, floor)
    if cfg.budget_frac >= 1.0:
        # A full budget evicts nothing, whatever the coverage needs.
        alloc_v = np.full((L, H), n_vis, dtype=np.int64)
        alloc_t = np.full((L, H), n_txt, dtype=np.int64)
    elif cfg.mode is PolicyMode.PROPORTIONAL:
        alloc_v, alloc_t, *spills = _proportional_split(
            tables.pool_mass(cfg.proxy.proxy_count), path.layer_budget, n_vis, n_txt
        )
        warnings += spills
    else:
        alloc_v, alloc_t = need_v, need_t
    warnings.append(path.clamps)

    return BudgetPlan(
        mode=cfg.mode,
        budget_frac=cfg.budget_frac,
        prompt_len=n,
        layer_budget=path.layer_budget.copy(),
        deviation=path.deviation.copy(),
        alloc_visual=np.maximum(alloc_v, min(cfg.min_keep_per_modality, n_vis)),
        alloc_text=np.maximum(alloc_t, min(cfg.min_keep_per_modality, n_txt)),
        need_visual=need_v,
        need_text=need_t,
        warnings=Warnings(warnings),
    )


# ---------------------------------------------------------------------------
# masks


def build_masks(
    tables: TraceTables | AttentionTrace, plan: BudgetPlan, cfg: PolicyConfig
) -> EvictionMask:
    """Materialize the plan into keep-vectors.

    Per (layer, head) and per modality the kept set is the top tokens by
    importance, sized by the plan's allocation: a prefix of that modality's
    ranking from `tables` (or from tables built for this call, given the
    trace itself). Pinned proxy tokens are kept first and charged against
    the text allocation.
    """
    tables = TraceTables.of(tables)
    h = tables.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    if plan.prompt_len != n or plan.alloc_visual.shape != (L, H):
        raise ValidationError(
            f"plan shape {plan.alloc_visual.shape}/{plan.prompt_len} does not "
            f"match trace ({L}, {H})/{n}"
        )
    vis = h.modality_labels
    n_vis = int(vis.sum())
    p_eff = cfg.pinned(n)
    # Heads whose allocation covers every token evict nothing and get no
    # pinning arithmetic; each other head whose text allocation is below the
    # pinned count warns.
    full = (plan.alloc_visual >= n_vis) & (plan.alloc_text >= n - n_vis)
    short = ~full & (plan.alloc_text < p_eff)
    pinned = CodedWarning("pinned_over_text", p_eff, *np.nonzero(short), plan.alloc_text[short])
    ranks = tables.modality_ranks(cfg.proxy.proxy_count, p_eff)
    # Compare in the ranks' int32. Only pinned positions rank n, and they
    # are kept below, so a quota above n keeps what a quota of n keeps. Two
    # comparisons masked by modality are cheaper than a broadcast np.where.
    quota_v, quota_t = (
        np.minimum(q, n).astype(np.int32)
        for q in (plan.alloc_visual, np.maximum(plan.alloc_text - p_eff, 0))
    )
    keep = ranks < quota_v[..., None]
    keep &= vis
    keep |= (ranks < quota_t[..., None]) & ~vis
    keep[:, :, n - p_eff:] = True
    keep[full] = True
    return EvictionMask(policy=cfg.name, keep=keep, warnings=Warnings([pinned]))


# ---------------------------------------------------------------------------
# serialization (same canonical-text conventions as the trace container)


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
    write_atomic(path, canonical_json(plan_to_obj(plan)) + b"\n")


def mask_to_obj(mask: EvictionMask) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "eviction_mask",
        "policy": mask.policy,
        "keep": mask.keep.astype(np.uint8).tolist(),
        "warnings": list(mask.warnings),
    }


def save_mask(mask: EvictionMask, path: str | os.PathLike) -> None:
    write_atomic(path, canonical_json(mask_to_obj(mask)) + b"\n")
