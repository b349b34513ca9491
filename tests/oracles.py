"""Brute-force reference implementations used as test oracles.

Everything here trades speed for obviousness: plain Python loops, explicit
prefix scans, exhaustive subset search, and exact rational arithmetic where
the property under test is an algebraic identity. The brute-force oracles
share no code with the library. The per-head reference path at the end
reuses the library's rounding, and the scalar budget recurrence and
largest-remainder split defined here, which have tests of their own, so that
it pins down exactly the arithmetic the vectorised kernel must reproduce.
"""

import base64
import binascii
import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from conftest import dense
from modkv import (
    AttentionTrace,
    BaselineKind,
    BudgetPlan,
    EvictionMask,
    FormatError,
    Modality,
    ParameterError,
    PolicyConfig,
    PolicyMode,
    SimReport,
    ValidationError,
    baseline_mask,
    estimate_memory,
    proxy_importance_matrix,
    round_half_up,
)
from modkv.synth import (
    DECODE_HISTORY_DECAY,
    DECODE_HISTORY_WEIGHT,
    QUESTION_ANCHOR_WEIGHT,
    QUESTION_ANCHOR_WIDTH,
)
from modkv.trace import (
    BINARY_MAGIC,
    FORMAT_VERSION,
    ROW_SUM_TOL,
    TEXT_FORMAT_VERSION,
    TraceHeader,
)


def brute_importance(trace, layer, head, proxy_count):
    """Column sums over the last proxy_count prefill rows, one entry at a time."""
    n = trace.header.prompt_len
    p = min(proxy_count, n)
    rows = trace.head_rows(layer, head, n - p)
    psi = [0.0] * n
    for i in range(p):
        for j in range(n):
            psi[j] += float(rows[i, j])
    return psi


def brute_preference(psi, visual):
    w_v = 0.0
    w_t = 0.0
    for value, is_visual in zip(psi, visual):
        if is_visual:
            w_v += float(value)
        else:
            w_t += float(value)
    return w_v, w_t


def brute_coverage(values, threshold):
    """Smallest k whose top-k prefix reaches threshold * total, by scanning
    every prefix of the descending ordering."""
    ordered = sorted((float(v) for v in values), reverse=True)
    prefix = []
    acc = 0.0
    for v in ordered:
        acc += v
        prefix.append(acc)
    if not prefix or prefix[-1] <= 0:
        return 0
    target = threshold * prefix[-1]
    for k, mass in enumerate(prefix, start=1):
        if mass >= target:
            return k
    return len(ordered)


def exact_budget_chain(needs_per_layer, first_budget, num_heads):
    """Replay the layer-budget update chain in exact rationals.

    needs_per_layer[l] lists each head's total need at layer l. Returns
    (budgets, deviations) as Fractions, where deviations[l] is the summed
    per-head overshoot of need above budget and each next budget subtracts
    deviation / (heads * remaining layers).
    """
    L = len(needs_per_layer)
    phi = Fraction(first_budget)
    budgets, deviations = [], []
    for l in range(L):
        budgets.append(phi)
        dev = sum(Fraction(x) for x in needs_per_layer[l]) - num_heads * phi
        deviations.append(dev)
        if l + 1 < L:
            phi = phi - dev / (num_heads * (L - l - 1))
    return budgets, deviations


def best_subset_mass(values, size):
    """Maximum sum over all subsets of exactly `size` values (exhaustive)."""
    vals = [float(v) for v in values]
    if size >= len(vals):
        return sum(vals)
    return max(sum(c) for c in combinations(vals, size))


def brute_retained_mass(trace, keep):
    """Per-step retained attention mass, nested loops only."""
    h = trace.header
    out = []
    for vec in trace.decode:
        acc = []
        for l in range(h.num_layers):
            for hd in range(h.num_heads):
                row = [float(x) for x in vec[l, hd]]
                total = sum(row)
                if total <= 0:
                    acc.append(1.0)
                    continue
                kept = sum(
                    x
                    for j, x in enumerate(row)
                    if j >= h.prompt_len or keep[l, hd, j]
                )
                acc.append(min(max(kept / total, 0.0), 1.0))
        out.append(sum(acc) / len(acc))
    return out


def brute_window_scores(trace, layer, head, window):
    """Column sums over the trailing `window` prefill rows."""
    n = trace.header.prompt_len
    w = min(window, n)
    rows = trace.head_rows(layer, head, n - w)
    out = [0.0] * n
    for i in range(w):
        for j in range(n):
            out[j] += float(rows[i, j])
    return out


def exact_topk_share(values, frac):
    """Retained share of the top ceil(frac * n) values, in exact rationals.

    The inputs are float32-precise scores, which are exact binary rationals,
    so the Fraction arithmetic has no rounding anywhere.
    """
    vals = sorted((Fraction(float(v)) for v in values), reverse=True)
    k = math.ceil(frac * len(vals))
    return sum(vals[:k]) / sum(vals)


# ---------------------------------------------------------------------------
# Per-head reference path: the planner, mask and baseline loops as they were
# before the library vectorised them over (layer, head). The vectorised code
# must match these exactly: same arrays, same warnings in the same order.


def largest_remainder_split(weights, total):
    """Split `total` units across parts proportionally to `weights`.

    Each part first gets the floor of its exact share; leftover units go to
    the parts with the largest fractional remainders. Remainder ties go to
    the larger weight and then the lower index, so the result is
    deterministic. Returns an integer array summing to `total` exactly.
    Weights must be non-negative with a positive sum.
    """
    w = np.asarray(weights, dtype=np.float64)
    if total < 0:
        raise ParameterError(f"cannot split a negative total {total}")
    if w.ndim != 1 or w.size == 0:
        raise ParameterError("weights must be a non-empty 1-d sequence")
    if np.any(w < 0) or w.sum() <= 0:
        raise ParameterError("weights must be non-negative and sum to > 0")

    # Normalize before scaling: shares are <= 1, so a subnormal weight sum
    # cannot overflow the quotient.
    exact = (w / w.sum()) * total
    base = np.floor(exact).astype(np.int64)
    leftover = int(total - base.sum())
    if leftover > 0:
        order = np.lexsort((np.arange(w.size), -w, -(exact - base)))
        base[order[:leftover]] += 1
    return base


def preference_budget_split(visual_weight, text_weight, layer_budget, num_visual, num_text):
    """Split a head's layer budget proportionally to modality preference.

    Real-valued on purpose; integer rounding happens only where allocations
    are materialized. With no importance mass at all the split falls back to
    modality token counts.
    """
    if visual_weight < 0 or text_weight < 0:
        raise ParameterError("preference weights must be non-negative")
    total = visual_weight + text_weight
    if total <= 0:
        total_count = num_visual + num_text
        if total_count <= 0:
            raise ParameterError("cannot split a budget with no tokens")
        return (
            layer_budget * num_visual / total_count,
            layer_budget * num_text / total_count,
        )
    return (
        layer_budget * visual_weight / total,
        layer_budget * text_weight / total,
    )


def top_by_importance(scores, candidates, quota):
    """Indices of the `quota` highest-importance candidates; ties go to the
    more recent (larger) position."""
    if quota <= 0 or candidates.size == 0:
        return candidates[:0]
    order = np.lexsort((-candidates, -scores[candidates]))
    return candidates[order[:quota]]


def reference_coverage_counts(scores, visual, threshold):
    """Per-pool sort, sequential cumsum and left insertion point of the target."""
    out = []
    for mask in (visual, ~visual):
        vals = np.sort(scores[mask])[::-1]
        cum = np.cumsum(vals)
        if cum.size == 0 or cum[-1] <= 0:
            out.append(0)
            continue
        out.append(int(np.searchsorted(cum, threshold * cum[-1], side="left")) + 1)
    return out[0], out[1]


def budget_deviation(need_visual, need_text, budget):
    """How far one layer's heads need more than `budget`, summed over heads:
    each head's need minus the budget in float64, added left to right.
    numpy's sum adds fewer than eight terms in that order, so for up to seven
    heads the library's deviation matches this one bit for bit."""
    total = 0.0
    for v, t in zip(need_visual, need_text):
        total += float(int(v) + int(t)) - budget
    return total


def budget_update(budget, deviation, layer, num_layers, num_heads, head_normalize=True):
    """The budget handed on after `layer`: its deviation spread over the
    remaining layers and, with head_normalize, over the heads as well.
    Not clamped; the caller applies its floor."""
    remaining = num_layers - layer - 1
    return budget - deviation / (num_heads * remaining if head_normalize else remaining)


def reference_plan(trace, cfg):
    """The per-(layer, head) planner loop; returns a BudgetPlan."""
    h = trace.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    vis = h.modality_labels
    n_vis = int(vis.sum())
    n_txt = n - n_vis
    min_keep_v = min(cfg.min_keep_per_modality, n_vis)
    min_keep_t = min(cfg.min_keep_per_modality, n_txt)
    warnings = []

    budget0 = round_half_up(cfg.budget_frac * n)
    if budget0 < 1:
        warnings.append(f"initial budget {budget0} clamped up to 1")
        budget0 = 1
    floor = 2.0 * cfg.min_keep_per_modality

    scores = proxy_importance_matrix(trace, cfg.proxy)
    layer_budget = np.zeros(L, dtype=np.float64)
    deviation = np.zeros(L, dtype=np.float64)
    need_v = np.zeros((L, H), dtype=np.int64)
    need_t = np.zeros((L, H), dtype=np.int64)
    alloc_v = np.zeros((L, H), dtype=np.int64)
    alloc_t = np.zeros((L, H), dtype=np.int64)

    budget = float(budget0)
    for l in range(L):
        layer_budget[l] = budget
        for hd in range(H):
            s = scores[l, hd]
            kv, kt = reference_coverage_counts(s, vis, cfg.coverage_threshold)
            need_v[l, hd], need_t[l, hd] = kv, kt
            if cfg.budget_frac >= 1.0:
                av, at = n_vis, n_txt
            elif cfg.mode is PolicyMode.ADAPTIVE:
                av, at = kv, kt
            else:
                total = min(round_half_up(budget), n)
                wv = float(s[vis].sum())
                wt = float(s[~vis].sum())
                if wv + wt > 0:
                    av, at = (int(x) for x in largest_remainder_split([wv, wt], total))
                else:
                    av, at = (int(x) for x in largest_remainder_split([n_vis, n_txt], total))
                if av > n_vis:
                    spill = av - n_vis
                    av, at = n_vis, min(at + spill, n_txt)
                    warnings.append(
                        f"layer {l} head {hd}: visual allocation exceeded "
                        f"{n_vis} visual tokens, spilled {spill} to text"
                    )
                elif at > n_txt:
                    spill = at - n_txt
                    at, av = n_txt, min(av + spill, n_vis)
                    warnings.append(
                        f"layer {l} head {hd}: text allocation exceeded "
                        f"{n_txt} text tokens, spilled {spill} to visual"
                    )
            alloc_v[l, hd] = max(av, min_keep_v)
            alloc_t[l, hd] = max(at, min_keep_t)
        deviation[l] = budget_deviation(need_v[l], need_t[l], budget)
        if l + 1 < L:
            raw = budget_update(
                budget, deviation[l], l, L, H,
                head_normalize=cfg.head_normalize_compensation,
            )
            if raw < floor:
                warnings.append(
                    f"layer {l + 1}: budget {raw:.3f} clamped up to floor {floor:.3f}"
                )
                raw = floor
            budget = raw

    return BudgetPlan(
        mode=cfg.mode, budget_frac=cfg.budget_frac, prompt_len=n,
        layer_budget=layer_budget, deviation=deviation,
        alloc_visual=alloc_v, alloc_text=alloc_t,
        need_visual=need_v, need_text=need_t, warnings=warnings,
    )


def reference_masks(trace, plan, cfg):
    """The per-(layer, head) mask loop; returns an EvictionMask."""
    h = trace.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    vis = h.modality_labels
    n_vis = int(vis.sum())
    n_txt = n - n_vis
    scores = proxy_importance_matrix(trace, cfg.proxy)
    p_eff = cfg.proxy.effective(n) if cfg.pin_proxy_tokens else 0
    pinned = np.arange(n - p_eff, n)
    vis_idx = np.flatnonzero(vis[: n - p_eff] if p_eff else vis)
    txt_idx = np.flatnonzero(~vis[: n - p_eff] if p_eff else ~vis)

    keep = np.zeros((L, H, n), dtype=bool)
    warnings = []
    for l in range(L):
        for hd in range(H):
            quota_v = int(plan.alloc_visual[l, hd])
            quota_t = int(plan.alloc_text[l, hd])
            if quota_v >= n_vis and quota_t >= n_txt:
                keep[l, hd] = True
                continue
            if p_eff:
                if quota_t < p_eff:
                    warnings.append(
                        f"layer {l} head {hd}: {p_eff} pinned proxy tokens "
                        f"exceed text allocation {quota_t}"
                    )
                quota_t = max(quota_t - p_eff, 0)
                quota_v = min(quota_v, vis_idx.size)
            row = keep[l, hd]
            row[pinned] = True
            row[top_by_importance(scores[l, hd], vis_idx, quota_v)] = True
            row[top_by_importance(scores[l, hd], txt_idx, quota_t)] = True
    return EvictionMask(policy=cfg.name, keep=keep, warnings=warnings)


def reference_baseline_mask(trace, cfg):
    """The per-(layer, head) loop of the score-driven baselines (the window
    ones have no loop and are unchanged)."""
    h = trace.header
    L, H, n = h.num_layers, h.num_heads, h.prompt_len
    budget = cfg.kept_per_head(n)
    w = min(cfg.observation_window, n)
    window = np.array([[trace.head_rows(l, hd, n - w) for hd in range(H)] for l in range(L)])
    scores = window.astype(np.float64).sum(axis=2)
    all_idx = np.arange(n)
    vis_idx = np.flatnonzero(h.modality_labels)
    txt_idx = np.flatnonzero(h.text_mask)
    keep = np.zeros((L, H, n), dtype=bool)
    for l in range(L):
        for hd in range(H):
            s = scores[l, hd]
            if cfg.kind is BaselineKind.CUMULATIVE_TOPK:
                keep[l, hd, top_by_importance(s, all_idx, budget)] = True
                continue
            want_text = min(round_half_up(cfg.text_priority_frac * budget), txt_idx.size)
            want_vis = min(budget - want_text, vis_idx.size)
            want_text = min(budget - want_vis, txt_idx.size)
            keep[l, hd, top_by_importance(s, txt_idx, want_text)] = True
            keep[l, hd, top_by_importance(s, vis_idx, want_vis)] = True
    return EvictionMask(policy=cfg.name, keep=keep)


def reference_replay(trace, mask):
    """Replay converting each decode step to float64 on every call."""
    n = trace.header.prompt_len
    keep_f = mask.keep.astype(np.float64)
    full = bool(mask.keep.all())
    out = []
    for vec in trace.decode:
        v = vec.astype(np.float64)
        if full:
            out.append(1.0)
            continue
        numer = np.einsum("lhn,lhn->lh", v[:, :, :n], keep_f) + v[:, :, n:].sum(axis=2)
        denom = v.sum(axis=2)
        ratio = np.divide(numer, denom, out=np.ones_like(numer), where=denom > 0)
        out.append(float(np.mean(np.clip(ratio, 0.0, 1.0))))
    return out


def reference_simulate(trace, spec):
    """plan -> mask -> replay along the per-head reference path."""
    if isinstance(spec, PolicyConfig):
        plan = reference_plan(trace, spec)
        mask = reference_masks(trace, plan, spec)
        warnings = plan.warnings + mask.warnings
    elif spec.kind in (BaselineKind.CUMULATIVE_TOPK, BaselineKind.FIXED_PRIORITY):
        mask = reference_baseline_mask(trace, spec)
        warnings = []
    else:
        mask = baseline_mask(trace, spec)
        warnings = list(mask.warnings)
    per_step = reference_replay(trace, mask)
    kept = mask.kept_counts()
    return SimReport(
        policy=spec.name,
        budget_frac=spec.budget_frac,
        theta=spec.coverage_threshold if isinstance(spec, PolicyConfig) else None,
        per_step_retained_mass=per_step,
        mean_retained_mass=float(np.mean(per_step)) if per_step else 1.0,
        kept_counts=kept,
        memory_bytes_est=estimate_memory(kept),
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Dense reference generator and whole-object writers: the synthetic generator
# and both containers' renderers as they were before the library streamed
# them one (layer, head) block at a time. Generated traces and written files
# must match these exactly.


def reference_rebalance_scales(sum_v, sum_t, bias):
    """Per-pool scale factors that pin one row's visual share to `bias`, as
    plain floats. When one pool is empty all mass goes to the other."""
    if sum_v <= 0.0:
        return 0.0, 1.0 / sum_t
    if sum_t <= 0.0:
        return 1.0 / sum_v, 0.0
    return bias / sum_v, (1.0 - bias) / sum_t


def reference_generate_synthetic(spec):
    """Build the dense (L, H, n, n) prefill cube head by head, with the same
    RNG draws and float32 arithmetic as the library."""
    L, H = spec.num_layers, spec.num_heads
    n, T = spec.prompt_len, spec.num_decode_steps
    rng = np.random.default_rng(spec.seed)

    count_v = round_half_up(spec.modality_mix * n)
    vis = np.zeros(n, dtype=bool)
    vis[rng.permutation(n)[:count_v]] = True
    txt = ~vis
    header = TraceHeader(L, H, n, T, vis)

    tril = np.tril(np.ones((n, n), dtype=np.float32))
    anchor_width = min(QUESTION_ANCHOR_WIDTH, n)
    prefill = np.empty((L, H, n, n), dtype=np.float32)
    decode = [np.empty((L, H, n + s), dtype=np.float32) for s in range(T)]

    for l in range(L):
        for h in range(H):
            bias = spec.head_preference_bias[h]
            u = np.empty(n, dtype=np.float64)
            if count_v:
                u[vis] = (rng.permutation(count_v) + 1.0) ** -spec.skew
            if count_v < n:
                u[txt] = (rng.permutation(n - count_v) + 1.0) ** -spec.skew

            uv = np.where(vis, u, 0.0)
            ut = np.where(txt, u, 0.0)
            cum_v = np.cumsum(uv)
            cum_t = np.cumsum(ut)
            both = (cum_v > 0) & (cum_t > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                scale_v = np.where(both, bias / cum_v, np.where(cum_v > 0, 1.0 / cum_v, 0.0))
                scale_t = np.where(both, (1.0 - bias) / cum_t, np.where(cum_t > 0, 1.0 / cum_t, 0.0))

            m = prefill[l, h]
            np.multiply(scale_v[:, None].astype(np.float32), uv.astype(np.float32), out=m)
            m += scale_t[:, None].astype(np.float32) * ut.astype(np.float32)
            m *= tril

            if T:
                bulk = u.sum()
                w_prompt = u.copy()
                w_prompt[n - anchor_width:] += QUESTION_ANCHOR_WEIGHT * bulk / anchor_width
                sum_v = float(w_prompt[vis].sum())
                sum_t_prompt = float(w_prompt[txt].sum())
                for s in range(T):
                    ages = np.arange(s - 1, -1, -1, dtype=np.float64)
                    hist = DECODE_HISTORY_WEIGHT * bulk * DECODE_HISTORY_DECAY**ages
                    sv, st = reference_rebalance_scales(
                        sum_v, sum_t_prompt + float(hist.sum()), bias
                    )
                    row = decode[s][l, h]
                    row[:n] = np.where(vis, sv * w_prompt, st * w_prompt)
                    row[n:] = st * hist

    return AttentionTrace(header, prefill, decode)


def reference_packed_rows(trace, layer, head, start, stop):
    """Prompt rows start..stop-1 of one head's packed causal triangle, as
    little-endian float32: the lower triangle of the full-width rows from
    `head_rows`, gathered row-major."""
    lower = np.tri(stop - start, trace.header.prompt_len, start, dtype=bool)
    return np.ascontiguousarray(trace.head_rows(layer, head, start, stop)[lower], dtype="<f4")


def reference_trace_to_text_v2(trace):
    """The version 2 text container from one JSON document holding the whole
    trace. Each head's packed causal triangle, as little-endian float32, is
    cut before every (2**18 // n)-th row (at least every row) and each piece
    written as padded base64; each decode step is one base64 string per
    layer."""
    h = trace.header
    n = h.prompt_len
    prefill = dense(trace).prefill
    rows, cols = np.tril_indices(n)
    step = max(1, 2 ** 18 // n)
    cuts = [4 * (i * (i + 1) // 2) for i in range(0, n, step)] + [4 * (n * (n + 1) // 2)]

    def b64(payload):
        return base64.b64encode(payload).decode("ascii")

    def head(l, hd):
        packed = prefill[l, hd][rows, cols].astype("<f4").tobytes()
        return [b64(packed[a:b]) for a, b in zip(cuts, cuts[1:])]

    obj = {
        "format_version": TEXT_FORMAT_VERSION,
        "header": {
            "L": h.num_layers,
            "H": h.num_heads,
            "n": h.prompt_len,
            "T": h.num_decode_steps,
            "modality_labels": h.label_strings(),
        },
        "prefill": [[head(l, hd) for hd in range(h.num_heads)] for l in range(h.num_layers)],
        "decode": [[b64(layer.astype("<f4").tobytes()) for layer in vec] for vec in trace.decode],
    }
    body = json.dumps(obj, separators=(",", ":"), ensure_ascii=True)
    return body.encode("ascii") + b"\n"


def reference_trace_to_binary(trace):
    """The binary container from the whole cube's lower triangle at once."""
    h = trace.header
    out = bytearray(BINARY_MAGIC)
    out += np.array(
        [FORMAT_VERSION, h.num_layers, h.num_heads, h.prompt_len, h.num_decode_steps],
        dtype="<u4",
    ).tobytes()
    out += np.packbits(h.modality_labels, bitorder="little").tobytes()
    rows, cols = np.tril_indices(h.prompt_len)
    out += np.ascontiguousarray(dense(trace).prefill[:, :, rows, cols], dtype="<f4").tobytes()
    for vec in trace.decode:
        out += np.ascontiguousarray(vec, dtype="<f4").tobytes()
    return bytes(out)


def _require(obj, key, where):
    if key not in obj:
        raise FormatError(f"missing field {where}{key}")
    return obj[key]


class ReferencePrefillTail:
    """Checks one head's whole packed causal triangle at once and keeps its
    last rows: the reference for the loaders' checks, which go block by block.

    All scores are checked for a negative or NaN value first, then the head
    is copied whole to float64 and every row summed by one `reduceat`.
    Failures name the first bad (layer, head, row), as
    AttentionTrace.validate does on the dense cube.
    """

    def __init__(self, L, H, n, rows):
        if rows is not None and int(rows) < 1:
            raise ParameterError(f"rows must be >= 1, got {rows}")
        kept = n if rows is None else min(int(rows), n)
        self.first_row = n - kept
        i = np.arange(n, dtype=np.int64)
        self.starts = i * (i + 1) // 2
        self.wide = np.empty(n * (n + 1) // 2, dtype=np.float64)
        self.tail_mask = np.tri(kept, n, self.first_row, dtype=bool)
        self.prefill = np.zeros((L, H, kept, n), dtype=np.float32)

    def add(self, layer, head, tri):
        ok = tri >= 0
        if not ok.all():
            pos = int(np.argmin(ok))
            row = int(np.searchsorted(self.starts, pos, side="right")) - 1
            kind = "NaN" if np.isnan(tri[pos]) else "negative"
            raise ValidationError(f"{kind} score at ({layer}, {head}, {row})")
        np.copyto(self.wide, tri)
        sums = np.add.reduceat(self.wide, self.starts)
        ok = np.abs(sums - 1.0) <= ROW_SUM_TOL
        if not ok.all():
            row = int(np.argmin(ok))
            raise ValidationError(f"row sum {sums[row]:.6g} at ({layer}, {head}, {row})")
        self.prefill[layer, head][self.tail_mask] = tri[self.starts[self.first_row]:]
        return sums


def _reference_payload(pieces, where, count):
    """The bytes of a list of base64 strings, decoded one by one and joined,
    which must be `count` float32 scores."""
    if not isinstance(pieces, list) or not all(isinstance(p, str) for p in pieces):
        raise FormatError(f"{where} must be a list of base64 strings")
    try:
        raw = b"".join(base64.b64decode(p, validate=True) for p in pieces)
    except (binascii.Error, ValueError) as exc:
        raise FormatError(f"{where} is not base64: {exc}") from None
    if len(raw) != 4 * count:
        raise FormatError(f"{where} holds {len(raw)} bytes, expected {4 * count}")
    return raw


def reference_trace_from_text(data, rows=None):
    """The version 2 text container parsed as one whole JSON document, each
    payload's base64 pieces decoded and joined, then checked field by field:
    the reference for the streamed loader. Like `json.loads`, it takes the
    fields in any order and keeps the last of a duplicate."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"not a valid text trace: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError("top-level value must be an object")
    version = _require(obj, "format_version", "")
    if type(version) is not int or version != TEXT_FORMAT_VERSION:
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

    tail = ReferencePrefillTail(L, H, n, rows)
    if not isinstance(prefill_obj, list) or len(prefill_obj) != L:
        raise FormatError(f"prefill must be a list of {L} layers")
    for l, layer in enumerate(prefill_obj):
        if not isinstance(layer, list) or len(layer) != H:
            raise FormatError(f"prefill[{l}] must be a list of {H} heads")
        for hd, pieces in enumerate(layer):
            raw = _reference_payload(pieces, f"prefill[{l}][{hd}]", n * (n + 1) // 2)
            tail.add(l, hd, np.frombuffer(raw, "<f4"))

    decode = []
    if not isinstance(decode_obj, list) or len(decode_obj) != T:
        raise FormatError(f"decode must be a list of {T} steps")
    for s, pieces in enumerate(decode_obj):
        raw = _reference_payload(pieces, f"decode[{s}]", L * H * (n + s))
        decode.append(np.frombuffer(raw, "<f4").reshape(L, H, n + s).copy())

    trace = AttentionTrace(header, tail.prefill, decode, tail.first_row)
    trace.validate()
    return trace
