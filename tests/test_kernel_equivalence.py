"""The rank-prefix kernel against the per-head reference path.

The planner, masks and score-driven baselines are vectorised over (layer,
head) and read rankings from per-trace tables. Here every one of their
outputs is compared, exactly, with the per-head loops they replaced
(`oracles.reference_*`): plan arrays, keep masks, warning text and order, and
whole SimReports.
"""

import numpy as np
import pytest

import oracles
from conftest import labels_from
from modkv import (
    AttentionTrace,
    BaselineConfig,
    BaselineKind,
    PolicyConfig,
    PolicyMode,
    ProxyConfig,
    TraceHeader,
    TraceTables,
    baseline_mask,
    build_masks,
    compare,
    coverage_counts,
    plan_budgets,
    simulate,
)
from modkv.policy import _split_by_preference, pool_ranks

THETAS = (0.5, 0.7, 0.9, 1.0)


def quantised_trace(rng, layers, heads, n, labels, steps=2, levels=3, boost=None):
    """Rows drawn from a few integer levels, so column sums tie often.

    `boost` adds weight to one column in every row, which concentrates a
    modality's mass on few tokens and forces the planner to spill.
    """
    prefill = np.zeros((layers, heads, n, n), dtype=np.float32)
    for l in range(layers):
        for hd in range(heads):
            for i in range(n):
                row = rng.integers(1, levels + 1, size=i + 1).astype(np.float64)
                if boost is not None:
                    row[0] += boost
                prefill[l, hd, i, : i + 1] = row / row.sum()
    decode = []
    for s in range(steps):
        step = rng.integers(1, levels + 1, size=(layers, heads, n + s)).astype(np.float64)
        decode.append((step / step.sum(axis=2, keepdims=True)).astype(np.float32))
    header = TraceHeader(layers, heads, n, steps, labels_from(labels, n))
    trace = AttentionTrace(header, prefill, decode)
    trace.validate()
    return trace


def random_labels(rng, n, kind):
    if kind == "all_visual":
        return np.ones(n, dtype=bool)
    if kind == "all_text":
        return np.zeros(n, dtype=bool)
    if kind == "one_visual":
        labels = np.zeros(n, dtype=bool)
        labels[0] = True
        return labels
    if kind == "one_text":
        labels = np.ones(n, dtype=bool)
        labels[0] = False
        return labels
    return rng.random(n) < 0.5


def assert_same_plan(got, want):
    assert got.mode == want.mode
    assert got.budget_frac == want.budget_frac
    assert got.prompt_len == want.prompt_len
    for name in ("layer_budget", "deviation", "alloc_visual", "alloc_text",
                 "need_visual", "need_text"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.warnings == want.warnings


def assert_same_report(got, want):
    assert got.policy == want.policy
    assert got.budget_frac == want.budget_frac
    assert got.theta == want.theta
    assert got.per_step_retained_mass == want.per_step_retained_mass
    assert got.mean_retained_mass == want.mean_retained_mass
    assert np.array_equal(got.kept_counts, want.kept_counts)
    assert got.memory_bytes_est == want.memory_bytes_est
    assert got.warnings == want.warnings


def policy_grid(n):
    """Policy configs covering modes, pinning, proxy counts beyond n,
    keep floors and the full budget."""
    out = []
    for mode in PolicyMode:
        for frac in (0.05, 0.3, 0.7, 1.0):
            for theta in THETAS:
                for pin in (True, False):
                    for proxy in (1, 4, n + 3):
                        for min_keep in (0, 2):
                            out.append(PolicyConfig(
                                budget_frac=frac, coverage_threshold=theta,
                                proxy=ProxyConfig(proxy), mode=mode,
                                min_keep_per_modality=min_keep, pin_proxy_tokens=pin,
                                head_normalize_compensation=min_keep == 0,
                            ))
    return out


def baseline_grid(n):
    out = []
    for kind in (BaselineKind.CUMULATIVE_TOPK, BaselineKind.FIXED_PRIORITY):
        for frac in (0.05, 0.3, 1.0):
            for window in (1, 3, n + 2):
                for text_frac in (0.0, 0.7, 1.0):
                    out.append(BaselineConfig(kind, frac, observation_window=window,
                                              text_priority_frac=text_frac))
    return out


LABEL_KINDS = ("mixed", "all_visual", "all_text", "one_visual", "one_text")


@pytest.mark.parametrize("kind", LABEL_KINDS)
def test_plans_and_masks_match_the_per_head_path(kind):
    rng = np.random.default_rng(LABEL_KINDS.index(kind))
    for n in (3, 11):
        trace = quantised_trace(rng, 3, 2, n, random_labels(rng, n, kind))
        tables = TraceTables(trace)
        for cfg in policy_grid(n):
            want = oracles.reference_plan(trace, cfg)
            # Shared tables (as in a grid) and fresh ones must agree.
            for shared in (tables, None):
                plan = plan_budgets(trace, cfg, tables=shared)
                assert_same_plan(plan, want)
                mask = build_masks(trace, plan, cfg, tables=shared)
                ref = oracles.reference_masks(trace, want, cfg)
                assert np.array_equal(mask.keep, ref.keep)
                assert mask.warnings == ref.warnings
                assert mask.policy == ref.policy


@pytest.mark.parametrize("kind", LABEL_KINDS)
def test_score_driven_baselines_match_the_per_head_path(kind):
    rng = np.random.default_rng(10 + LABEL_KINDS.index(kind))
    for n in (2, 13):
        trace = quantised_trace(rng, 2, 3, n, random_labels(rng, n, kind))
        tables = TraceTables(trace)
        for cfg in baseline_grid(n):
            want = oracles.reference_baseline_mask(trace, cfg)
            for shared in (tables, None):
                got = baseline_mask(trace, cfg, tables=shared)
                assert np.array_equal(got.keep, want.keep)
                assert got.warnings == want.warnings == []


def test_spill_warnings_match_in_text_and_order():
    """Mass piled on a lone token of one modality overflows that modality's
    pool in proportional mode; the spill warnings must match line for line."""
    rng = np.random.default_rng(21)
    seen = set()
    for kind in ("one_visual", "one_text"):
        trace = quantised_trace(rng, 3, 3, 12, random_labels(rng, 12, kind), boost=30.0)
        for frac in (0.3, 0.6, 0.9):
            cfg = PolicyConfig(budget_frac=frac, mode=PolicyMode.PROPORTIONAL)
            plan = plan_budgets(trace, cfg)
            want = oracles.reference_plan(trace, cfg)
            assert_same_plan(plan, want)
            seen.update(w.split(": ")[1].split(" allocation")[0]
                        for w in plan.warnings if "spilled" in w)
    assert seen == {"visual", "text"}


def test_reports_match_across_a_theta_sweep():
    """One table set reused across a whole budget x theta grid gives the
    same SimReports as the per-head path, cell by cell."""
    rng = np.random.default_rng(31)
    n = 16
    trace = quantised_trace(rng, 3, 4, n, random_labels(rng, n, "mixed"), steps=3)
    tables = TraceTables(trace)
    for budget in (0.1, 0.25, 0.5, 1.0):
        for theta in (0.5, 0.6, 0.7, 0.8, 0.9):
            specs = [
                PolicyConfig(budget_frac=budget, coverage_threshold=theta),
                PolicyConfig(budget_frac=budget, coverage_threshold=theta,
                             mode=PolicyMode.PROPORTIONAL),
            ] + [BaselineConfig(kind, budget, sink_count=1) for kind in BaselineKind]
            got = compare(trace, specs, tables=tables)
            want = sorted(
                (oracles.reference_simulate(trace, s) for s in specs),
                key=lambda r: (-r.mean_retained_mass, r.policy),
            )
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_same_report(a, b)
            for spec in specs:
                assert_same_report(simulate(trace, spec), oracles.reference_simulate(trace, spec))


def test_vectorised_coverage_counts_match_per_head_counts():
    rng = np.random.default_rng(41)
    for n in (1, 2, 9, 40):
        scores = np.round(rng.random((3, 4, n)) * 4) / 4  # many ties and zeros
        visual = rng.random(n) < 0.5
        for theta in THETAS:
            kv, kt = coverage_counts(scores, visual, theta)
            assert kv.shape == kt.shape == (3, 4)
            for l in range(3):
                for hd in range(4):
                    want = oracles.reference_coverage_counts(scores[l, hd], visual, theta)
                    assert (kv[l, hd], kt[l, hd]) == want
                    assert coverage_counts(scores[l, hd], visual, theta) == want


def test_rank_prefixes_are_the_top_by_importance_sets():
    rng = np.random.default_rng(51)
    for n in (1, 5, 30):
        scores = np.floor(rng.random((2, 3, n)) * 4)  # quantised: ties everywhere
        visual = rng.random(n) < 0.4
        pools = (np.flatnonzero(visual), np.flatnonzero(~visual))
        ranks = pool_ranks(scores, pools)
        for l in range(2):
            for hd in range(3):
                for pool in pools:
                    for quota in range(pool.size + 1):
                        want = oracles.top_by_importance(scores[l, hd], pool, quota)
                        got = pool[ranks[l, hd, pool] < quota]
                        assert sorted(want.tolist()) == got.tolist()


def test_vectorised_split_matches_largest_remainder_split():
    """Rational weights hit every leftover case (0, 1 and 2 units) and
    remainder ties; zero-mass heads fall back to the token counts."""
    rng = np.random.default_rng(61)
    cases = []
    for total in range(0, 41):
        wv = rng.integers(0, 20, size=64) / rng.integers(1, 20, size=64)
        wt = rng.integers(0, 20, size=64) / rng.integers(1, 20, size=64)
        wt[:4] = wv[:4]  # equal weights: remainders tie
        wv[4:6] = wt[4:6] = 0.0  # no mass at all
        cases.append((wv, wt, int(rng.integers(0, 5)), int(rng.integers(1, 5)), total))
    # Shares that round to just below an integer on both sides: 2 units left.
    for num_v, num_t, den, total in ((1, 4, 18, 10), (7, 11, 19, 18), (4, 1, 18, 5)):
        cases.append((np.array([num_v / den]), np.array([num_t / den]), 3, 3, total))
    leftovers = set()
    for wv, wt, n_vis, n_txt, total in cases:
        got_v, got_t = _split_by_preference(wv, wt, n_vis, n_txt, total)
        for i in range(wv.size):
            weights = [wv[i], wt[i]] if wv[i] + wt[i] > 0 else [n_vis, n_txt]
            want = oracles.largest_remainder_split(weights, total)
            assert (got_v[i], got_t[i]) == (want[0], want[1])
            exact = (np.asarray(weights, dtype=np.float64) / sum(weights)) * total
            leftovers.add(int(total - np.floor(exact).sum()))
    assert leftovers == {0, 1, 2}
