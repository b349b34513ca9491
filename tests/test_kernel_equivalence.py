"""The rank-prefix kernel against the per-head reference path.

The planner, masks and score-driven baselines are vectorised over (layer,
head) and read rankings from per-trace tables; replay takes every decode
step in one sum of products over a stacked table. Here every one of their
outputs is compared, exactly, with the per-head loops and the per-step
replay they replaced (`oracles.reference_*`): plan arrays, keep masks,
warning text and order, retained masses, and whole SimReports.

The text loader's base64 word kernel, `trace._b64decode`, is compared with
`base64.b64decode(validate=True)` the same way: equal bytes, or the same
exception type and message, on valid, mutated and fixed-length payloads.
"""

import base64
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import modkv.policy as policy_module
import modkv.trace as trace_module
import oracles
from conftest import assert_same_report, labels_from
from modkv import (
    AttentionTrace,
    BaselineConfig,
    BaselineKind,
    EvictionMask,
    ParameterError,
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
    replay,
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
            for source in (tables, trace):
                plan = plan_budgets(source, cfg)
                assert_same_plan(plan, want)
                mask = build_masks(source, plan, cfg)
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
            for source in (tables, trace):
                got = baseline_mask(source, cfg)
                assert np.array_equal(got.keep, want.keep)
                assert got.warnings == want.warnings == []


def test_budget_recurrence_matches_the_scalar_oracle_where_it_branches():
    """With and without head normalization, and under keep floors that clamp
    later layers' budgets, plans in both modes match the reference planner,
    whose budget recurrence is scalar code of its own."""
    rng = np.random.default_rng(71)
    clamped = set()
    normalization_matters = False
    for kind in ("mixed", "one_text"):
        n = 12
        trace = quantised_trace(rng, 4, 3, n, random_labels(rng, n, kind))
        tables = TraceTables(trace)
        for mode in PolicyMode:
            for frac in (0.05, 0.2, 0.5):
                for theta in (0.7, 0.95):
                    for min_keep in (0, 2, 4):
                        budgets = []
                        for head_normalize in (True, False):
                            cfg = PolicyConfig(budget_frac=frac, coverage_threshold=theta,
                                               mode=mode, min_keep_per_modality=min_keep,
                                               head_normalize_compensation=head_normalize)
                            plan = plan_budgets(tables, cfg)
                            assert_same_plan(plan, oracles.reference_plan(trace, cfg))
                            budgets.append(plan.layer_budget)
                            if any("clamped up to floor" in w for w in plan.warnings):
                                clamped.add((mode, head_normalize))
                        normalization_matters |= not np.array_equal(*budgets)
    assert clamped == {(mode, hn) for mode in PolicyMode for hn in (True, False)}
    assert normalization_matters


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
            got = compare(tables, specs)
            want = sorted(
                (oracles.reference_simulate(trace, s) for s in specs),
                key=lambda r: (-r.mean_retained_mass, r.policy),
            )
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert_same_report(a, b)
            for spec in specs:
                assert_same_report(simulate(trace, spec), oracles.reference_simulate(trace, spec))


def wide_range_decode(rng, trace):
    """`trace` with decode scores spread over 40 binades. Sums of scores
    within a few binades of each other are exact in float64 in any order;
    these are not, so a replay that summed in another order would differ."""
    h = trace.header
    decode = []
    for vec in trace.decode:
        step = rng.random(vec.shape) * 2.0 ** rng.integers(-40, 1, size=vec.shape)
        decode.append((step / step.sum(axis=2, keepdims=True)).astype(np.float32))
    wide = AttentionTrace(h, trace.prefill, decode)
    wide.validate()
    return wide


@pytest.mark.parametrize("n", [67, 256])
def test_wide_grids_match_the_per_step_replay(n):
    """At widths where each sum of products runs numpy's unrolled loop and
    its tail, a whole budget x theta grid through one table set gives the
    per-head path's reports, whichever of adaptive and proportional builds
    the shared budget paths first; replay alone matches the per-step
    einsum on kept-everything, kept-nothing and random masks."""
    rng = np.random.default_rng(n)
    traces = [
        wide_range_decode(rng, quantised_trace(rng, 2, 3, n, random_labels(rng, n, kind),
                                               steps=steps, boost=boost))
        for kind, steps, boost in (("mixed", 4, None), ("one_text", 3, 3.0 * n))
    ]
    cells = [
        (budget, theta, min_keep)
        for budget in (0.05, 0.1, 0.2, 0.4, 0.6, 1.0)
        for theta in THETAS
        for min_keep in (0, 3)
    ]
    interleaved = False
    for trace in traces:
        for modes in (tuple(PolicyMode), tuple(reversed(PolicyMode))):
            tables = TraceTables(trace)
            for budget, theta, min_keep in cells:
                for mode in modes:
                    spec = PolicyConfig(budget_frac=budget, coverage_threshold=theta,
                                        mode=mode, min_keep_per_modality=min_keep)
                    got = simulate(tables, spec)
                    assert_same_report(got, oracles.reference_simulate(trace, spec))
                    kinds = "".join("s" if "spilled" in w else "c" if "floor" in w else ""
                                    for w in got.warnings)
                    interleaved |= "scs" in kinds
        tables = TraceTables(trace)
        h = trace.header
        shape = (h.num_layers, h.num_heads, n)
        masks = [np.ones(shape, dtype=bool), np.zeros(shape, dtype=bool)]
        masks += [rng.random(shape) < p for p in (0.1, 0.5, 0.9)]
        for keep in masks:
            mask = EvictionMask("random", keep)
            assert replay(tables, mask) == oracles.reference_replay(trace, mask)
    # Some plan's clamp warning sat between two layers' spill warnings.
    assert interleaved


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


def test_coverage_counts_over_many_thresholds_equal_one_threshold_at_a_time():
    """One sort for many thresholds gives, bit for bit, each threshold's own
    counts: on tie-heavy scores, empty pools and heads with no mass."""
    rng = np.random.default_rng(43)
    grid = np.array([0.05, 0.5, 0.7, 0.9, 0.9, 0.999, 1.0])
    for n in (1, 2, 9, 40, 257):
        scores = np.round(rng.random((3, 4, n)) * 4) / 4  # many ties and zeros
        scores[1, 2] = 0.0  # a head with no mass at all
        scores[2, 0, : n // 2] = 0.0
        for visual in (rng.random(n) < 0.5, np.zeros(n, bool), np.ones(n, bool)):
            kv, kt = coverage_counts(scores, visual, grid)
            assert kv.shape == kt.shape == (grid.size, 3, 4)
            assert kv.dtype == kt.dtype == np.int64
            for k, theta in enumerate(grid):
                want_v, want_t = coverage_counts(scores, visual, float(theta))
                assert np.array_equal(kv[k], want_v) and np.array_equal(kt[k], want_t)
                for l, hd in np.ndindex(3, 4):
                    row = coverage_counts(scores[l, hd], visual, grid)
                    assert (row[0][k], row[1][k]) == coverage_counts(scores[l, hd], visual, theta)


@pytest.mark.parametrize("grid", [[0.9, 1.2], [0.0], [float("nan"), 0.5]])
def test_every_threshold_of_many_is_checked(grid):
    with pytest.raises(ParameterError, match=r"threshold must be in \(0, 1\]"):
        coverage_counts(np.ones(3), np.zeros(3, bool), np.array(grid))


def test_tables_fill_a_grids_needs_from_one_sort_per_row_count(monkeypatch):
    """`fill_needs` sorts once per row count the specs' proxies read, after
    clamping to the prompt; `needs` then reads what it built, equal to what
    a table built one threshold at a time holds."""
    rng = np.random.default_rng(47)
    trace = quantised_trace(rng, 3, 4, 30, rng.random(30) < 0.4)
    calls = []
    real = policy_module.coverage_counts

    def spy(scores, visual, threshold):
        calls.append(len(threshold))
        return real(scores, visual, threshold)

    monkeypatch.setattr(policy_module, "coverage_counts", spy)
    # Proxy counts 40 and 50 both clamp to the 30-row prompt.
    wanted = [(8, theta) for theta in THETAS] + [(40, 0.6), (50, 0.8)]
    specs = [PolicyConfig(0.3, theta, ProxyConfig(count)) for count, theta in wanted]
    specs.append(BaselineConfig(BaselineKind.CUMULATIVE_TOPK, 0.3))
    tables = TraceTables(trace)
    tables.fill_needs(specs)
    tables.fill_needs(specs[:2])  # built already: no second sort
    assert sorted(calls) == [2, len(THETAS)]
    vis = trace.header.modality_labels
    for count, theta in wanted:
        got = tables.needs(count, theta)
        want = real(tables.importance(count), vis, theta)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))
    assert len(calls) == 2


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


# ---------------------------------------------------------------------------
# the base64 word kernel

SPAN = trace_module._B64_SPAN
ALPHABET = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"
# Characters that are not base64 data: punctuation, controls, padding and
# non-ASCII of each UTF-8 width.
FOREIGN = ["$", "-", "_", ".", " ", "\n", "\t", "\x00", "\x7f", "=", "\x80", "é", "€",
           "\U0001F600"]
# The shortest payload the kernel takes: its default, or 32 characters, so
# that short payloads take it as well.
KERNELS = pytest.mark.parametrize("kernel", [None, 32], ids=["default_kernel", "kernel32"])


def decode_outcome(decode, text):
    try:
        return bytes(decode(text))
    except Exception as exc:
        return type(exc), str(exc)


def assert_decodes_alike(text, kernel):
    """`_b64decode` of `text`, alone and in place inside a longer string,
    returns the bytes `base64.b64decode(validate=True)` returns or raises
    its error."""
    want = decode_outcome(lambda s: base64.b64decode(s, validate=True), text)
    pending = '["' + text + '"]'
    with mock.patch.object(trace_module, "_B64_KERNEL_MIN",
                           kernel or trace_module._B64_KERNEL_MIN):
        assert decode_outcome(trace_module._b64decode, text) == want
        in_place = decode_outcome(
            lambda s: trace_module._b64decode(pending, 2, 2 + len(s)), text)
        assert in_place == want


def b64(raw):
    return base64.b64encode(raw).decode("ascii")


# Byte counts from 0 to about 3 spans of text: a whole number of spans, then
# up to one more, which tends to be short.
SIZES = st.builds(lambda spans, chars: (spans * SPAN + chars) * 3 // 4,
                  st.integers(0, 2), st.integers(0, SPAN))


@KERNELS
@settings(max_examples=60, deadline=None)
@given(size=SIZES, seed=st.integers(0, 2 ** 32 - 1))
def test_b64decode_matches_base64_on_random_bytes(kernel, size, seed):
    assert_decodes_alike(b64(np.random.default_rng(seed).bytes(size)), kernel)


@KERNELS
@settings(max_examples=150, deadline=None)
@given(
    size=SIZES,
    seed=st.integers(0, 2 ** 32 - 1),
    mutation=st.sampled_from(["replace", "drop", "extra", "leading_pad", "strip_pad",
                              "over_pad", "data_after_pad"]),
    where=st.integers(0, 40) | st.integers(0, 2 ** 32 - 1),
    from_end=st.booleans(),
    char=st.sampled_from(FOREIGN),
)
def test_b64decode_matches_base64_on_mutated_encodings(kernel, size, seed, mutation, where,
                                                       from_end, char):
    raw = np.random.default_rng(seed).bytes(size)
    text = b64(raw)
    at = where % (len(text) + 1)
    if from_end:
        at = len(text) - at
    if mutation == "replace":
        text = text[:at] + char + text[at + 1:]
    elif mutation == "drop":
        text = text[:at] + text[at + 1:]
    elif mutation == "extra":
        text = text[:at] + ALPHABET[where % 64] + text[at:]
    elif mutation == "leading_pad":
        text = "=" + text[1:]
    elif mutation == "strip_pad":
        text = text.rstrip("=")
    elif mutation == "over_pad":
        text += "=" * (1 + where % 2)
    else:
        # Two encodings joined: the first one's padding, if it has any, is
        # followed by data.
        cut = at * 3 // 4
        text = b64(raw[:cut]) + b64(raw[cut:])
    assert_decodes_alike(text, kernel)


def test_b64decode_matches_base64_at_every_short_and_span_length():
    """Every length from 0 to 64 characters, with the kernel taking payloads
    of 32 characters and more, and every length around one span with its
    default: the kernel leaves the last 16 to 28 characters to `binascii`,
    so a payload it takes in two spans begins at SPAN + 32 characters. Each
    text is tried valid, with each padding its length allows, and with a
    foreign character at the ends and the edges of the tail."""
    rng = np.random.default_rng(7)
    for lengths, kernel, foreign in ((range(65), 32, FOREIGN),
                                     (range(SPAN - 16, SPAN + 33), None, ["$", "=", "é"])):
        for length in lengths:
            if length % 4:
                texts = ["".join(rng.choice(list(ALPHABET), length))]
            else:
                # No padding, then "=" and "==".
                texts = [b64(rng.bytes(length // 4 * 3 - pad))
                         for pad in range(3 if length else 1)]
            for text in texts:
                assert len(text) == length
                assert_decodes_alike(text, kernel)
                # The first and a middle character, the last one before the
                # tail, and the tail's first, middle and last ones.
                for at in {0, length // 2, length - 29, length - 17, length - 16,
                           length - 3, length - 1}:
                    if 0 <= at < length:
                        for char in foreign:
                            assert_decodes_alike(text[:at] + char + text[at + 1:], kernel)
