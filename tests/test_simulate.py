"""Replay, memory model, and policy comparison tests."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import dense, make_trace, small_spec, uniform_rows
from modkv import (
    AttentionTrace,
    BaselineConfig,
    BaselineKind,
    EvictionMask,
    PolicyConfig,
    PolicyMode,
    ProxyConfig,
    TraceHeader,
    ValidationError,
    compare,
    estimate_memory,
    generate_synthetic,
    memory_model_rows,
    replay,
    simulate,
)
from modkv.simulate import DEFAULT_BYTES_PER_TOKEN, FULL_CACHE_GIB


def full_mask(trace, value=True):
    h = trace.header
    keep = np.full((h.num_layers, h.num_heads, h.prompt_len), value, dtype=bool)
    return EvictionMask(policy="hand", keep=keep)


class TestReplay:
    def test_keep_all_is_exactly_one(self, mixed_trace):
        assert replay(mixed_trace, full_mask(mixed_trace)) == [1.0, 1.0]

    def test_keep_nothing_first_step_is_zero(self):
        t = make_trace([[1.0], [0.5, 0.5]], decode=[[0.25, 0.75]])
        assert replay(t, full_mask(t, value=False)) == [0.0]

    def test_decode_history_positions_always_count(self):
        t = make_trace(
            [[1.0], [0.5, 0.5]],
            decode=[[0.25, 0.75], [0.2, 0.2, 0.6]],
        )
        masses = replay(t, full_mask(t, value=False))
        assert masses[0] == 0.0
        vec = t.decode[1][0, 0].astype(np.float64)
        assert masses[1] == pytest.approx(float(vec[2] / vec.sum()))

    def test_hand_built_five_token_example(self):
        rows = uniform_rows(5)
        step = [0.1, 0.2, 0.3, 0.15, 0.25]
        t = make_trace(rows, decode=[step])
        keep = np.zeros((1, 1, 5), dtype=bool)
        keep[0, 0, [0, 4]] = True
        mask = EvictionMask(policy="hand", keep=keep)
        vec = t.decode[0][0, 0].astype(np.float64)
        want = float((vec[0] + vec[4]) / vec.sum())
        assert replay(t, mask) == [want]
        assert oracles.brute_retained_mass(t, keep) == pytest.approx([want])

    def test_matches_brute_force_on_generated_traces(self):
        for seed in range(4):
            t = generate_synthetic(small_spec(seed, steps=3, mix=0.4,
                                              bias=(0.2, 0.8)))
            rng = np.random.default_rng(seed)
            keep = rng.random((2, 2, 24)) < 0.5
            mask = EvictionMask(policy="rand", keep=keep)
            got = replay(t, mask)
            want = oracles.brute_retained_mass(t, keep)
            assert got == pytest.approx(want, rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), pos=st.integers(0, 23))
    def test_adding_a_position_never_reduces_mass(self, seed, pos):
        t = generate_synthetic(small_spec(seed, steps=2, mix=0.5, bias=0.5))
        rng = np.random.default_rng(seed + 1)
        keep = rng.random((2, 2, 24)) < 0.4
        grown = keep.copy()
        grown[:, :, pos] = True
        before = replay(t, EvictionMask(policy="a", keep=keep))
        after = replay(t, EvictionMask(policy="b", keep=grown))
        for lo, hi in zip(before, after):
            assert hi >= lo - 1e-12

    def test_replay_does_not_mutate_the_trace(self, mixed_trace):
        fingerprint = (
            mixed_trace.prefill.tobytes(),
            [d.tobytes() for d in mixed_trace.decode],
        )
        rng = np.random.default_rng(0)
        keep = rng.random((2, 2, 24)) < 0.5
        replay(mixed_trace, EvictionMask(policy="x", keep=keep))
        assert mixed_trace.prefill.tobytes() == fingerprint[0]
        assert [d.tobytes() for d in mixed_trace.decode] == fingerprint[1]

    def test_mask_shape_mismatch_rejected(self, mixed_trace):
        bad = EvictionMask(policy="x", keep=np.ones((2, 2, 5), dtype=bool))
        with pytest.raises(ValidationError):
            replay(mixed_trace, bad)

    def test_no_decode_steps_is_an_empty_series(self):
        t = make_trace(uniform_rows(4))
        assert replay(t, full_mask(t)) == []

    @pytest.mark.parametrize("steps, layers, heads", [
        (0, 1, 1), (0, 3, 5), (1, 1, 1), (1, 3, 5), (2, 5, 7), (4, 3, 11), (3, 8, 8),
        (2, 9, 15), (1, 16, 17),
    ])
    def test_step_means_are_bitwise_the_per_step_mean(self, steps, layers, heads):
        """Each step's (layer, head) ratios span 40 binades, so any other
        summation order than np.mean's over one step would change the bits."""
        rng = np.random.default_rng(steps * 1000 + layers * 30 + heads)
        n = 2
        prefill = np.zeros((layers, heads, n, n), dtype=np.float32)
        prefill[:, :, 0, 0] = 1.0
        prefill[:, :, 1] = 0.5
        decode = []
        for s in range(steps):
            step = np.zeros((layers, heads, n + s), dtype=np.float32)
            binade = rng.integers(-40, 0, (layers, heads))
            step[..., 0] = rng.random((layers, heads)) * 2.0 ** binade
            step[..., 1] = 1.0 - step[..., 0]
            decode.append(step)
        header = TraceHeader(layers, heads, n, steps, np.zeros(n, dtype=bool))
        trace = AttentionTrace(header, prefill, decode)
        trace.validate()
        keep = np.zeros((layers, heads, n), dtype=bool)
        keep[..., 0] = True
        mask = EvictionMask(policy="first", keep=keep)
        got = replay(trace, mask)
        want = []
        for step in trace.decode:
            v = step.astype(np.float64)
            want.append(float(np.mean(np.clip(v[..., 0] / v.sum(axis=2), 0.0, 1.0))))
        assert len(got) == steps
        assert [m.hex() for m in got] == [m.hex() for m in want]
        assert got == oracles.reference_replay(trace, mask)


class TestMemoryModel:
    def test_linear_in_kept_tokens(self):
        assert estimate_memory(np.array([[5]])) == 5 * DEFAULT_BYTES_PER_TOKEN
        assert estimate_memory(np.zeros((2, 2), dtype=int)) == 0

    def test_ratio_is_exactly_the_count_ratio(self):
        for k, n in ((20, 100), (5, 100), (1, 3)):
            ratio = estimate_memory(np.array([k])) / estimate_memory(np.array([n]))
            assert ratio == k / n

    def test_custom_bytes_per_token(self):
        assert estimate_memory(np.array([3]), bytes_per_token=10) == 30

    def test_model_rows_scale_the_full_cache_figure(self):
        rows = memory_model_rows([0.05, 0.2, 1.0, 0.37])
        by_frac = {f: (model, measured) for f, model, measured in rows}
        assert by_frac[1.0] == (FULL_CACHE_GIB, 1.63)
        assert by_frac[0.2][0] == pytest.approx(0.2 * FULL_CACHE_GIB)
        assert by_frac[0.2][1] == 0.41
        assert by_frac[0.05][0] == pytest.approx(0.0815)
        assert by_frac[0.05][1] == 0.16
        assert by_frac[0.37][1] is None  # no published figure at 37%


class TestSimulateAndCompare:
    def test_single_policy_is_a_singleton_report(self, mixed_trace):
        reports = compare(mixed_trace, [PolicyConfig(budget_frac=0.4)])
        assert len(reports) == 1
        assert reports[0].policy == "adaptive"

    def test_same_policy_twice_gives_identical_metrics(self, mixed_trace):
        cfg = BaselineConfig(BaselineKind.RECENT_WINDOW, 0.3)
        a, b = compare(mixed_trace, [cfg, cfg])
        assert a.mean_retained_mass == b.mean_retained_mass
        assert a.memory_bytes_est == b.memory_bytes_est

    def test_full_budget_reports_mass_one_for_every_policy(self, mixed_trace):
        specs = [
            PolicyConfig(budget_frac=1.0),
            PolicyConfig(budget_frac=1.0, mode=PolicyMode.PROPORTIONAL),
        ] + [BaselineConfig(kind, 1.0) for kind in BaselineKind]
        for rep in compare(mixed_trace, specs):
            assert rep.mean_retained_mass == 1.0
            assert rep.per_step_retained_mass == [1.0, 1.0]

    def test_adaptive_beats_fixed_priority_on_heterogeneous_heads(self):
        spec = small_spec(41, layers=2, heads=4, prompt_len=256, steps=3,
                          mix=0.5, bias=(0.1, 0.9, 0.1, 0.9))
        t = generate_synthetic(spec)
        ours = simulate(t, PolicyConfig(budget_frac=0.2))
        other = simulate(t, BaselineConfig(BaselineKind.FIXED_PRIORITY, 0.2))
        assert ours.mean_retained_mass >= other.mean_retained_mass

    def test_reports_are_sorted_by_mass_then_name(self):
        t = generate_synthetic(small_spec(43, prompt_len=64, steps=2,
                                          mix=0.5, bias=(0.2, 0.8)))
        reports = compare(t, [
            BaselineConfig(BaselineKind.RECENT_WINDOW, 0.2),
            PolicyConfig(budget_frac=0.2),
            BaselineConfig(BaselineKind.CUMULATIVE_TOPK, 0.2),
        ])
        masses = [r.mean_retained_mass for r in reports]
        assert masses == sorted(masses, reverse=True)
        assert reports[0].policy == "adaptive"

    def test_reports_carry_their_spec_theta(self, mixed_trace):
        part = dense(mixed_trace, 4)
        reports = compare(part, [
            PolicyConfig(budget_frac=0.2, coverage_threshold=0.5, proxy=ProxyConfig(4)),
            PolicyConfig(budget_frac=0.2, coverage_threshold=0.7, proxy=ProxyConfig(8)),
            BaselineConfig(BaselineKind.RECENT_WINDOW, 0.2),
        ])
        failed = {r.theta: any("policy failed" in w for w in r.warnings) for r in reports}
        assert failed == {0.5: False, 0.7: True, None: False}
        assert [r.policy for r in reports if r.theta is None] == ["recent_window"]

    def test_failing_policy_becomes_a_zero_row_with_warning(self, mixed_trace):
        good = BaselineConfig(BaselineKind.RECENT_WINDOW, 0.5)
        bad = BaselineConfig(BaselineKind.SINK_WINDOW, 0.1, sink_count=12)
        reports = compare(mixed_trace, [good, bad])
        by_name = {r.policy: r for r in reports}
        assert by_name["sink_window"].mean_retained_mass == 0.0
        assert any("policy failed" in w for w in by_name["sink_window"].warnings)
        assert by_name["recent_window"].warnings == []

    def test_a_bug_in_a_policy_is_not_swallowed(self, mixed_trace, monkeypatch):
        """Only package errors become failure rows; anything else is a bug."""
        def broken(trace, spec, **kwargs):
            raise IndexError("index 99 is out of bounds")

        # The package re-exports a function named simulate; patch the module.
        monkeypatch.setattr(importlib.import_module("modkv.simulate"), "baseline_mask", broken)
        with pytest.raises(IndexError):
            compare(mixed_trace, [BaselineConfig(BaselineKind.RECENT_WINDOW, 0.5)])

    def test_report_carries_memory_estimate(self, mixed_trace):
        rep = simulate(mixed_trace, BaselineConfig(BaselineKind.RECENT_WINDOW, 0.25))
        assert rep.memory_bytes_est == int(rep.kept_counts.sum()) * DEFAULT_BYTES_PER_TOKEN

    def test_trace_without_decode_steps_scores_full_mass(self):
        t = make_trace(uniform_rows(8))
        rep = simulate(t, BaselineConfig(BaselineKind.RECENT_WINDOW, 0.5))
        assert rep.per_step_retained_mass == []
        assert rep.mean_retained_mass == 1.0
