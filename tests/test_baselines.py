"""Baseline eviction policy tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_trace, small_spec, top_by_rank, uniform_rows
from modkv import (
    BaselineConfig,
    BaselineKind,
    ParameterError,
    ProxyConfig,
    baseline_mask,
    generate_synthetic,
    proxy_importance_matrix,
)


def kept_indices(mask, layer=0, head=0):
    return set(np.flatnonzero(mask.keep[layer, head]).tolist())


class TestConfig:
    def test_budget_range_enforced(self):
        with pytest.raises(ParameterError):
            BaselineConfig(BaselineKind.RECENT_WINDOW, 0.0)
        with pytest.raises(ParameterError):
            BaselineConfig(BaselineKind.RECENT_WINDOW, 1.2)

    def test_kept_per_head_clamps(self):
        cfg = BaselineConfig(BaselineKind.RECENT_WINDOW, 0.01)
        assert cfg.kept_per_head(10) == 1
        assert BaselineConfig(BaselineKind.RECENT_WINDOW, 1.0).kept_per_head(10) == 10

    def test_names(self):
        assert BaselineConfig(BaselineKind.SINK_WINDOW, 0.5).name == "sink_window"


class TestRecentWindow:
    def test_keeps_the_last_b_positions(self):
        t = make_trace(uniform_rows(10))
        mask = baseline_mask(t, BaselineConfig(BaselineKind.RECENT_WINDOW, 0.3))
        assert kept_indices(mask) == {7, 8, 9}


class TestSinkWindow:
    def test_keeps_sinks_plus_recent(self):
        t = make_trace(uniform_rows(10))
        cfg = BaselineConfig(BaselineKind.SINK_WINDOW, 0.4, sink_count=2)
        assert kept_indices(baseline_mask(t, cfg)) == {0, 1, 8, 9}

    def test_sink_count_equal_to_budget_keeps_only_the_sinks(self):
        t = make_trace(uniform_rows(10))
        cfg = BaselineConfig(BaselineKind.SINK_WINDOW, 0.3, sink_count=3)
        assert kept_indices(baseline_mask(t, cfg)) == {0, 1, 2}

    def test_sink_count_must_leave_window_room(self):
        t = make_trace(uniform_rows(10))
        cfg = BaselineConfig(BaselineKind.SINK_WINDOW, 0.3, sink_count=4)
        with pytest.raises(ParameterError):
            baseline_mask(t, cfg)


class TestCumulativeTopK:
    def test_matches_brute_force_column_sums(self):
        for seed in range(5):
            t = generate_synthetic(small_spec(seed, prompt_len=18, mix=0.5,
                                              bias=(0.3, 0.7)))
            cfg = BaselineConfig(BaselineKind.CUMULATIVE_TOPK, 0.33,
                                 observation_window=5)
            mask = baseline_mask(t, cfg)
            B = cfg.kept_per_head(18)
            for l in range(2):
                for hd in range(2):
                    brute = oracles.brute_window_scores(t, l, hd, 5)
                    order = sorted(range(18), key=lambda j: (-brute[j], -j))
                    assert kept_indices(mask, l, hd) == set(order[:B])

    def test_window_scores_match_oracle(self, mixed_trace):
        ws = proxy_importance_matrix(mixed_trace, ProxyConfig(6))
        for l in range(2):
            for hd in range(2):
                assert ws[l, hd].tolist() == oracles.brute_window_scores(
                    mixed_trace, l, hd, 6
                )

    @given(seed=st.integers(0, 500), quota=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_selection_is_permutation_equivariant(self, seed, quota):
        """With distinct scores, permuting the inputs permutes the selection."""
        rng = np.random.default_rng(seed)
        scores = rng.permutation(16).astype(np.float64)
        perm = rng.permutation(16)
        base = top_by_rank(scores, np.arange(16), quota)
        permuted = top_by_rank(scores[perm], np.arange(16), quota)
        assert {int(perm[i]) for i in permuted} == set(base.tolist())


class TestFixedPriority:
    def test_zero_text_priority_degenerates_to_visual_topk(self):
        t = generate_synthetic(small_spec(31, prompt_len=20, mix=0.5, bias=0.6))
        cfg = BaselineConfig(BaselineKind.FIXED_PRIORITY, 0.3,
                             text_priority_frac=0.0)
        mask = baseline_mask(t, cfg)
        vis = t.header.modality_labels
        for l in range(2):
            for hd in range(2):
                kept = mask.keep[l, hd]
                assert (kept & ~vis).sum() == 0
                ws = proxy_importance_matrix(t, ProxyConfig(cfg.observation_window))[l, hd]
                want = top_by_rank(ws, np.flatnonzero(vis), 6)
                assert kept_indices(mask, l, hd) == set(want.tolist())

    def test_full_text_priority_degenerates_to_text_topk(self):
        t = generate_synthetic(small_spec(31, prompt_len=20, mix=0.5, bias=0.6))
        cfg = BaselineConfig(BaselineKind.FIXED_PRIORITY, 0.3,
                             text_priority_frac=1.0)
        mask = baseline_mask(t, cfg)
        vis = t.header.modality_labels
        assert (mask.keep & vis).sum() == 0

    def test_backfills_when_a_modality_runs_out(self):
        t = generate_synthetic(small_spec(37, prompt_len=20, mix=0.1, bias=0.2))
        # Wants 30% of the budget in visual tokens but only 2 exist.
        cfg = BaselineConfig(BaselineKind.FIXED_PRIORITY, 0.8,
                             text_priority_frac=0.7)
        mask = baseline_mask(t, cfg)
        assert (mask.kept_counts() == 16).all()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    n=st.integers(2, 24),
    frac=st.floats(0.05, 1.0),
    kind=st.sampled_from(list(BaselineKind)),
)
def test_every_baseline_keeps_exactly_its_budget(seed, n, frac, kind):
    t = generate_synthetic(small_spec(seed, prompt_len=n, mix=0.5, bias=0.5))
    cfg = BaselineConfig(kind, frac, sink_count=1)
    mask = baseline_mask(t, cfg)
    assert (mask.kept_counts() == cfg.kept_per_head(n)).all()


def test_unknown_trace_shapes_are_respected(mixed_trace):
    mask = baseline_mask(mixed_trace, BaselineConfig(BaselineKind.RECENT_WINDOW, 0.5))
    assert mask.keep.shape == (2, 2, 24)
    assert mask.policy == "recent_window"
