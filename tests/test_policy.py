"""Budget planning and mask construction tests."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import make_trace, small_spec, top_by_rank, uniform_rows
from modkv import (
    BudgetPlan,
    EvictionMask,
    FormatError,
    ParameterError,
    PolicyConfig,
    PolicyMode,
    ProxyConfig,
    ValidationError,
    build_masks,
    coverage_counts,
    generate_synthetic,
    layer_budget_deviation,
    load_mask,
    load_plan,
    plan_budgets,
    save_mask,
    save_plan,
    update_layer_budget,
)
from modkv.allocation import round_half_up

ALL_TEXT = np.zeros(3, dtype=bool)


def kept_values(scores, visual, keep, want_visual):
    sel = keep & (visual == want_visual)
    return np.sort(scores[sel])[::-1]


class TestCoverageCounts:
    def test_prefix_reaching_threshold(self):
        kv, kt = coverage_counts(np.array([0.5, 0.3, 0.2]), ALL_TEXT, 0.7)
        assert (kv, kt) == (0, 2)

    def test_full_threshold_needs_every_token(self):
        kv, kt = coverage_counts(np.array([0.5, 0.3, 0.2]), ALL_TEXT, 1.0)
        assert kt == 3

    def test_single_atom_needs_one_token(self):
        kv, kt = coverage_counts(np.array([0.0, 1.0, 0.0]), ALL_TEXT, 0.99)
        assert kt == 1

    def test_zero_mass_modality_needs_nothing(self):
        visual = np.array([True, False, False])
        kv, kt = coverage_counts(np.array([0.0, 0.6, 0.4]), visual, 0.9)
        assert kv == 0

    @pytest.mark.parametrize("theta", [0.0, -0.2, 1.01])
    def test_threshold_range_enforced(self, theta):
        with pytest.raises(ParameterError):
            coverage_counts(np.array([1.0]), np.array([False]), theta)

    @given(
        values=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=16),
        seed=st.integers(0, 999),
    )
    def test_matches_prefix_scan_oracle(self, values, seed):
        rng = np.random.default_rng(seed)
        scores = np.array(values)
        visual = rng.random(len(values)) < 0.5
        theta = float(rng.uniform(0.05, 1.0))
        kv, kt = coverage_counts(scores, visual, theta)
        assert kv == oracles.brute_coverage(scores[visual], theta)
        assert kt == oracles.brute_coverage(scores[~visual], theta)

    @given(values=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=16))
    def test_monotone_in_threshold(self, values):
        scores = np.array(values)
        visual = np.zeros(len(values), dtype=bool)
        grid = np.linspace(0.1, 1.0, 10)
        counts = [coverage_counts(scores, visual, t)[1] for t in grid]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize("scale", [0.25, 2.0, 1024.0])
    def test_scale_invariant_under_power_of_two(self, scale):
        rng = np.random.default_rng(8)
        scores = rng.random(40)
        visual = rng.random(40) < 0.4
        assert coverage_counts(scores, visual, 0.8) == coverage_counts(
            scores * scale, visual, 0.8
        )


class TestLayerBudgetDeviation:
    def test_exact_needs_mean_zero_deviation(self):
        assert layer_budget_deviation(np.array([4, 4]), np.array([2, 2]), 6.0) == 0.0

    def test_hand_example(self):
        got = layer_budget_deviation(np.array([10, 8]), np.array([6, 4]), 12.0)
        assert got == 4.0

    def test_idle_heads_return_budget(self):
        got = layer_budget_deviation(np.zeros(4), np.zeros(4), 5.0)
        assert got == -20.0


class TestUpdateLayerBudget:
    def test_zero_deviation_keeps_budget(self):
        assert update_layer_budget(12.0, 0.0, 0, 4, 2) == 12.0

    def test_hand_example_head_normalized(self):
        # Two remaining layers, two heads: 12 - 4 / (2*2) = 11.
        assert update_layer_budget(12.0, 4.0, 1, 4, 2) == 11.0

    def test_unnormalized_spreads_over_layers_only(self):
        assert update_layer_budget(12.0, 4.0, 1, 4, 2, head_normalize=False) == 10.0

    def test_negative_deviation_raises_budget(self):
        assert update_layer_budget(12.0, -8.0, 1, 4, 2) == 14.0

    def test_result_is_not_clamped(self):
        # plan_budgets applies its own floor, and warns.
        assert update_layer_budget(1.0, 100.0, 0, 2, 1) == -99.0

    def test_last_layer_has_no_update(self):
        with pytest.raises(ParameterError):
            update_layer_budget(12.0, 4.0, 3, 4, 2)


class TestPlanBudgets:
    def test_single_layer_plan_keeps_residual(self, mixed_trace):
        t = generate_synthetic(small_spec(3, layers=1))
        cfg = PolicyConfig(budget_frac=0.25)
        plan = plan_budgets(t, cfg)
        assert plan.layer_budget.tolist() == [6.0]
        want = layer_budget_deviation(plan.need_visual[0], plan.need_text[0], 6.0)
        assert plan.final_residual == want

    def test_symmetric_trace_needs_match_across_heads_and_layers(self):
        """Identical heads get identical counts; with needs equal to the
        budget the deviation repeats across layers."""
        t = make_trace(uniform_rows(10), tile=(3, 2))
        cfg = PolicyConfig(budget_frac=0.9, coverage_threshold=0.9,
                           proxy=ProxyConfig(1))
        plan = plan_budgets(t, cfg)
        assert (plan.need_text == plan.need_text[0, 0]).all()
        assert (plan.need_visual == 0).all()
        assert plan.deviation.tolist() == [0.0, 0.0, 0.0]
        assert plan.layer_budget.tolist() == [9.0, 9.0, 9.0]

    def test_full_budget_allocates_every_token(self, mixed_trace):
        for mode in PolicyMode:
            plan = plan_budgets(mixed_trace, PolicyConfig(budget_frac=1.0, mode=mode))
            n_vis = int(mixed_trace.header.modality_labels.sum())
            assert (plan.alloc_visual == n_vis).all()
            assert (plan.alloc_text == 24 - n_vis).all()
            assert plan.warnings == []

    def test_adaptive_allocation_equals_needs(self, mixed_trace):
        plan = plan_budgets(mixed_trace, PolicyConfig(budget_frac=0.3))
        assert np.array_equal(plan.alloc_visual, plan.need_visual)
        assert np.array_equal(plan.alloc_text, plan.need_text)

    def test_proportional_allocation_respects_budget(self):
        t = generate_synthetic(small_spec(19, prompt_len=40, mix=0.5))
        cfg = PolicyConfig(budget_frac=0.4, mode=PolicyMode.PROPORTIONAL)
        plan = plan_budgets(t, cfg)
        assert plan.warnings == []
        totals = plan.alloc_visual + plan.alloc_text
        for l in range(2):
            assert (totals[l] == round_half_up(plan.layer_budget[l])).all()

    def test_min_keep_floors_allocations(self, mixed_trace):
        cfg = PolicyConfig(budget_frac=0.1, coverage_threshold=0.05,
                           min_keep_per_modality=3)
        plan = plan_budgets(mixed_trace, cfg)
        assert (plan.alloc_visual >= 3).all()
        assert (plan.alloc_text >= 3).all()

    def test_tiny_budget_clamps_to_one_with_warning(self):
        t = generate_synthetic(small_spec(1, prompt_len=4))
        plan = plan_budgets(t, PolicyConfig(budget_frac=0.05))
        assert plan.layer_budget[0] == 1.0
        assert any("clamped up to 1" in w for w in plan.warnings)

    def test_next_layer_budget_clamps_to_floor_with_warning(self):
        t = generate_synthetic(small_spec(7, layers=2, heads=2))
        cfg = PolicyConfig(budget_frac=0.1, coverage_threshold=0.99,
                           min_keep_per_modality=1)
        plan = plan_budgets(t, cfg)
        raw = update_layer_budget(
            float(plan.layer_budget[0]), float(plan.deviation[0]), 0, 2, 2
        )
        assert raw < 2.0
        assert plan.layer_budget[1] == 2.0
        assert f"layer 1: budget {raw:.3f} clamped up to floor 2.000" in plan.warnings

    def test_deviation_feeds_next_layer_budget(self):
        t = generate_synthetic(small_spec(7, layers=3, heads=2))
        cfg = PolicyConfig(budget_frac=0.5, coverage_threshold=0.8)
        plan = plan_budgets(t, cfg)
        for l in range(2):
            want = update_layer_budget(
                float(plan.layer_budget[l]), float(plan.deviation[l]), l, 3, 2
            )
            assert plan.layer_budget[l + 1] == want

    def test_determinism(self, mixed_trace):
        cfg = PolicyConfig(budget_frac=0.3)
        a = plan_budgets(mixed_trace, cfg)
        b = plan_budgets(mixed_trace, cfg)
        assert a.layer_budget.tolist() == b.layer_budget.tolist()
        assert np.array_equal(a.alloc_visual, b.alloc_visual)
        assert np.array_equal(a.alloc_text, b.alloc_text)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 31),
        layers=st.integers(1, 4),
        heads=st.integers(1, 4),
        n=st.integers(8, 24),
        theta=st.floats(0.5, 0.95),
        frac=st.floats(0.5, 0.98),
    )
    def test_conservation_against_rational_oracle(self, seed, layers, heads, n, theta, frac):
        """Total adaptive retention telescopes back to the opening budget."""
        t = generate_synthetic(small_spec(seed, layers=layers, heads=heads,
                                          prompt_len=n, steps=0, mix=0.5,
                                          bias=0.4))
        cfg = PolicyConfig(budget_frac=frac, coverage_threshold=theta)
        plan = plan_budgets(t, cfg)
        assume(not plan.warnings)
        needs = (plan.need_visual + plan.need_text).tolist()
        budgets, deviations = oracles.exact_budget_chain(
            needs, round_half_up(frac * n), heads
        )
        total = plan.total_allocated()
        assert total == layers * heads * budgets[0] + deviations[-1]
        for l in range(layers):
            assert abs(plan.layer_budget[l] - float(budgets[l])) < 1e-9
            assert abs(plan.deviation[l] - float(deviations[l])) < 1e-9


class TestTopByImportance:
    def test_tie_breaks_toward_recent_token(self):
        got = top_by_rank(np.array([0.1, 0.4, 0.4]), np.arange(3), 1)
        assert got.tolist() == [2]

    def test_zero_quota_selects_nothing(self):
        got = top_by_rank(np.array([0.5, 0.5]), np.arange(2), 0)
        assert got.size == 0

    @pytest.mark.parametrize("scale", [0.5, 2.0, 64.0])
    def test_selection_is_scale_invariant(self, scale):
        rng = np.random.default_rng(5)
        scores = rng.random(30)
        cand = np.arange(30)
        a = top_by_rank(scores, cand, 7)
        b = top_by_rank(scores * scale, cand, 7)
        assert np.array_equal(a, b)


class TestBuildMasks:
    def test_full_allocation_keeps_everything(self, mixed_trace):
        cfg = PolicyConfig(budget_frac=1.0)
        plan = plan_budgets(mixed_trace, cfg)
        mask = build_masks(mixed_trace, plan, cfg)
        assert mask.keep.all()
        assert mask.warnings == []

    def test_recency_tie_break_end_to_end(self):
        # Last row ties positions 1 and 2; a single-token allocation keeps 2.
        t = make_trace([[1.0], [0.5, 0.5], [0.2, 0.4, 0.4]])
        cfg = PolicyConfig(budget_frac=0.34, coverage_threshold=0.4,
                           proxy=ProxyConfig(1), pin_proxy_tokens=False)
        plan = plan_budgets(t, cfg)
        assert plan.need_text[0, 0] == 1
        mask = build_masks(t, plan, cfg)
        assert mask.keep[0, 0].tolist() == [False, False, True]

    def test_pinned_proxies_always_kept(self, mixed_trace):
        cfg = PolicyConfig(budget_frac=0.2, proxy=ProxyConfig(4))
        plan = plan_budgets(mixed_trace, cfg)
        mask = build_masks(mixed_trace, plan, cfg)
        assert mask.keep[:, :, -4:].all()

    def test_unpinned_masks_can_drop_proxies(self):
        t = make_trace(uniform_rows(12))
        cfg = PolicyConfig(budget_frac=0.25, coverage_threshold=0.2,
                           pin_proxy_tokens=False)
        plan = plan_budgets(t, cfg)
        mask = build_masks(t, plan, cfg)
        assert not mask.keep[0, 0, -1]

    def test_kept_set_is_exhaustively_optimal(self):
        """Kept values per modality are exactly the top-k multiset."""
        for seed in range(6):
            t = generate_synthetic(small_spec(seed, prompt_len=11, mix=0.5,
                                              bias=(0.3, 0.8)))
            cfg = PolicyConfig(budget_frac=0.5, coverage_threshold=0.7,
                               pin_proxy_tokens=False)
            plan = plan_budgets(t, cfg)
            mask = build_masks(t, plan, cfg)
            from modkv import proxy_importance_matrix

            scores = proxy_importance_matrix(t, cfg.proxy)
            vis = t.header.modality_labels
            for l in range(2):
                for hd in range(2):
                    for want_visual in (True, False):
                        kept = kept_values(scores[l, hd], vis, mask.keep[l, hd], want_visual)
                        pool = scores[l, hd][vis == want_visual]
                        best = oracles.best_subset_mass(pool, kept.size)
                        assert float(kept.sum()) == pytest.approx(best, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), frac=st.floats(0.1, 0.9),
           mode=st.sampled_from(list(PolicyMode)))
    def test_no_discarded_token_outranks_a_kept_one(self, seed, frac, mode):
        t = generate_synthetic(small_spec(seed, prompt_len=20, mix=0.4,
                                          bias=(0.2, 0.7)))
        cfg = PolicyConfig(budget_frac=frac, mode=mode, pin_proxy_tokens=False)
        plan = plan_budgets(t, cfg)
        mask = build_masks(t, plan, cfg)
        from modkv import proxy_importance_matrix

        scores = proxy_importance_matrix(t, cfg.proxy)
        vis = t.header.modality_labels
        for l in range(2):
            for hd in range(2):
                for m in (True, False):
                    sel = vis == m
                    kept = scores[l, hd][sel & mask.keep[l, hd]]
                    dropped = scores[l, hd][sel & ~mask.keep[l, hd]]
                    if kept.size and dropped.size:
                        assert dropped.max() <= kept.min()

    def test_plan_trace_shape_mismatch_rejected(self, mixed_trace):
        cfg = PolicyConfig(budget_frac=0.5)
        plan = plan_budgets(mixed_trace, cfg)
        other = generate_synthetic(small_spec(1, prompt_len=10))
        with pytest.raises(ValidationError):
            build_masks(other, plan, cfg)

    def test_pin_charge_warning_when_allocation_too_small(self):
        t = make_trace(uniform_rows(16), tile=(1, 1))
        cfg = PolicyConfig(budget_frac=0.2, coverage_threshold=0.1,
                           proxy=ProxyConfig(8))
        plan = plan_budgets(t, cfg)
        mask = build_masks(t, plan, cfg)
        assert any("pinned proxy tokens exceed" in w for w in mask.warnings)
        assert mask.keep[0, 0, -8:].all()


class TestPlanMaskSerialization:
    def test_plan_round_trip(self, tmp_path, mixed_trace):
        plan = plan_budgets(mixed_trace, PolicyConfig(budget_frac=0.3))
        p = tmp_path / "plan.json"
        save_plan(plan, p)
        back = load_plan(p)
        assert back.mode == plan.mode
        assert back.layer_budget.tolist() == plan.layer_budget.tolist()
        assert np.array_equal(back.alloc_visual, plan.alloc_visual)
        assert np.array_equal(back.need_text, plan.need_text)
        assert back.warnings == plan.warnings

    def test_mask_round_trip(self, tmp_path, mixed_trace):
        cfg = PolicyConfig(budget_frac=0.3)
        mask = build_masks(mixed_trace, plan_budgets(mixed_trace, cfg), cfg)
        p = tmp_path / "mask.json"
        save_mask(mask, p)
        back = load_mask(p)
        assert back.policy == mask.policy
        assert np.array_equal(back.keep, mask.keep)

    def test_kind_tags_are_checked(self, tmp_path, mixed_trace):
        cfg = PolicyConfig(budget_frac=0.3)
        plan = plan_budgets(mixed_trace, cfg)
        mask = build_masks(mixed_trace, plan, cfg)
        pp, mp = tmp_path / "p.json", tmp_path / "m.json"
        save_plan(plan, pp)
        save_mask(mask, mp)
        with pytest.raises(FormatError):
            load_plan(mp)
        with pytest.raises(FormatError):
            load_mask(pp)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{broken")
        with pytest.raises(FormatError):
            load_plan(p)


class TestPolicyConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(budget_frac=0.0),
        dict(budget_frac=1.5),
        dict(budget_frac=0.5, coverage_threshold=0.0),
        dict(budget_frac=0.5, coverage_threshold=1.2),
        dict(budget_frac=0.5, min_keep_per_modality=-1),
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            PolicyConfig(**kwargs)

    def test_name_tracks_mode(self):
        assert PolicyConfig(budget_frac=0.5).name == "adaptive"
        assert PolicyConfig(budget_frac=0.5, mode=PolicyMode.PROPORTIONAL).name == "proportional"
