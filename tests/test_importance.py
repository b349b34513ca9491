"""Importance scoring, modality preference, and sparsity-curve tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import make_trace, small_spec, uniform_rows
from modkv import (
    ParameterError,
    ProxyConfig,
    TraceTables,
    ValidationError,
    generate_synthetic,
    head_text_share,
    proxy_importance_matrix,
    sparsity_curve,
)

THREE_ROWS = [[1.0], [0.5, 0.5], [0.2, 0.3, 0.5]]


class TestProxyImportance:
    def test_single_proxy_row_is_the_row_itself(self):
        t = make_trace(THREE_ROWS, labels="ttt")
        psi = proxy_importance_matrix(t, ProxyConfig(1))[0, 0]
        assert psi == pytest.approx([0.2, 0.3, 0.5], abs=1e-7)

    def test_all_rows_as_proxies_column_sums(self):
        t = make_trace(THREE_ROWS, labels="ttt")
        psi = proxy_importance_matrix(t, ProxyConfig(3))[0, 0]
        assert psi == pytest.approx([1.7, 0.8, 0.5], abs=1e-6)
        assert psi.tolist() == oracles.brute_importance(t, 0, 0, 3)

    def test_proxy_count_clamps_to_prompt_length(self):
        t = make_trace(THREE_ROWS, labels="ttt")
        wide = proxy_importance_matrix(t, ProxyConfig(50))
        assert np.array_equal(wide, proxy_importance_matrix(t, ProxyConfig(3)))

    def test_uniform_causal_rows_decay_with_position(self):
        t = make_trace(uniform_rows(6))
        psi = proxy_importance_matrix(t)[0, 0]
        assert all(a > b for a, b in zip(psi, psi[1:]))

    def test_bounds_and_proxy_locality(self, mixed_trace):
        p = ProxyConfig(3)
        before = proxy_importance_matrix(mixed_trace, p)
        assert (before >= 0).all()
        assert (before <= 3 + 1e-6).all()
        # Rewriting a row outside the proxy set must not move any score.
        mixed_trace.prefill[:, :, 1, 0] = 0.25
        mixed_trace.prefill[:, :, 1, 1] = 0.75
        after = proxy_importance_matrix(mixed_trace, p)
        assert np.array_equal(before, after)


class TestPoolMass:
    """Modality preference: each head's importance mass split into its
    visual and its text pool."""

    def test_hand_example_partitions_mass(self):
        t = make_trace(THREE_ROWS, labels="tvv")
        mass_v, mass_t = TraceTables(t).pool_mass(3)
        assert (mass_v.shape, mass_t.shape) == ((1, 1), (1, 1))
        assert mass_v[0, 0] == pytest.approx(1.3, abs=1e-6)
        assert mass_t[0, 0] == pytest.approx(1.7, abs=1e-6)

    def test_all_text_means_zero_visual_weight(self):
        t = make_trace([[1.0], [0.4, 0.6]], labels="tt")
        mass_v, mass_t = TraceTables(t).pool_mass(1)
        assert mass_v[0, 0] == 0.0
        assert mass_t[0, 0] == pytest.approx(1.0)

    @given(
        values=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=12),
        seed=st.integers(0, 99),
    )
    def test_permuting_tokens_with_labels_changes_nothing(self, values, seed):
        # With one proxy row, importance is the last prompt row, which may
        # put any score on any position.
        rng = np.random.default_rng(seed)
        n = len(values)
        last = np.array(values, dtype=np.float32)
        labels = rng.random(n) < 0.5
        perm = rng.permutation(n)
        a = TraceTables(make_trace(uniform_rows(n - 1) + [last], labels, validate=False))
        b = TraceTables(
            make_trace(uniform_rows(n - 1) + [last[perm]], labels[perm], validate=False)
        )
        for got, want in zip(a.pool_mass(1), b.pool_mass(1)):
            assert got[0, 0] == pytest.approx(want[0, 0], abs=1e-12)

    def test_partition_identity_on_generated_traces(self):
        for seed in range(5):
            t = generate_synthetic(small_spec(seed, mix=0.4, bias=(0.3, 0.7)))
            mass_v, mass_t = TraceTables(t).pool_mass(ProxyConfig().proxy_count)
            total = proxy_importance_matrix(t).sum(axis=-1)
            assert mass_v + mass_t == pytest.approx(total, abs=1e-9)


def text_share(trace, layer, head):
    """`head_text_share` of one head of a trace in memory."""
    return head_text_share(trace.head_rows(layer, head), trace.header.text_mask, layer, head)


class TestHeadTextShare:
    def test_all_text_share_is_one(self, text_only_trace):
        for l in range(2):
            for hd in range(2):
                assert text_share(text_only_trace, l, hd) == 1.0

    def test_visual_leaning_head_leaves_small_text_share(self):
        spec = small_spec(17, layers=1, heads=1, prompt_len=600, steps=0,
                          skew=1.0, mix=0.5, bias=0.8)
        t = generate_synthetic(spec)
        assert text_share(t, 0, 0) == pytest.approx(0.2, abs=0.05)

    def test_share_ignores_decode_steps(self):
        bare = generate_synthetic(small_spec(23, steps=0))
        talky = generate_synthetic(small_spec(23, steps=3))
        assert text_share(bare, 1, 1) == text_share(talky, 1, 1)

    def test_float32_rows_and_float64_block_give_the_same_bits(self, mixed_trace):
        rows = mixed_trace.head_rows(1, 0)
        mask = mixed_trace.header.text_mask
        assert head_text_share(rows, mask, 1, 0).hex() == head_text_share(
            rows.astype(np.float64), mask, 1, 0).hex()

    def test_zero_mass_head_rejected(self):
        t = make_trace([[1.0], [0.5, 0.5]], labels="tt", tile=(2, 3), validate=False)
        t.prefill[...] = 0.0
        with pytest.raises(ValidationError, match=r"head \(1, 2\) carries no attention mass"):
            text_share(t, 1, 2)

    def test_rows_short_of_the_whole_block_rejected(self, mixed_trace):
        """Rows that are not the head's whole (n, n) block, such as the
        proxy rows a partial load keeps, would give a share of those rows
        only."""
        mask = mixed_trace.header.text_mask
        for rows in (mixed_trace.head_rows(1, 0, 16), mixed_trace.head_rows(1, 0)[:, :-1]):
            with pytest.raises(ParameterError, match=r"head \(1, 0\): expected its whole"):
                head_text_share(rows, mask, 1, 0)


class TestSparsityCurve:
    def test_full_budget_captures_everything(self, mixed_trace):
        rows = sparsity_curve(mixed_trace, [1.0])
        assert {share for _, _, share in rows} == {1.0}

    def test_uniform_scores_capture_share_equal_to_budget(self):
        t = make_trace(uniform_rows(10))
        rows = sparsity_curve(t, [0.2], proxy=ProxyConfig(1))
        by_group = {g: s for _, g, s in rows}
        assert by_group["all"] == 0.2
        assert by_group["text"] == 0.2
        assert by_group["visual"] == 1.0  # empty group: nothing left to capture

    def test_zipf_trace_matches_exact_partial_sums(self):
        spec = small_spec(29, layers=1, heads=1, prompt_len=1000, steps=0,
                          skew=1.2, mix=0.0, bias=0.0)
        t = generate_synthetic(spec)
        psi = proxy_importance_matrix(t)[0, 0]
        got = {g: s for _, g, s in sparsity_curve(t, [0.2])}
        want = float(oracles.exact_topk_share(psi, 0.2))
        assert abs(got["all"] - want) <= 1e-9

    def test_curve_is_monotone_in_budget(self, mixed_trace):
        fracs = [0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0]
        rows = sparsity_curve(mixed_trace, fracs)
        for group in ("all", "text", "visual"):
            shares = [s for f, g, s in rows if g == group]
            assert all(a <= b for a, b in zip(shares, shares[1:]))

    def test_rows_follow_input_fraction_order(self, mixed_trace):
        rows = sparsity_curve(mixed_trace, [0.6, 0.1])
        assert [f for f, _, _ in rows] == [0.6, 0.6, 0.6, 0.1, 0.1, 0.1]

    @pytest.mark.parametrize("frac", [0.0, -0.5, 1.5])
    def test_bad_fractions_rejected(self, mixed_trace, frac):
        with pytest.raises(ParameterError):
            sparsity_curve(mixed_trace, [frac])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 20), p=st.integers(1, 10))
def test_importance_always_matches_brute_force(seed, n, p):
    t = generate_synthetic(small_spec(seed, layers=1, heads=2, prompt_len=n,
                                      steps=0, mix=0.5, bias=(0.2, 0.8)))
    cfg = ProxyConfig(p)
    mat = proxy_importance_matrix(t, cfg)
    for hd in range(2):
        assert mat[0, hd].tolist() == oracles.brute_importance(t, 0, hd, p)


def test_proxy_config_rejects_nonpositive_counts():
    with pytest.raises(ParameterError):
        ProxyConfig(0)
