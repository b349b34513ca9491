"""Tests of the scalar reference splits that tests/oracles.py keeps for the
vectorised planner to be checked against."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from modkv import ParameterError
from oracles import largest_remainder_split, preference_budget_split


class TestLargestRemainderSplit:
    def test_equal_weights_split_evenly(self):
        assert largest_remainder_split([1.0, 1.0], 8).tolist() == [4, 4]

    def test_three_to_one_ratio(self):
        assert largest_remainder_split([3.0, 1.0], 8).tolist() == [6, 2]

    def test_zero_weight_gets_nothing(self):
        assert largest_remainder_split([0.0, 5.0], 10).tolist() == [0, 10]

    def test_remainder_tie_prefers_lower_index(self):
        assert largest_remainder_split([1.0, 1.0], 3).tolist() == [2, 1]

    def test_remainder_tie_prefers_larger_weight(self):
        # Quotas 2.5 and 0.5 tie on the fractional part; the heavier bucket wins.
        assert largest_remainder_split([5.0, 1.0], 3).tolist() == [3, 0]

    def test_classic_seat_apportionment(self):
        got = largest_remainder_split([47.0, 33.0, 20.0], 10)
        assert got.tolist() == [5, 3, 2]

    @given(
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
        total=st.integers(0, 200),
    )
    def test_total_is_always_exact(self, weights, total):
        if sum(weights) == 0.0:
            weights = [w + 1.0 for w in weights]
        got = largest_remainder_split(weights, total)
        assert int(got.sum()) == total
        assert (got >= 0).all()

    @given(
        weights=st.lists(st.floats(0.1, 50.0), min_size=2, max_size=6),
        total=st.integers(1, 100),
    )
    def test_deterministic(self, weights, total):
        a = largest_remainder_split(weights, total)
        b = largest_remainder_split(list(weights), total)
        assert np.array_equal(a, b)


class TestPreferenceBudgetSplit:
    def test_equal_weights_halve_the_budget(self):
        assert preference_budget_split(2.0, 2.0, 8.0, 4, 4) == (4.0, 4.0)

    def test_three_to_one_weights(self):
        assert preference_budget_split(3.0, 1.0, 8.0, 10, 10) == (6.0, 2.0)

    def test_empty_preference_gives_whole_budget_to_other_side(self):
        assert preference_budget_split(0.0, 5.0, 10.0, 4, 4) == (0.0, 10.0)

    def test_no_mass_falls_back_to_token_counts(self):
        v, t = preference_budget_split(0.0, 0.0, 10.0, 1, 3)
        assert (v, t) == (2.5, 7.5)

    def test_no_mass_no_tokens_rejected(self):
        with pytest.raises(ParameterError):
            preference_budget_split(0.0, 0.0, 10.0, 0, 0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            preference_budget_split(-1.0, 2.0, 8.0, 4, 4)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 256.0])
    def test_ratio_is_scale_invariant(self, scale):
        a = preference_budget_split(1.3, 1.7, 12.0, 5, 5)
        b = preference_budget_split(1.3 * scale, 1.7 * scale, 12.0, 5, 5)
        assert a == b
