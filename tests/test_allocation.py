"""Rounding tests."""

import pytest

from modkv import ParameterError
from modkv.allocation import round_half_up


class TestRoundHalfUp:
    @pytest.mark.parametrize(
        "x, want",
        [(0.0, 0), (0.4, 0), (0.5, 1), (1.5, 2), (2.4, 2), (2.5, 3), (7.0, 7)],
    )
    def test_values(self, x, want):
        assert round_half_up(x) == want

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            round_half_up(-0.1)
