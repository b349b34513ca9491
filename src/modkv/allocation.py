"""Deterministic rounding, kept separate so the budget planner, the
baselines and the generator share one implementation of it."""

from __future__ import annotations

import math

from .errors import ParameterError


def round_half_up(x: float) -> int:
    """Round a non-negative real to the nearest integer, halves up.

    Python's built-in round() goes to even, which makes budgets depend on
    parity; half-up keeps budget arithmetic predictable.
    """
    if x < 0:
        raise ParameterError(f"round_half_up expects a non-negative value, got {x}")
    return int(math.floor(x + 0.5))
