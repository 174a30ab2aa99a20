"""Stateless server gradient, the oracle for ``PayoffServer`` replies.

The library computes every payoff gradient through ``PayoffServer``; this
form takes the whole rate vector per call and checks all of its inputs, then
runs the same central-difference core.
"""

import math
from typing import Sequence

from dashgame.adapt import _central_difference
from dashgame.model import (
    GameParams,
    VideoQualityModel,
    _check_buffer,
    _check_rates_bw,
    adjustment_factor,
)


def payoff_gradient_server(
    params: GameParams,
    model: VideoQualityModel,
    export_bw: float,
    all_last_rates: Sequence[float],
    i: int,
    b_curr_i: float,
    epsilon: float,
    b_ref: float,
) -> float:
    """Central-difference payoff gradient the server computes for user ``i``."""
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    if not 0 <= i < len(all_last_rates):
        raise IndexError(f"user index {i} out of range for {len(all_last_rates)} rates")
    _check_buffer(b_curr_i, b_ref, 0.0)
    rates = list(all_last_rates)
    _check_rates_bw(rates, export_bw)
    a_f = adjustment_factor(params.p, b_curr_i, b_ref)
    return _central_difference(params, model, export_bw, rates, i, epsilon, a_f)
