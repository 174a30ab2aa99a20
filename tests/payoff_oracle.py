"""Stateless server gradient, the oracle for ``PayoffServer.gradient``, and
the ``max``/``min`` form of ``update_rate``, the oracle for its clamps.

The library computes every payoff gradient through ``PayoffServer.gradient``;
this form takes the whole rate vector per call and checks all of its inputs,
then runs the central-difference core the server ran before it read its
constants once and summed both loads in one pass: two ``quality`` calls and
two ``_estimated_buffer_at`` calls over two separate load sums.
"""

import math
from typing import Sequence

from dashgame.adapt import AdaptConfig
from dashgame.model import (
    GameParams,
    VideoQualityModel,
    _check_buffer,
    _check_rates_bw,
    _estimated_buffer_at,
    adjustment_factor,
    quality,
    serial_sum,
)


def _central_difference(
    params: GameParams,
    model: VideoQualityModel,
    export_bw: float,
    rates: list[float],
    i: int,
    epsilon: float,
    a_f: float,
) -> float:
    """Central-difference payoff gradient of user ``i``, on inputs already checked.

    Only coordinate ``i`` is perturbed by +/- epsilon; ``a_f`` is the
    adjustment factor of the buffer the user reported.  The estimate has
    O(eps^2) error against the analytic gradient.  Each leg is ``utility``
    evaluated with the same operations in the same order, so the result is
    bit-identical to differencing two ``utility`` calls.
    Entry ``i`` of ``rates`` holds each perturbed rate while that leg's load
    is summed, and is restored before returning; no list is copied.
    """
    r_i = rates[i]
    r_plus = r_i + epsilon
    r_minus = max(r_i - epsilon, 0.0)
    rates[i] = r_plus
    load_plus = serial_sum(rates)
    rates[i] = r_minus
    load_minus = serial_sum(rates)
    rates[i] = r_i
    u_plus = quality(model, r_plus) + params.mu * _estimated_buffer_at(
        params, r_plus, load_plus, a_f, export_bw
    )
    u_minus = quality(model, r_minus) + params.mu * _estimated_buffer_at(
        params, r_minus, load_minus, a_f, export_bw
    )
    # keep the difference symmetric even if the minus leg clipped at zero
    return (u_plus - u_minus) / (r_plus - r_minus)


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
    _check_buffer(b_curr_i, b_ref)
    rates = list(all_last_rates)
    _check_rates_bw(rates, export_bw)
    a_f = adjustment_factor(params.p, b_curr_i, b_ref)
    return _central_difference(params, model, export_bw, rates, i, epsilon, a_f)


def oracle_update_rate(cfg: AdaptConfig, r: float, gradient: float) -> float:
    """``update_rate`` as it was written with ``max``, ``min`` and ``isfinite``,
    on a rate and gradient already checked."""
    step = cfg.theta * r * gradient
    cap = cfg.max_step_fraction * r
    if math.isfinite(cap):
        step = max(-cap, min(cap, step))
    return max(cfg.r_min, min(cfg.r_max, r + step))
