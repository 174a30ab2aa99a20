"""Stateless server gradient, the oracle for ``PayoffServer.gradient``, and
the ``max``/``min`` form of ``update_rate``, the oracle for its clamps.

The library computes every payoff gradient through ``PayoffServer.gradient``,
which reads its constants once and sums both legs' loads in one pass.  The
oracle is the formula that server inlines: the difference of two full
``utility`` calls over the whole rate vector.
"""

import math
from typing import Sequence

from dashgame.adapt import EPSILON, AdaptConfig
from dashgame.model import BufferView, GameParams, VideoQualityModel, utility


def payoff_gradient_server(
    params: GameParams,
    model: VideoQualityModel,
    export_bw: float,
    all_last_rates: Sequence[float],
    i: int,
    b_curr_i: float,
    b_ref: float,
) -> float:
    """Central-difference payoff gradient the server computes for user ``i``.

    Only rate ``i`` moves, by +/- EPSILON with the minus leg clipped at zero,
    and the difference of the two utilities is divided by the span between
    the legs, so it stays symmetric even where the minus leg clipped.
    """
    buf = BufferView(b_curr=b_curr_i, b_ref=b_ref)
    plus, minus = list(all_last_rates), list(all_last_rates)
    plus[i] = plus[i] + EPSILON
    minus[i] = max(minus[i] - EPSILON, 0.0)
    return (utility(params, model, i, plus, buf, export_bw)
            - utility(params, model, i, minus, buf, export_bw)) / (plus[i] - minus[i])


def oracle_update_rate(cfg: AdaptConfig, r: float, gradient: float) -> float:
    """``update_rate`` as it was written with ``max``, ``min`` and ``isfinite``,
    on a rate and gradient already checked."""
    step = cfg.theta * r * gradient
    cap = cfg.max_step_fraction * r
    if math.isfinite(cap):
        step = max(-cap, min(cap, step))
    return max(cfg.r_min, min(cfg.r_max, r + step))
