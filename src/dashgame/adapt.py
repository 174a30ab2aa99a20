"""Distributed iterative rate adaptation with server-assisted gradients.

Users never see each other's rates.  Instead, each round a user reports its
buffer occupancy; the server, which knows every user's last requested rate
and the export bandwidth, returns a central-difference estimate of the
user's payoff gradient, with the step ``EPSILON``; the user then applies a
multiplicative sub-gradient step.  Fixed points of this iteration are
exactly the stationary points of the static game.

`PayoffServer` is built with every user, in id order 0, 1, ..., so a user's
id is its index into the server's list of last requested rates.  There is
one way to ask it for a gradient, `PayoffServer.gradient(user_id, b_curr)`,
which the event loop and `run_round` call directly; it reads the user's own
rate from that list and writes nothing there.  `note_request` is the only
way to change a rate.  The server checks every value when it arrives: each
user's constants and first rate at construction, each requested rate at
`note_request`, and a query's buffer and the export bandwidth.  So a query
makes O(1) checks and copies nothing; only its two loads are O(N) sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import GameParams, VideoQualityModel, _adjustment_factor

# the server's central-difference step: each payoff gradient moves the
# user's rate by +/- EPSILON
EPSILON = 1e-4

__all__ = [
    "EPSILON",
    "AdaptConfig",
    "UserSession",
    "PayoffServer",
    "update_rate",
    "run_round",
]


@dataclass(frozen=True)
class AdaptConfig:
    """Per-user adaptation constants.

    ``theta`` is the learning rate of the multiplicative update; ``r_max``
    the top of the box, at least ``EPSILON`` and with ``ulp(r_max)`` at most
    ``EPSILON``, so that the server's central difference moves every rate
    in the box; ``r_init`` the cold-start request; ``max_step_fraction``
    caps a single step at that fraction of the current rate (the raw step
    theta*r*gradient can be huge far from equilibrium; the cap is inactive
    near it, where the gradient vanishes).  ``r_min`` must stay positive
    because the multiplicative update cannot leave zero once reached.
    """

    theta: float
    r_max: float
    r_init: float = 0.1
    r_min: float = 0.05
    max_step_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"AdaptConfig.theta must be > 0, got {self.theta!r}")
        # the payoff gradient's central difference moves the rate by EPSILON,
        # so a larger move than the whole box [0, r_max] measures nothing;
        # a move under ulp(r_max) can round away at a rate in the box, and
        # leave both legs at the rate.  This also refuses NaN and inf.
        if not (self.r_max >= EPSILON and math.ulp(self.r_max) <= EPSILON):
            raise ValueError(f"AdaptConfig.r_max must be >= EPSILON = {EPSILON!r} and have"
                             f" ulp(r_max) <= EPSILON, got r_max={self.r_max!r}")
        if not self.r_min > 0:
            raise ValueError(f"AdaptConfig.r_min must be > 0, got {self.r_min!r}")
        if not self.r_min <= self.r_init <= self.r_max:
            raise ValueError(
                "AdaptConfig.r_init must lie in [r_min, r_max], got "
                f"r_min={self.r_min!r} r_init={self.r_init!r} r_max={self.r_max!r}"
            )
        if not self.max_step_fraction > 0:
            raise ValueError("AdaptConfig.max_step_fraction must be > 0 (use inf to disable)")


def update_rate(cfg: AdaptConfig, r: float, gradient: float) -> float:
    """One multiplicative sub-gradient step: r + theta * r * gradient.

    The raw step is clamped to ``max_step_fraction * r`` in magnitude (no
    clamp when that is infinite), then the result to [r_min, r_max].  A zero
    gradient takes no step, even where ``theta * r`` overflows.  A rate that
    is not finite and >= 0 and a NaN or infinite gradient are rejected.
    """
    if not 0.0 <= r < math.inf:
        raise ValueError(f"update_rate r must be finite and >= 0, got {r!r}")
    if not -math.inf < gradient < math.inf:
        raise ValueError(f"update_rate gradient must be finite, got {gradient!r}")
    # theta*r*0.0 is NaN once theta*r overflows; each clamp is written as
    # min and max compare, so it picks the same value they would
    step = cfg.theta * r * gradient if gradient else 0.0
    cap = cfg.max_step_fraction * r
    if cap < math.inf:
        if not step < cap:
            step = cap
        if not step > -cap:
            step = -cap
    r = r + step
    if not r < cfg.r_max:
        r = cfg.r_max
    if not r > cfg.r_min:
        r = cfg.r_min
    return r


@dataclass
class UserSession:
    """One user's adaptation state as seen by the round driver."""

    user_id: int
    model: VideoQualityModel
    cfg: AdaptConfig
    rate: float
    b_curr: float
    b_ref: float


class PayoffServer:
    """Server side of the payoff exchange.

    Built with the game's constants, the current export bandwidth and one
    ``(video, b_ref, initial_rate)`` entry per user, in id order, so
    a user's id is its index into the server's lists and a query looks
    nothing up.  Of each video it keeps ``alpha`` and ``beta``; it also
    keeps every user's last requested rate, which only ``note_request``
    changes.

    Every value is checked when it arrives, and an error names the user and
    the field, so the server only ever holds valid rates and constants and
    a query need not check them again.  ``export_bw`` is a plain attribute
    the caller may update between queries; each query checks it.
    """

    def __init__(
        self,
        params: GameParams,
        export_bw: float,
        users: Sequence[tuple[VideoQualityModel, float, float]],
    ) -> None:
        self.export_bw = export_bw
        self._p, self._T, self._mu, self._omega = (
            params.p, params.segment_duration, params.mu, params.omega)
        self._users: list[tuple[float, float, float]] = []  # alpha, beta, b_ref
        self._rates: list[float] = []
        for user_id, (video, b_ref, initial_rate) in enumerate(users):
            where = f"PayoffServer user {user_id}"
            if not 0.0 <= initial_rate < math.inf:
                raise ValueError(
                    f"{where}: initial_rate must be finite and >= 0, got {initial_rate!r}")
            if not (math.isfinite(b_ref) and b_ref > 0):
                raise ValueError(f"{where}: b_ref must be finite and > 0, got {b_ref!r}")
            self._users.append((video.alpha, video.beta, b_ref))
            self._rates.append(initial_rate)

    def note_request(self, user_id: int, rate: float) -> None:
        """Record the rate a user actually requested its next segment at."""
        if not 0 <= user_id < len(self._rates):
            raise KeyError(f"unknown user id {user_id}")
        if not 0.0 <= rate < math.inf:
            raise ValueError(
                f"PayoffServer.note_request user {user_id}: rate must be finite and >= 0,"
                f" got {rate!r}"
            )
        self._rates[user_id] = rate

    def gradient(self, user_id: int, b_curr: float) -> float:
        """Central-difference payoff gradient of a user at its buffer and last rate.

        The user's last rate is the one the server holds.  Only that rate is
        moved, by +/- ``EPSILON`` (the minus leg clipped at zero), so the
        estimate has O(eps^2) error against the analytic gradient.  Each leg
        is ``utility`` evaluated with the same operations in the same order,
        so the result is bit-identical to differencing two ``utility``
        calls.  Both legs' loads are summed left to right in one pass.
        """
        if not 0 <= user_id < len(self._users):
            raise KeyError(f"unknown user id {user_id}")
        alpha, beta, b_ref = self._users[user_id]
        export_bw = self.export_bw
        if not math.isfinite(b_curr):
            raise ValueError(
                f"payoff query of user {user_id}: b_curr must be finite, got {b_curr!r}"
            )
        if not 0 < export_bw < math.inf:
            raise ValueError(f"PayoffServer.export_bw must be finite and > 0, got {export_bw!r}")
        rates = self._rates
        last_rate = rates[user_id]
        a_f = _adjustment_factor(self._p, b_curr, b_ref)
        r_plus = last_rate + EPSILON
        r_minus = last_rate - EPSILON
        if r_minus < 0.0:
            r_minus = 0.0
        # the loads of both legs share the sum of the rates before the user's
        load_plus = 0.0
        for k in range(user_id):
            load_plus += rates[k]
        load_minus = load_plus + r_minus
        load_plus += r_plus
        for k in range(user_id + 1, len(rates)):
            load_plus += rates[k]
            load_minus += rates[k]
        T, mu, omega = self._T, self._mu, self._omega
        u_plus = alpha * math.log1p(beta * r_plus) + mu * (a_f * T * r_plus - omega * (
            T * (0.5 * r_plus * r_plus + r_plus * (load_plus - r_plus)) / export_bw))
        u_minus = alpha * math.log1p(beta * r_minus) + mu * (a_f * T * r_minus - omega * (
            T * (0.5 * r_minus * r_minus + r_minus * (load_minus - r_minus)) / export_bw))
        # keep the difference symmetric even if the minus leg clipped at zero
        return (u_plus - u_minus) / (r_plus - r_minus)


def run_round(
    sessions: Sequence[UserSession],
    params: GameParams,
    export_bw: float,
) -> list[float]:
    """One adaptation round over all sessions; returns the updated rates.

    Updates are simultaneous: every gradient is computed against the rate
    vector frozen at the round start, so the result is independent of user
    processing order (and matches the Jacobian analysis of the update map).
    The sessions' ``user_id``s must be 0..n-1, in any order; the server
    holds the users in id order, and the rates come back in session order.
    """
    if not sessions:
        raise ValueError("run_round requires at least one session")
    by_id: list = [None] * len(sessions)
    for pos, s in enumerate(sessions):
        uid = s.user_id
        if not (isinstance(uid, int) and 0 <= uid < len(sessions) and by_id[uid] is None):
            raise ValueError(
                f"run_round sessions[{pos}]: user_id must be a distinct id in"
                f" 0..{len(sessions) - 1}, got {uid!r}")
        by_id[uid] = s
    server = PayoffServer(params, export_bw, [(s.model, s.b_ref, s.rate) for s in by_id])
    rates = [update_rate(s.cfg, s.rate, server.gradient(s.user_id, s.b_curr))
             for s in sessions]
    for s, r in zip(sessions, rates):
        s.rate = r
    return rates
