"""Distributed iterative rate adaptation with server-assisted gradients.

Users never see each other's rates.  Instead, each round a user reports its
buffer occupancy and last requested rate; the server, which knows every
user's last rate and the export bandwidth, returns a central-difference
estimate of the user's payoff gradient; the user then applies a
multiplicative sub-gradient step.  Fixed points of this iteration are
exactly the stationary points of the static game.

The message types (`PayoffQuery`/`PayoffReply`) are immutable named tuples;
the event loop hands each query to `PayoffServer.handle_query` directly.

`PayoffServer` checks every value when it arrives: the constants and first
rate at `register`, each requested rate at `note_request`, and a query's own
buffer, rate and the export bandwidth.  So a query makes O(1) checks and
copies nothing; only its two loads are O(N) sums.  `payoff_gradient_server`,
the stateless form, checks all of its inputs and then runs the same
central-difference core.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .model import (
    GameParams,
    VideoQualityModel,
    _check_buffer,
    _check_rates_bw,
    _estimated_buffer_at,
    adjustment_factor,
    quality,
    serial_sum,
)

__all__ = [
    "AdaptConfig",
    "PayoffQuery",
    "PayoffReply",
    "UserSession",
    "PayoffServer",
    "payoff_gradient_server",
    "update_rate",
    "run_round",
]


@dataclass(frozen=True)
class AdaptConfig:
    """Per-user adaptation constants.

    ``theta`` is the learning rate of the multiplicative update; ``epsilon``
    the server's perturbation for the central difference; ``r_init`` the
    cold-start request; ``max_step_fraction`` caps a single step at that
    fraction of the current rate (the raw step theta*r*gradient can be huge
    far from equilibrium; the cap is inactive near it, where the gradient
    vanishes).  ``r_min`` must stay positive because the multiplicative
    update cannot leave zero once reached.
    """

    theta: float
    r_max: float
    epsilon: float = 1e-4
    r_init: float = 0.1
    r_min: float = 0.05
    max_step_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not (math.isfinite(self.theta) and self.theta > 0):
            raise ValueError(f"AdaptConfig.theta must be > 0, got {self.theta!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"AdaptConfig.epsilon must be > 0, got {self.epsilon!r}")
        if not 0 < self.r_min <= self.r_init <= self.r_max:
            raise ValueError(
                "AdaptConfig requires 0 < r_min <= r_init <= r_max, got "
                f"r_min={self.r_min!r} r_init={self.r_init!r} r_max={self.r_max!r}"
            )
        if self.max_step_fraction <= 0:
            raise ValueError("AdaptConfig.max_step_fraction must be > 0 (use inf to disable)")


class PayoffQuery(NamedTuple):
    """Client -> server: buffer occupancy and last requested rate."""

    user_id: int
    b_curr: float
    last_rate: float


class PayoffReply(NamedTuple):
    """Server -> client: estimated payoff gradient at the current rates."""

    user_id: int
    gradient_estimate: float


def payoff_gradient_server(
    params: GameParams,
    model: VideoQualityModel,
    export_bw: float,
    all_last_rates: Sequence[float],
    i: int,
    b_curr_i: float,
    epsilon: float,
    b_ref: float,
    b_0: float = 0.0,
) -> float:
    """Central-difference payoff gradient the server computes for user ``i``.

    Only coordinate ``i`` is perturbed by +/- epsilon; the adjustment factor
    uses the buffer occupancy the user reported.  The estimate has O(eps^2)
    error against the analytic gradient.  The inputs are checked and the
    adjustment factor computed once; each leg is ``utility`` evaluated with
    the same operations in the same order, so the result is bit-identical
    to differencing two ``utility`` calls.
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    if not 0 <= i < len(all_last_rates):
        raise IndexError(f"user index {i} out of range for {len(all_last_rates)} rates")
    _check_buffer(b_curr_i, b_ref, b_0)
    rates = list(all_last_rates)
    _check_rates_bw(rates, export_bw)
    a_f = adjustment_factor(params.p, b_curr_i, b_ref)
    return _central_difference(params, model, export_bw, rates, i, epsilon, a_f, b_0)


def _central_difference(
    params: GameParams,
    model: VideoQualityModel,
    export_bw: float,
    rates: list[float],
    i: int,
    epsilon: float,
    a_f: float,
    b_0: float,
) -> float:
    """The core of :func:`payoff_gradient_server`, on inputs already checked.

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
        params, r_plus, load_plus, a_f, b_0, export_bw
    )
    u_minus = quality(model, r_minus) + params.mu * _estimated_buffer_at(
        params, r_minus, load_minus, a_f, b_0, export_bw
    )
    # keep the difference symmetric even if the minus leg clipped at zero
    return (u_plus - u_minus) / (r_plus - r_minus)


def update_rate(cfg: AdaptConfig, r: float, gradient: float) -> float:
    """One multiplicative sub-gradient step: r + theta * r * gradient.

    The raw step is clamped to ``max_step_fraction * r`` in magnitude, then
    the result to [r_min, r_max].  A NaN or infinite gradient is rejected.
    """
    if not math.isfinite(gradient):
        raise ValueError(f"update_rate gradient must be finite, got {gradient!r}")
    step = cfg.theta * r * gradient
    cap = cfg.max_step_fraction * r
    if math.isfinite(cap):
        step = max(-cap, min(cap, step))
    return max(cfg.r_min, min(cfg.r_max, r + step))


@dataclass
class UserSession:
    """One user's adaptation state as seen by the round driver."""

    user_id: int
    model: VideoQualityModel
    cfg: AdaptConfig
    rate: float
    b_curr: float
    b_ref: float
    b_0: float = 0.0

    def query(self) -> PayoffQuery:
        return PayoffQuery(user_id=self.user_id, b_curr=self.b_curr, last_rate=self.rate)


class _Registered:
    """One user's entry in the server registry."""

    __slots__ = ("model", "epsilon", "b_ref", "b_0", "b_curr", "pos")


def _is_rate(value: float) -> bool:
    """True for a finite rate >= 0 (False for NaN)."""
    return 0.0 <= value < math.inf


class PayoffServer:
    """Server side of the payoff exchange.

    Holds the utility constants, the current export bandwidth and one
    registry entry per user: its video model, adaptation epsilon, buffer
    constants, last reported buffer and its position in the list of last
    requested rates, which is kept in user-id order.  Positions are set at
    ``register``, so a query looks nothing up but its own entry.

    Every value is checked when it arrives, and an error names the user and
    the field, so the registry only ever holds valid rates and constants and
    a query need not check them again.  ``export_bw`` is a plain attribute
    the caller may update between queries; each query checks it.
    """

    def __init__(self, params: GameParams, export_bw: float) -> None:
        self.params = params
        self.export_bw = export_bw
        self._users: dict[int, _Registered] = {}
        self._rates: list[float] = []

    def register(
        self,
        user_id: int,
        model: VideoQualityModel,
        b_ref: float,
        initial_rate: float,
        initial_b_curr: float,
        epsilon: float = 1e-4,
        b_0: float = 0.0,
    ) -> None:
        where = f"PayoffServer.register user {user_id}"
        if not _is_rate(initial_rate):
            raise ValueError(f"{where}: initial_rate must be finite and >= 0, got {initial_rate!r}")
        if not math.isfinite(initial_b_curr):
            raise ValueError(f"{where}: initial_b_curr must be finite, got {initial_b_curr!r}")
        if not (math.isfinite(epsilon) and epsilon > 0):
            raise ValueError(f"{where}: epsilon must be finite and > 0, got {epsilon!r}")
        if not (math.isfinite(b_ref) and b_ref > 0):
            raise ValueError(f"{where}: b_ref must be finite and > 0, got {b_ref!r}")
        if not math.isfinite(b_0):
            raise ValueError(f"{where}: b_0 must be finite, got {b_0!r}")
        entry = self._users.get(user_id)
        if entry is None:
            ids = sorted(self._users)
            pos = bisect_left(ids, user_id)
            self._rates.insert(pos, initial_rate)
            for later in ids[pos:]:
                self._users[later].pos += 1
            entry = self._users[user_id] = _Registered()
            entry.pos = pos
        else:
            self._rates[entry.pos] = initial_rate
        entry.model = model
        entry.epsilon = epsilon
        entry.b_ref = b_ref
        entry.b_0 = b_0
        entry.b_curr = initial_b_curr

    @property
    def user_ids(self) -> list[int]:
        return sorted(self._users)

    def _entry(self, user_id: int) -> _Registered:
        try:
            return self._users[user_id]
        except KeyError:
            raise KeyError(f"unknown user id {user_id}") from None

    def note_request(self, user_id: int, rate: float) -> None:
        """Record the rate a user actually requested its next segment at."""
        entry = self._entry(user_id)
        if not _is_rate(rate):
            raise ValueError(
                f"PayoffServer.note_request user {user_id}: rate must be finite and >= 0,"
                f" got {rate!r}"
            )
        self._rates[entry.pos] = rate

    def handle_query(self, query: PayoffQuery) -> PayoffReply:
        user_id, b_curr, last_rate = query
        entry = self._entry(user_id)
        export_bw = self.export_bw
        if not math.isfinite(b_curr):
            raise ValueError(
                f"payoff query of user {user_id}: b_curr must be finite, got {b_curr!r}"
            )
        if not _is_rate(last_rate):
            raise ValueError(
                f"payoff query of user {user_id}: last_rate must be finite and >= 0,"
                f" got {last_rate!r}"
            )
        if not 0 < export_bw < math.inf:
            raise ValueError(f"PayoffServer.export_bw must be finite and > 0, got {export_bw!r}")
        entry.b_curr = b_curr
        self._rates[entry.pos] = last_rate
        a_f = adjustment_factor(self.params.p, b_curr, entry.b_ref)
        grad = _central_difference(
            self.params, entry.model, export_bw, self._rates, entry.pos, entry.epsilon, a_f,
            entry.b_0,
        )
        return PayoffReply(user_id, grad)


def run_round(
    sessions: Sequence[UserSession],
    params: GameParams,
    export_bw: float,
) -> list[float]:
    """One adaptation round over all sessions; returns the updated rates.

    Updates are simultaneous: every gradient is computed against the rate
    vector frozen at the round start, so the result is independent of user
    processing order (and matches the Jacobian analysis of the update map).
    """
    if not sessions:
        raise ValueError("run_round requires at least one session")
    snapshot = [s.rate for s in sessions]
    grads = [
        payoff_gradient_server(
            params, s.model, export_bw, snapshot, i, s.b_curr, s.cfg.epsilon, s.b_ref, s.b_0
        )
        for i, s in enumerate(sessions)
    ]
    rates = [update_rate(s.cfg, r, g) for s, r, g in zip(sessions, snapshot, grads)]
    for s, r in zip(sessions, rates):
        s.rate = r
    return rates

