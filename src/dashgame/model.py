"""Per-user QoE utility model for multi-user DASH rate adaptation.

A user's payoff combines a logarithmic rate-quality curve with an estimated
playback-buffer term.  The buffer term rewards accumulation (scaled by a
sigmoid adjustment factor of the current buffer deviation from a reference
level) and penalises the shared system load that all users' requested rates
place on the server's export bandwidth.

All functions here are pure; rates are real-valued Mbps and buffers are
seconds.  Analytic first and second derivatives in a user's own rate are
provided alongside the utility itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GameParams",
    "VideoQualityModel",
    "BufferView",
    "log_quality",
    "quality",
    "adjustment_factor",
    "avg_buffer_variation",
    "estimated_buffer",
    "utility",
    "utility_gradient",
    "UtilityGradients",
    "utility_hessian_entries",
    "utility_hessian",
]


@dataclass(frozen=True)
class GameParams:
    """Scalar constants of the utility model.

    Parameters
    ----------
    mu : float
        Weight of the estimated-buffer term (dimensionless, > 0).
    nu : float
        Weight of the shared load penalty (dimensionless, > 0).  The load
        coefficient ``omega`` is defined implicitly as ``nu / mu``.
    p : float
        Buffer sensitivity of the adjustment factor (1/seconds, > 0).
    segment_duration : float
        Video segment length in seconds (> 0).
    """

    mu: float
    nu: float
    p: float
    segment_duration: float

    def __post_init__(self) -> None:
        for name in ("mu", "nu", "p", "segment_duration"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"GameParams.{name} must be finite and > 0, got {value!r}")

    @property
    def omega(self) -> float:
        """Load coefficient, exactly nu / mu."""
        return self.nu / self.mu


@dataclass(frozen=True)
class VideoQualityModel:
    """Logarithmic rate-quality curve plus the video's bitrate ladder.

    ``quality = alpha * ln(1 + beta * rate)``, with ``alpha`` in opaque
    quality units and ``beta`` in 1/Mbps.  The ladder is the ascending list
    of encoded bitrates available for this video.
    """

    alpha: float
    beta: float
    ladder: tuple[float, ...]
    metric_label: str = ""

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"VideoQualityModel.alpha must be > 0, got {self.alpha!r}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"VideoQualityModel.beta must be > 0, got {self.beta!r}")
        ladder = tuple(float(r) for r in self.ladder)
        if not ladder:
            raise ValueError("VideoQualityModel.ladder must be nonempty")
        if any(r <= 0 for r in ladder):
            raise ValueError("VideoQualityModel.ladder entries must be > 0")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("VideoQualityModel.ladder must be strictly increasing")
        object.__setattr__(self, "ladder", ladder)


@dataclass(frozen=True)
class BufferView:
    """Snapshot of one user's buffer state.

    ``b_curr`` is the occupancy before the next segment download, ``b_ref``
    the reference level the adaptation steers toward, and ``b_0`` the
    initial average buffer constant of the estimated-buffer integral.
    """

    b_curr: float
    b_ref: float
    b_0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("b_curr", "b_ref", "b_0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"BufferView.{name} must be finite")
        if self.b_ref <= 0:
            raise ValueError(f"BufferView.b_ref must be > 0, got {self.b_ref!r}")


def log_quality(alpha: float, beta: float, rate: float) -> float:
    """Quality of a segment encoded at ``rate`` Mbps: alpha * ln(1 + beta*rate).

    Accepts the degenerate beta = 0 (flat zero quality); ``rate`` must be
    nonnegative.
    """
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate!r}")
    return alpha * math.log1p(beta * rate)


def quality(model: VideoQualityModel, rate: float) -> float:
    """Quality of ``model``'s video at the given bitrate (Mbps)."""
    return log_quality(model.alpha, model.beta, rate)


def adjustment_factor(p: float, b_curr: float, b_ref: float) -> float:
    """Sigmoid buffer-deviation factor in (0, 2), exactly 1 at b_curr == b_ref.

    Computed as ``2 / (1 + exp(-p * (b_curr - b_ref)))``, which never
    overflows for large positive deviations; > 1 means aggressive requesting,
    < 1 defensive.
    """
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"p must be finite and > 0, got {p!r}")
    x = p * (b_curr - b_ref)
    if x >= 0:
        value = 2.0 / (1.0 + math.exp(-x))
    else:
        # exp(x) <= 1 here, no overflow
        e = math.exp(x)
        value = 2.0 * e / (1.0 + e)
    # keep the open interval even when the exponential saturates in floats
    if value >= 2.0:
        return math.nextafter(2.0, 0.0)
    if value <= 0.0:
        return math.nextafter(0.0, 1.0)
    return value


def _check_rates_bw(rates: Sequence[float], export_bw: float) -> None:
    if not (math.isfinite(export_bw) and export_bw > 0):
        raise ValueError(f"export_bw must be finite and > 0, got {export_bw!r}")
    for r in rates:
        if r < 0 or not math.isfinite(r):
            raise ValueError(f"rates must be finite and >= 0, got {r!r}")


def avg_buffer_variation(params: GameParams, rates: Sequence[float], export_bw: float) -> float:
    """Average per-segment buffer change across all users (seconds).

    ``T - omega * T * sum(rates) / export_bw`` with ``omega = nu / mu``;
    positive when the system is underloaded, negative when overloaded.
    """
    _check_rates_bw(rates, export_bw)
    T = params.segment_duration
    return T - params.omega * T * (sum(rates) / export_bw)


def estimated_buffer(
    params: GameParams,
    i: int,
    rates: Sequence[float],
    buf: BufferView,
    export_bw: float,
) -> float:
    """Estimated buffer of user ``i`` after downloading at ``rates[i]``.

    The accumulation term ``A_f * T * r_i`` is scaled by the adjustment
    factor of user ``i``'s buffer deviation; the system penalty
    ``omega * T * (r_i^2 / 2 + r_i * sum_others) / export_bw`` accounts for
    the shared bottleneck; ``b_0`` shifts the integration constant.
    """
    _check_rates_bw(rates, export_bw)
    if not 0 <= i < len(rates):
        raise IndexError(f"user index {i} out of range for {len(rates)} rates")
    T = params.segment_duration
    r_i = rates[i]
    a_f = adjustment_factor(params.p, buf.b_curr, buf.b_ref)
    others = sum(rates) - r_i
    penalty = T * (0.5 * r_i * r_i + r_i * others) / export_bw
    return a_f * T * r_i - params.omega * penalty + buf.b_0


def utility(
    params: GameParams,
    model: VideoQualityModel,
    i: int,
    rates: Sequence[float],
    buf: BufferView,
    export_bw: float,
) -> float:
    """Payoff of user ``i``: quality(r_i) + mu * estimated_buffer(i)."""
    return quality(model, rates[i]) + params.mu * estimated_buffer(params, i, rates, buf, export_bw)


def utility_gradient(
    params: GameParams,
    model: VideoQualityModel,
    i: int,
    rates: Sequence[float],
    buf: BufferView,
    export_bw: float,
) -> float:
    """d(utility_i)/d(r_i), analytic.

    ``alpha*beta/(1 + beta*r_i) + mu*T*A_f - nu*T*sum(rates)/export_bw``;
    the load term sums over all users including ``i`` itself.
    """
    _check_rates_bw(rates, export_bw)
    if not 0 <= i < len(rates):
        raise IndexError(f"user index {i} out of range for {len(rates)} rates")
    T = params.segment_duration
    a_f = adjustment_factor(params.p, buf.b_curr, buf.b_ref)
    quality_term = model.alpha * model.beta / (1.0 + model.beta * rates[i])
    return quality_term + params.mu * T * a_f - params.nu * T * (sum(rates) / export_bw)


class UtilityGradients:
    """Vectorised :func:`utility_gradient` for all N users of one game.

    The per-user coefficients are computed once, at construction:
    ``z1 = alpha*beta``, ``z2 = mu*T*A_f`` and the load slope
    ``z3 = nu*T/export_bw``, which is the same for every user.  Calling the
    object with a rate vector validates the rates, sums the load once and
    returns every user's own-rate gradient ``z1/(1 + beta*r_i) + z2 -
    z3*sum(rates)``, so one evaluation costs O(N).
    """

    def __init__(
        self,
        params: GameParams,
        models: Sequence[VideoQualityModel],
        bufs: Sequence[BufferView],
        export_bw: float,
    ) -> None:
        _check_rates_bw((), export_bw)
        if len(models) != len(bufs):
            raise ValueError("models and bufs must have the same length")
        T = params.segment_duration
        self.betas = np.array([m.beta for m in models], dtype=float)
        self.z1 = np.array([m.alpha * m.beta for m in models], dtype=float)
        self.z2 = np.array(
            [params.mu * T * adjustment_factor(params.p, b.b_curr, b.b_ref) for b in bufs],
            dtype=float,
        )
        self.z3 = params.nu * T / export_bw
        self._load_weight = params.nu * T
        self._export_bw = export_bw

    def __call__(self, rates) -> np.ndarray:
        r = np.asarray(rates, dtype=float)
        if r.shape != self.betas.shape:
            raise ValueError(f"expected {self.betas.size} rates, got shape {r.shape}")
        bad = r[~(np.isfinite(r) & (r >= 0))]
        if bad.size:
            raise ValueError(f"rates must be finite and >= 0, got {float(bad[0])!r}")
        # the load term is rounded as in utility_gradient, so both agree bit
        # for bit below 8 users (numpy sums pairwise from 8 on)
        load = self._load_weight * (float(r.sum()) / self._export_bw)
        return self.z1 / (1.0 + self.betas * r) + self.z2 - load


def utility_hessian_entries(
    params: GameParams,
    model: VideoQualityModel,
    i: int,
    j: int,
    rates: Sequence[float],
    export_bw: float,
) -> float:
    """Second derivative d2(utility_i)/d(r_i)d(r_j), analytic.

    Diagonal (i == j): ``-alpha*beta^2/(1+beta*r_i)^2 - nu*T/export_bw``;
    off-diagonal: ``-nu*T/export_bw``.  Both strictly negative for valid
    parameters, which makes each utility strictly concave in its own rate.
    """
    _check_rates_bw(rates, export_bw)
    if not 0 <= i < len(rates):
        raise IndexError(f"user index {i} out of range for {len(rates)} rates")
    if not 0 <= j < len(rates):
        raise IndexError(f"user index {j} out of range for {len(rates)} rates")
    shared = -params.nu * params.segment_duration / export_bw
    if i != j:
        return shared
    denom = 1.0 + model.beta * rates[i]
    return -model.alpha * model.beta * model.beta / (denom * denom) + shared


def utility_hessian(
    params: GameParams,
    models: Sequence[VideoQualityModel],
    rates: Sequence[float],
    export_bw: float,
) -> np.ndarray:
    """N x N matrix with entry (i, j) = d2(utility_i)/d(r_i)d(r_j)."""
    n = len(rates)
    if len(models) != n:
        raise ValueError("models and rates must have the same length")
    h = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            h[i, j] = utility_hessian_entries(params, models[i], i, j, rates, export_bw)
    return h
