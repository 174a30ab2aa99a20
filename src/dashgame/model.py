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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GameParams",
    "VideoQualityModel",
    "BufferView",
    "log_quality",
    "quantize_rate",
    "serial_sum",
    "adjustment_factor",
    "estimated_buffer",
    "utility",
    "utility_gradient",
    "UtilityGradients",
    "utility_hessian_entries",
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
        if not all(0 < r < math.inf for r in ladder):
            raise ValueError("VideoQualityModel.ladder entries must be finite and > 0")
        if any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise ValueError("VideoQualityModel.ladder must be strictly increasing")
        object.__setattr__(self, "ladder", ladder)


@dataclass(frozen=True)
class BufferView:
    """Snapshot of one user's buffer state.

    ``b_curr`` is the occupancy before the next segment download and
    ``b_ref`` the reference level the adaptation steers toward.
    """

    b_curr: float
    b_ref: float

    def __post_init__(self) -> None:
        _check_buffer(self.b_curr, self.b_ref)


def _check_buffer(b_curr: float, b_ref: float) -> None:
    for name, value in (("b_curr", b_curr), ("b_ref", b_ref)):
        if not math.isfinite(value):
            raise ValueError(f"BufferView.{name} must be finite")
    if b_ref <= 0:
        raise ValueError(f"BufferView.b_ref must be > 0, got {b_ref!r}")


def log_quality(alpha: float, beta: float, rate: float) -> float:
    """Quality of a segment encoded at ``rate`` Mbps: alpha * ln(1 + beta*rate).

    Accepts the degenerate beta = 0 (flat zero quality); ``rate`` must be
    nonnegative.
    """
    if rate < 0:
        raise ValueError(f"rate must be >= 0, got {rate!r}")
    return alpha * math.log1p(beta * rate)


def quantize_rate(ladder: Sequence[float], r: float) -> float:
    """Largest rung of the ascending ``ladder`` <= r, or the lowest rung when r is below it."""
    if not ladder:
        raise ValueError("ladder must be nonempty")
    if math.isnan(r):
        raise ValueError("rate to quantize must not be NaN")
    return ladder[max(bisect_right(ladder, r) - 1, 0)]


def serial_sum(values: Iterable[float]) -> float:
    """Sum of ``values`` added left to right, starting from 0.0.

    This is what the builtin ``sum`` of floats does on CPython 3.10 and
    3.11; from 3.12 on, ``sum`` compensates rounding errors and can differ
    in the last bits.  Every load summed in Python (the scalar gradient and
    buffer, the best response) goes through here, and the payoff server and
    ``metrics.score`` add their sums the same way in their own loops, so
    their rounding does not change with the interpreter version.
    """
    total = 0.0
    for v in values:
        total += v
    return total


# the adjustment factor is kept in the open interval (0, 2)
_AF_MIN = math.nextafter(0.0, 1.0)
_AF_MAX = math.nextafter(2.0, 0.0)


def adjustment_factor(p: float, b_curr: float, b_ref: float) -> float:
    """Sigmoid buffer-deviation factor in (0, 2), exactly 1 at b_curr == b_ref.

    Computed as ``2 / (1 + exp(-p * (b_curr - b_ref)))``, which never
    overflows for large positive deviations; > 1 means aggressive requesting,
    < 1 defensive.
    """
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"p must be finite and > 0, got {p!r}")
    return _adjustment_factor(p, b_curr, b_ref)


def _adjustment_factor(p: float, b_curr: float, b_ref: float) -> float:
    """:func:`adjustment_factor` without the check of ``p``, for callers
    that hold an already validated ``GameParams.p``."""
    x = p * (b_curr - b_ref)
    if x >= 0:
        value = 2.0 / (1.0 + math.exp(-x))
    else:
        # exp(x) <= 1 here, no overflow
        e = math.exp(x)
        value = 2.0 * e / (1.0 + e)
    # keep the open interval even when the exponential saturates in floats
    if value >= 2.0:
        return _AF_MAX
    if value <= 0.0:
        return _AF_MIN
    return value


def _check_rates_bw(rates: Sequence[float], export_bw: float) -> None:
    if not (math.isfinite(export_bw) and export_bw > 0):
        raise ValueError(f"export_bw must be finite and > 0, got {export_bw!r}")
    for r in rates:
        if r < 0 or not math.isfinite(r):
            raise ValueError(f"rates must be finite and >= 0, got {r!r}")


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
    the shared bottleneck.  The integration constant is 0: a constant would
    only shift every utility, and move no gradient.
    """
    _check_rates_bw(rates, export_bw)
    if not 0 <= i < len(rates):
        raise IndexError(f"user index {i} out of range for {len(rates)} rates")
    a_f = adjustment_factor(params.p, buf.b_curr, buf.b_ref)
    r_i = rates[i]
    T = params.segment_duration
    others = serial_sum(rates) - r_i
    penalty = T * (0.5 * r_i * r_i + r_i * others) / export_bw
    return a_f * T * r_i - params.omega * penalty


def utility(
    params: GameParams,
    model: VideoQualityModel,
    i: int,
    rates: Sequence[float],
    buf: BufferView,
    export_bw: float,
) -> float:
    """Payoff of user ``i``: log_quality(r_i) + mu * estimated_buffer(i)."""
    return log_quality(model.alpha, model.beta, rates[i]) + params.mu * estimated_buffer(params, i, rates, buf, export_bw)


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
    return quality_term + params.mu * T * a_f - params.nu * T * (serial_sum(rates) / export_bw)


class UtilityGradients:
    """Vectorised :func:`utility_gradient` for all N users of one game.

    The per-user coefficients are computed once, at construction:
    ``z1 = alpha*beta``, ``z2 = mu*T*A_f`` and the load slope
    ``z3 = nu*T/export_bw``, which is the same for every user.  They are
    built in array passes over the users, bit-identical to
    :func:`adjustment_factor` and ``foc_coefficients`` per user: the products
    are gathered in Python float arithmetic, the sigmoid's two branches and
    its clamps are array operations, and ``exp(-|x|)`` is ``math.exp``
    mapped over the deviations (``np.exp`` can differ in the last bit).
    ``_gradients`` sums the load of a rate vector once and returns every
    user's own-rate gradient ``z1/(1 + beta*r_i) + z2 - z3*sum(rates)``, so
    one evaluation costs O(N).  It does not check the rates: its callers
    have, where the rates enter the package, or clipped them to the box.

    An ``(m, N)`` stack of rate vectors is evaluated in one call and gives
    ``(m, N)`` gradients, each row bit-identical to that row evaluated alone
    (each row's load is summed along the last axis as a 1-D sum would be).
    """

    def __init__(
        self,
        params: GameParams,
        models: Sequence[VideoQualityModel],
        bufs: Sequence[BufferView],
        export_bw: float,
    ) -> None:
        _check_rates_bw((), export_bw)
        n = len(models)
        if len(bufs) != n:
            raise ValueError("models and bufs must have the same length")
        T = params.segment_duration
        p = params.p
        self.betas = np.fromiter([m.beta for m in models], float, n)
        self.z1 = np.fromiter([m.alpha * m.beta for m in models], float, n)
        # adjustment_factor's deviation and exponential, one user per entry
        x = np.fromiter([p * (b.b_curr - b.b_ref) for b in bufs], float, n)
        e = np.fromiter(map(math.exp, (-np.abs(x)).tolist()), float, n)
        # 2/(1 + exp(-x)) for x >= 0, 2*exp(x)/(1 + exp(x)) below
        a_f = np.where(x >= 0, 2.0, 2.0 * e) / (1.0 + e)
        a_f = np.minimum(np.maximum(a_f, _AF_MIN), _AF_MAX)
        self.z2 = params.mu * T * a_f
        self.z3 = params.nu * T / export_bw
        self._load_weight = params.nu * T
        self._export_bw = export_bw

    def _gradients(self, r: np.ndarray) -> np.ndarray:
        """The gradients at a C-order float array ``r`` of valid rates, unchecked.

        C order: a row of a Fortran-order stack would not sum as the 1-D row.
        """
        load = self.load(r.sum(axis=-1, keepdims=True))
        return self.z1 / (1.0 + self.betas * r) + self.z2 - load

    def load(self, total):
        """Load term ``z3*total`` of the gradient at the summed rate ``total``.

        Rounded as in utility_gradient, ``nu*T*(total/export_bw)``, so the two
        agree bit for bit below 8 users (numpy sums pairwise from 8 on).
        """
        return self._load_weight * (total / self._export_bw)


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

