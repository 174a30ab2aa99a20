"""Static Nash equilibrium computation for the rate adaptation game.

Each user maximises a strictly concave utility in its own rate over the
compact box [0, r_max], so a Nash equilibrium exists and satisfies the
projected first-order conditions.  This module provides the per-user FOC
coefficients, a 1-D best response, the closed form for two identical users,
and a damped-Newton solver (with round-robin best-response fallback) for the
general N-user system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import BufferView, GameParams, UtilityGradients, VideoQualityModel, adjustment_factor

__all__ = [
    "FocCoefficients",
    "EquilibriumResult",
    "foc_coefficients",
    "best_response",
    "closed_form_identical_2user",
    "solve_equilibrium",
]


@dataclass(frozen=True)
class FocCoefficients:
    """Coefficients of one user's first-order condition.

    The stationarity condition reads ``z1 / (1 + beta * r_i) + z2
    - z3 * sum(rates) = 0`` with ``z1 = alpha * beta`` (quality slope scale),
    ``z2 = mu * T * A_f`` (buffer revenue slope) and ``z3 = nu * T /
    export_bw`` (shared load slope, identical for all users).
    """

    z1: float
    z2: float
    z3: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.z1) and self.z1 > 0):
            raise ValueError(f"FocCoefficients.z1 must be > 0, got {self.z1!r}")
        if not (math.isfinite(self.z3) and self.z3 > 0):
            raise ValueError(f"FocCoefficients.z3 must be > 0, got {self.z3!r}")
        # z2 = mu*T*A_f is strictly positive in practice; zero is tolerated so
        # the degenerate algebra of the closed form stays checkable
        if not (math.isfinite(self.z2) and self.z2 >= 0):
            raise ValueError(f"FocCoefficients.z2 must be >= 0, got {self.z2!r}")


@dataclass
class EquilibriumResult:
    """Outcome of an equilibrium solve.

    ``residual`` is the largest projected-FOC violation: |gradient| at
    interior coordinates, and only the infeasible gradient direction at
    coordinates stuck on a bound.
    """

    rates: list[float]
    residual: float
    iterations: int
    converged: bool


def foc_coefficients(
    params: GameParams,
    model: VideoQualityModel,
    buf: BufferView,
    export_bw: float,
) -> FocCoefficients:
    """FOC coefficients of one user given its buffer state and the bottleneck."""
    if not (math.isfinite(export_bw) and export_bw > 0):
        raise ValueError(f"export_bw must be finite and > 0, got {export_bw!r}")
    T = params.segment_duration
    a_f = adjustment_factor(params.p, buf.b_curr, buf.b_ref)
    return FocCoefficients(
        z1=model.alpha * model.beta,
        z2=params.mu * T * a_f,
        z3=params.nu * T / export_bw,
    )


def _own_rate_root(
    z1: float, z2: float, z3: float, beta: float, sum_others: float, r_max: float, tol: float
) -> float:
    """Own-rate FOC root in [0, r_max] by bisection, to within ``tol``.

    Shared by :func:`best_response` and the solver's best-response sweeps;
    the gradient ``z1/(1 + beta*r) + z2 - z3*(r + sum_others)`` is strictly
    decreasing in ``r``.
    """

    def grad(r: float) -> float:
        return z1 / (1.0 + beta * r) + z2 - z3 * (r + sum_others)

    if grad(0.0) <= 0:
        return 0.0
    if grad(r_max) >= 0:
        return r_max
    lo, hi = 0.0, r_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if grad(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def best_response(
    params: GameParams,
    model: VideoQualityModel,
    buf: BufferView,
    others_rates: Sequence[float],
    export_bw: float,
    r_max: float,
    tol: float = 1e-10,
) -> float:
    """Utility-maximising rate in [0, r_max] with the other users fixed.

    The own-rate gradient is strictly decreasing, so the maximiser is found
    by bisection on its sign change; a boundary point is returned when the
    gradient does not change sign on the interval.
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be finite and > 0, got {r_max!r}")
    z = foc_coefficients(params, model, buf, export_bw)
    return _own_rate_root(z.z1, z.z2, z.z3, model.beta, float(sum(others_rates)), r_max, tol)


def closed_form_identical_2user(z: FocCoefficients, beta: float) -> float:
    """Symmetric equilibrium rate for two identical users.

    Positive root of ``2*z3*beta*r^2 + (2*z3 - beta*z2)*r - (z1 + z2) = 0``:

        r* = (-(2*z3 - beta*z2) + sqrt((2*z3 + beta*z2)^2 + 8*beta*z1*z3))
             / (4*beta*z3)
    """
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be > 0, got {beta!r}")
    disc = (2.0 * z.z3 + beta * z.z2) ** 2 + 8.0 * beta * z.z1 * z.z3
    assert disc > 0, "discriminant must be positive for valid coefficients"
    return (-(2.0 * z.z3 - beta * z.z2) + math.sqrt(disc)) / (4.0 * beta * z.z3)


def _projected_residuals(
    grads: np.ndarray, rates: np.ndarray, r_max: float
) -> np.ndarray:
    """Per-user violation of the projected FOC over [0, r_max]."""
    res = np.abs(grads).astype(float)
    at_lower = rates <= 0.0
    at_upper = rates >= r_max
    res[at_lower] = np.maximum(grads[at_lower], 0.0)
    res[at_upper] = np.maximum(-grads[at_upper], 0.0)
    return res


def _newton_step(diag: np.ndarray, c: float, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(diag(d) - c*1*1^T) x = rhs`` in O(N) by Sherman-Morrison.

    ``x = D^-1 rhs + c * D^-1 1 * (1^T D^-1 rhs) / (1 - c * 1^T D^-1 1)``.
    With every ``d_i < 0`` and ``c > 0`` the denominator exceeds 1, so the
    matrix is never singular.
    """
    inv_d = 1.0 / diag
    y = rhs * inv_d
    return y + inv_d * (c * float(y.sum()) / (1.0 - c * float(inv_d.sum())))


def solve_equilibrium(
    params: GameParams,
    models: Sequence[VideoQualityModel],
    bufs: Sequence[BufferView],
    export_bw: float,
    r_max: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
    method: str = "newton",
) -> EquilibriumResult:
    """Solve the N-user projected FOC system over [0, r_max]^N.

    Damped Newton on the gradient vector with the analytic Jacobian,
    ``diag(d) - z3*1*1^T`` on the free coordinates, so each step is solved
    in O(N) by Sherman-Morrison; coordinates are projected onto the box
    each step.  Falls back to round-robin best-response sweeps when Newton
    stalls (the game admits an exact concave potential, so best-response
    iteration converges globally).
    ``method="best_response"`` forces the fallback path.  Non-convergence is
    reported through ``converged=False``, never silently.
    """
    n = len(models)
    if n < 1:
        raise ValueError("at least one user is required")
    if len(bufs) != n:
        raise ValueError("models and bufs must have the same length")
    if method not in ("newton", "best_response"):
        raise ValueError(f"unknown method {method!r}")

    grad = UtilityGradients(params, models, bufs, export_bw)
    # symmetric start preserves symmetry for identical users
    rates = np.full(n, r_max / (2.0 * n))
    iterations = 0

    def residual_norm(r: np.ndarray) -> float:
        return float(_projected_residuals(grad(r), r, r_max).max())

    if method == "newton":
        stalls = 0
        while iterations < max_iter:
            grads = grad(rates)
            res = _projected_residuals(grads, rates, r_max)
            cur = float(res.max())
            if cur <= tol:
                return EquilibriumResult([float(r) for r in rates], cur, iterations, True)
            free = ~(((rates <= 0.0) & (grads < 0)) | ((rates >= r_max) & (grads > 0)))
            if not free.any():
                # all coordinates pinned but some still violated: treat as stall
                break
            idx = np.flatnonzero(free)
            b = grad.betas[idx]
            diag = -grad.z1[idx] * b / (1.0 + b * rates[idx]) ** 2
            step = _newton_step(diag, grad.z3, -grads[idx])
            t = 1.0
            moved = False
            while t >= 1e-4:
                trial = rates.copy()
                trial[idx] = np.clip(rates[idx] + t * step, 0.0, r_max)
                if residual_norm(trial) < (1.0 - 0.25 * t) * cur:
                    rates = trial
                    moved = True
                    break
                t *= 0.5
            iterations += 1
            if not moved:
                stalls += 1
                if stalls >= 3:
                    break
            else:
                stalls = 0

    # round-robin best-response sweeps (also the explicit method)
    z1, z2, betas = grad.z1.tolist(), grad.z2.tolist(), grad.betas.tolist()
    while iterations < max_iter:
        max_change = 0.0
        for i in range(n):
            sum_others = float(rates.sum() - rates[i])
            new_rate = _own_rate_root(
                z1[i], z2[i], grad.z3, betas[i], sum_others, r_max, 1e-13 * max(1.0, r_max)
            )
            max_change = max(max_change, abs(new_rate - rates[i]))
            rates[i] = new_rate
        iterations += 1
        res = residual_norm(rates)
        if res <= tol:
            return EquilibriumResult([float(r) for r in rates], res, iterations, True)
        if max_change == 0.0:
            break

    res = residual_norm(rates)
    return EquilibriumResult([float(r) for r in rates], res, iterations, res <= tol)
