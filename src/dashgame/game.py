"""Static Nash equilibrium computation for the rate adaptation game.

Each user maximises a strictly concave utility in its own rate over the
compact box [0, r_max], so a Nash equilibrium exists and satisfies the
projected first-order conditions.  The users are coupled only through the
load ``S = sum(rates)``, with a load slope ``z3`` shared by all, so the
gradients are those of the concave potential
``sum_i (alpha_i*ln(1 + beta_i*r_i) + z2_i*r_i) - z3*S^2/2``: the game is an
exact potential game (Monderer & Shapley 1996) and an aggregative one
(Jensen 2010).  Its equilibrium is the potential's unique maximiser, and
solving each user's FOC at a given load turns it into the root of one
decreasing scalar function of ``S``.  This module provides the per-user FOC
coefficients, a closed-form 1-D best response, the closed form for two
identical users, and the N-user solver, a safeguarded Newton-bisection on
``S`` at O(N) per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    BufferView,
    GameParams,
    UtilityGradients,
    VideoQualityModel,
    adjustment_factor,
    serial_sum,
)

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
    coordinates stuck on a bound.  ``bracket`` is the final bracket
    ``(lo, hi)`` on the load ``S = sum(rates)`` that holds the root of the
    solver's scalar function; ``None`` when the producer keeps none.
    """

    rates: list[float]
    residual: float
    iterations: int
    converged: bool
    bracket: Optional[tuple[float, float]] = None


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


def _positive_root(a: float, b: float, c: float) -> float:
    """Positive root of ``a*x^2 + b*x - c = 0`` for ``a, c > 0``, without cancellation."""
    d = math.sqrt(b * b + 4.0 * a * c)
    return 2.0 * c / (b + d) if b >= 0 else (d - b) / (2.0 * a)


def best_response(
    params: GameParams,
    model: VideoQualityModel,
    buf: BufferView,
    others_rates: Sequence[float],
    export_bw: float,
    r_max: float,
) -> float:
    """Utility-maximising rate in [0, r_max] with the other users fixed.

    With ``u = 1 + beta*r`` and ``s`` the others' load, the own-rate FOC is
    the quadratic ``z3*u^2 + (z3*(beta*s - 1) - beta*z2)*u - beta*z1 = 0``.
    Its constant term is negative, so it has one positive root; that root,
    taken in the form that does not cancel, is clipped to [0, r_max].
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be finite and > 0, got {r_max!r}")
    z = foc_coefficients(params, model, buf, export_bw)
    beta = model.beta
    b = z.z3 * (beta * float(serial_sum(others_rates)) - 1.0) - beta * z.z2
    u = _positive_root(z.z3, b, beta * z.z1)
    return min(max((u - 1.0) / beta, 0.0), r_max)


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
    """Per-user violation of the projected FOC over [0, r_max].

    A rate on both bounds counts as on the upper one.
    """
    return np.where(
        rates >= r_max,
        np.maximum(-grads, 0.0),
        np.where(rates <= 0.0, np.maximum(grads, 0.0), np.abs(grads)),
    )


def solve_equilibrium(
    params: GameParams,
    models: Sequence[VideoQualityModel],
    bufs: Sequence[BufferView],
    export_bw: float,
    r_max: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> EquilibriumResult:
    """Solve the N-user projected FOC system over [0, r_max]^N.

    Users are coupled only through the load ``S = sum(rates)``.  At a given
    ``S`` each user's FOC has the closed-form solution
    ``clip((z1/(z3*S - z2) - 1)/beta, 0, r_max)`` (``r_max`` where
    ``z3*S <= z2``), so the equilibrium is the root of the decreasing scalar
    ``phi(S) = sum of those rates - S``; it is unique because the game has
    a strictly concave potential (see the module docstring).  Starting from
    the load of N identical users with the mean coefficients, each step
    evaluates every user's rate in O(N), with the load rounded as the
    gradient rounds it, and takes a Newton step on ``phi``; a step that
    leaves the bracket on the root, or lands on one of its ends, is replaced
    by bisection.  ``iterations`` counts these steps, at most ``max_iter``.
    ``residual`` is the projected FOC residual of the gradient at the
    returned rates (evaluated by the gradients' unchecked core, since every
    rate is already clipped to the box), and ``converged`` is ``residual <=
    tol``: non-convergence is reported, never silent.  ``bracket`` is the
    bracket ``(lo, hi)`` on ``S`` when the solve stopped; the returned load
    ``sum(rates)`` lies in it to within about ``tol/z3`` once converged.
    """
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be finite and > 0, got {r_max!r}")
    n = len(models)
    if n < 1:
        raise ValueError("at least one user is required")
    if len(bufs) != n:
        raise ValueError("models and bufs must have the same length")

    grad = UtilityGradients(params, models, bufs, export_bw)
    z1, z2, betas = grad.z1, grad.z2, grad.betas
    # a user whose FOC lever z3*S - z2 is at most this sits at r_max; from z1
    # on it sits at 0.  Clamping the lever here keeps every division positive.
    top = z1 / (1.0 + betas * r_max)
    # phi(hi) <= 0 <= phi(lo): every user sits at 0 from the largest
    # (z1 + z2)/z3 on, and at r_max up to the smallest (top + z2)/z3
    hi = min(n * r_max, float((z1 + z2).max()) / grad.z3)
    lo = min(hi, float((top + z2).min()) / grad.z3)
    # start from the load of n identical users with the mean coefficients,
    # the root of beta*z3*S^2 + (n*z3 - beta*z2)*S - n*(z1 + z2) = 0
    m1, m2, mb = float(z1.sum()) / n, float(z2.sum()) / n, float(betas.sum()) / n
    s = _positive_root(mb * grad.z3, n * grad.z3 - mb * m2, n * (m1 + m2))
    if not lo < s < hi:
        s = 0.5 * (lo + hi)
    iterations = 0

    def projected_residual(r: np.ndarray) -> float:
        return float(_projected_residuals(grad._gradients(r), r, r_max).max())

    while True:
        lever = grad.load(s) - z2
        clamped = np.maximum(lever, top)
        u = z1 / clamped  # 1 + beta*r at the user's FOC
        own = np.minimum(np.maximum((u - 1.0) / betas, 0.0), r_max)
        rates = np.where(lever > top, own, r_max)
        phi = float(rates.sum()) - s
        # every FOC holds at load s, so no gradient is off by much more than
        # z3*|phi|: the full residual is checked only once that is small
        if grad.z3 * abs(phi) <= tol or iterations >= max_iter:
            residual = projected_residual(rates)
            if residual <= tol or iterations >= max_iter:
                break
        if phi > 0.0:
            lo = s
        else:
            hi = s
        free = (rates > 0.0) & (rates < r_max)
        slope = -1.0 - grad.z3 * float((u / (betas * clamped))[free].sum())
        step = s - phi / slope
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if step in (lo, hi):  # the bracket is two adjacent floats
                residual = projected_residual(rates)
                break
        s = step
        iterations += 1
    return EquilibriumResult(rates.tolist(), residual, iterations, residual <= tol, (float(lo), float(hi)))
