"""Local stability analysis of the distributed rate-update map.

The update ``r_i(t+1) = r_i(t) + theta_i * r_i(t) * grad_i(r(t))`` is a
discrete-time map whose fixed points are the game's stationary rates; the
equilibrium is locally stable iff every eigenvalue of the map's Jacobian
lies strictly inside the unit circle.  This module builds the 2-user
Jacobian analytically and an N-user Jacobian by finite differences: the
2N + 1 points of the stencil are stacked into one ``(2N + 1, N)`` array and
the map is evaluated on all of them in a single vectorised call (O(N^2)
work and memory, the order of the matrix returned).  Spectra come from
LAPACK (``numpy.linalg.eigvals``), and the closed-form unit-circle
conditions for two identical users are evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import BufferView, GameParams, UtilityGradients, VideoQualityModel, _check_rates_bw
from .game import foc_coefficients

__all__ = [
    "StabilityReport",
    "EigenvalueError",
    "jacobian_2user",
    "jacobian_numeric",
    "eigenvalues_small",
    "spectral_radius",
    "build_report",
    "stability_conditions_identical_2user",
]

#: |spectral radius - 1| below this is reported as "marginal" rather than
#: stable/unstable; the strict classification is meaningless at the boundary.
MARGINAL_BAND = 1e-9


class EigenvalueError(RuntimeError):
    """The LAPACK eigenvalue routine failed to converge."""


@dataclass
class StabilityReport:
    """Jacobian, spectrum, and verdict for one operating point."""

    jacobian: np.ndarray
    eigenvalues: list[complex]
    spectral_radius: float
    stable: bool
    verdict: str
    closed_form: Optional[tuple[bool, bool]] = None


def jacobian_2user(
    params: GameParams,
    models: Sequence[VideoQualityModel],
    bufs: Sequence[BufferView],
    export_bw: float,
    rates: Sequence[float],
    thetas: Sequence[float],
) -> np.ndarray:
    """Analytic Jacobian of the unclamped update map for exactly two users.

    Off-diagonals are ``-theta_i * z3 * r_i``; diagonal ``i`` is
    ``1 + theta_i * (-beta_i*z1_i*r_i/(1+beta_i*r_i)^2 + z1_i/(1+beta_i*r_i)
    + z2_i - z3*(2*r_i + r_j))``.
    """
    if not (len(models) == len(bufs) == len(rates) == len(thetas) == 2):
        raise ValueError("jacobian_2user requires exactly two users")
    _check_rates_bw(rates, export_bw)
    _check_thetas(thetas)
    jac = np.empty((2, 2))
    for i in range(2):
        j = 1 - i
        z = foc_coefficients(params, models[i], bufs[i], export_bw)
        beta = models[i].beta
        r_i, r_j = rates[i], rates[j]
        denom = 1.0 + beta * r_i
        own = (
            -beta * z.z1 * r_i / (denom * denom)
            + z.z1 / denom
            + z.z2
            - z.z3 * (2.0 * r_i + r_j)
        )
        jac[i, i] = 1.0 + thetas[i] * own
        jac[i, j] = -thetas[i] * z.z3 * r_i
    return jac


def _check_thetas(thetas: Sequence[float]) -> np.ndarray:
    theta = np.asarray(thetas, dtype=float)
    bad = theta[~(np.isfinite(theta) & (theta > 0))]
    if bad.size:
        raise ValueError(f"thetas must be finite and > 0, got {float(bad[0])!r}")
    return theta


def jacobian_numeric(
    params: GameParams,
    models: Sequence[VideoQualityModel],
    bufs: Sequence[BufferView],
    export_bw: float,
    rates: Sequence[float],
    thetas: Sequence[float],
    step: float = 1e-6,
) -> np.ndarray:
    """Jacobian of the unclamped update map by finite differences.

    Central differences, except in the columns of rates below ``step``,
    whose minus leg would leave the domain ``r >= 0``: those use the
    one-sided second-order stencil ``(-3 f(r) + 4 f(r + h) - f(r + 2h)) /
    2h``.  The stencil points (the base point, ``r + h*e_j``, and ``r -
    h*e_j`` or ``r + 2h*e_j``) form one ``(2N + 1, N)`` stack, and the map
    (no step cap, no box projection) is evaluated on it in a single call,
    so the whole Jacobian is O(N^2) in time and memory.
    """
    n = len(rates)
    if not (len(models) == len(bufs) == len(thetas) == n >= 1):
        raise ValueError("models, bufs, rates, thetas must agree and be nonempty")
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and > 0, got {step!r}")
    theta = _check_thetas(thetas)
    grad = UtilityGradients(params, models, bufs, export_bw)
    r = np.asarray(rates, dtype=float)
    one_sided = r < step
    cols = np.arange(n)
    points = np.tile(r, (2 * n + 1, 1))
    points[1 + cols, cols] += step
    points[1 + n + cols, cols] += np.where(one_sided, 2.0 * step, -step)
    f = points + theta * points * grad(points)
    # row j of plus/other is the map at the column-j legs
    plus, other = f[1 : n + 1], f[n + 1 :]
    central = (plus - other) / (2.0 * step)
    forward = (-3.0 * f[0] + 4.0 * plus - other) / (2.0 * step)
    return np.where(one_sided[:, None], forward, central).T


def eigenvalues_small(matrix) -> list[complex]:
    """Eigenvalues of a dense square matrix, descending in magnitude.

    Computed by LAPACK (``numpy.linalg.eigvals``) for any order; ties in
    magnitude are ordered by descending real, then imaginary part.  Raises
    :class:`EigenvalueError` if LAPACK does not converge.
    """
    a = np.asarray(matrix)
    a = a.astype(complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must be at least 1x1")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    try:
        eigs = [complex(z) for z in np.linalg.eigvals(a)]
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"eigenvalues did not converge (order {a.shape[0]}): {exc}") from exc
    eigs.sort(key=lambda z: (-abs(z), -z.real, -z.imag))
    return eigs


def spectral_radius(matrix) -> float:
    return max(abs(z) for z in eigenvalues_small(matrix))


def _verdict(radius: float) -> tuple[bool, str]:
    if abs(radius - 1.0) <= MARGINAL_BAND:
        return False, "marginal"
    return (radius < 1.0), ("stable" if radius < 1.0 else "unstable")


def build_report(jacobian: np.ndarray, closed_form: Optional[tuple[bool, bool]] = None) -> StabilityReport:
    eigs = eigenvalues_small(jacobian)
    radius = max(abs(z) for z in eigs)
    stable, verdict = _verdict(radius)
    return StabilityReport(
        jacobian=np.asarray(jacobian, dtype=float),
        eigenvalues=eigs,
        spectral_radius=radius,
        stable=stable,
        verdict=verdict,
        closed_form=closed_form,
    )


# ---------------------------------------------------------------------------
# closed-form conditions for two identical users
# ---------------------------------------------------------------------------
#
# With identical users at a symmetric point (equal rates, equal thetas,
# b_curr = b_ref so z2 = mu*T), the Jacobian is symmetric with eigenvalues
# j11 -/+ j12.  Multiplying the unit-circle bounds through by (1+beta*r)^2
# gives polynomial conditions; the two that bind (the other two are implied)
# are the ones evaluated here.


def _unit_upper_ok(z1: float, z2: float, z3: float, beta: float, r: float) -> bool:
    """lambda < 1 for both eigenvalues: z1 + z2*(1+b r)^2 < 2 z3 r (1+b r)^2."""
    g = (1.0 + beta * r) ** 2
    return z1 + z2 * g < 2.0 * z3 * r * g


def _unit_lower_ok(z1: float, z2: float, z3: float, beta: float, r: float, theta: float) -> bool:
    """lambda > -1 for both eigenvalues: z1 + (z2 + 2/theta)*(1+b r)^2 > 4 z3 r (1+b r)^2."""
    g = (1.0 + beta * r) ** 2
    return z1 + (z2 + 2.0 / theta) * g > 4.0 * z3 * r * g


def stability_conditions_identical_2user(
    params: GameParams,
    model: VideoQualityModel,
    theta: float,
    r_star: float,
    export_bw: float,
) -> tuple[tuple[bool, bool], StabilityReport]:
    """Closed-form unit-circle conditions for two identical users.

    Assumes the symmetric operating point of the derivation: both users at
    ``r_star`` with equal ``theta`` and buffers at the reference level (so
    the buffer revenue slope is exactly mu*T).  Returns the two inequality
    flags plus the full eigenvalue-based report for cross checking; the
    verdicts agree for any r_star, not only equilibria, since the algebra
    never uses the stationarity condition.
    """
    if not (math.isfinite(theta) and theta > 0):
        raise ValueError(f"theta must be > 0, got {theta!r}")
    if not (math.isfinite(r_star) and r_star > 0):
        raise ValueError(f"r_star must be > 0, got {r_star!r}")
    buf = BufferView(b_curr=10.0, b_ref=10.0)  # b_curr = b_ref by assumption
    z = foc_coefficients(params, model, buf, export_bw)
    flags = (
        _unit_upper_ok(z.z1, z.z2, z.z3, model.beta, r_star),
        _unit_lower_ok(z.z1, z.z2, z.z3, model.beta, r_star, theta),
    )
    jac = jacobian_2user(
        params, [model, model], [buf, buf], export_bw, [r_star, r_star], [theta, theta]
    )
    return flags, build_report(jac, closed_form=flags)
