"""Local stability analysis of the distributed rate-update map.

The update ``r_i(t+1) = r_i(t) + theta_i * r_i(t) * grad_i(r(t))`` is a
discrete-time map whose fixed points are the game's stationary rates; the
equilibrium is locally stable iff every eigenvalue of the map's Jacobian
lies strictly inside the unit circle.  Users are coupled only through the
load ``z3 * sum(rates)``, so at any N the Jacobian is a diagonal plus a
rank-one matrix, ``J = diag(d) + u 1^T``, built analytically in O(N) work
before the O(N^2) fill (:func:`jacobian_analytic`).  ``jacobian_numeric``,
the same Jacobian by finite differences, is kept as its cross-oracle.
Every spectrum comes from LAPACK (``numpy.linalg.eigvals``) in one routine,
:func:`build_report`, and the closed-form unit-circle conditions for two
identical users are evaluated directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    BufferView,
    GameParams,
    UtilityGradients,
    VideoQualityModel,
)
from .game import foc_coefficients

__all__ = [
    "StabilityReport",
    "EigenvalueError",
    "jacobian_analytic",
    "jacobian_2user",
    "jacobian_numeric",
    "spectral_radius",
    "build_report",
    "stability_conditions_identical_2user",
]

#: |spectral radius - 1| below this is reported as "marginal" rather than
#: stable/unstable; the strict classification is meaningless at the boundary.
MARGINAL_BAND = 1e-9

#: The step of :func:`jacobian_numeric`'s finite differences.
JACOBIAN_STEP = 1e-6

# the least float whose square overflows
_SQRT_OVERFLOW = 2.0**512


class EigenvalueError(RuntimeError):
    """The LAPACK eigenvalue routine failed to converge."""


@dataclass
class StabilityReport:
    """Spectrum and verdict of one Jacobian."""

    eigenvalues: list[complex]
    spectral_radius: float
    stable: bool
    verdict: str


@np.errstate(over="ignore", invalid="ignore")
def jacobian_analytic(
    params: GameParams,
    models: Sequence[VideoQualityModel],
    bufs: Sequence[BufferView],
    export_bw: float,
    rates: Sequence[float],
    thetas: Sequence[float],
) -> np.ndarray:
    """Analytic Jacobian of the unclamped update map, any N >= 1.

    Every user's gradient sees the others only through ``z3*sum(rates)``,
    so ``J = diag(d) + u 1^T`` with ``u_i = -theta_i*z3*r_i`` and ``d_i = 1
    + theta_i*(g_i - r_i*z1_i*beta_i/(1 + beta_i*r_i)^2)``, where ``g_i`` is
    user i's gradient at ``rates``.  An entry whose value overflows comes
    back infinite or NaN, with no floating-point warning; :func:`build_report`
    rejects such a matrix.
    """
    theta, grad, r = _operating_point(params, models, bufs, export_bw, rates, thetas)
    denom = 1.0 + grad.betas * r
    term = r * grad.z1 * grad.betas / (denom * denom)
    # where r*z1*beta or denom^2 overflows, the same term as
    # (z1/denom)*(beta*r/denom), which tends to alpha/r
    term = np.where(np.isfinite(term), term, grad.z1 / denom * (1.0 - 1.0 / denom))
    d = 1.0 + theta * (grad._gradients(r) - term)
    u = -theta * grad.z3 * r
    return np.diag(d) + u[:, None]


def jacobian_2user(
    params: GameParams,
    models: Sequence[VideoQualityModel],
    bufs: Sequence[BufferView],
    export_bw: float,
    rates: Sequence[float],
    thetas: Sequence[float],
) -> np.ndarray:
    """:func:`jacobian_analytic` for exactly two users."""
    if not (len(models) == len(bufs) == len(rates) == len(thetas) == 2):
        raise ValueError("jacobian_2user requires exactly two users")
    return jacobian_analytic(params, models, bufs, export_bw, rates, thetas)


def _operating_point(params, models, bufs, export_bw, rates, thetas):
    """The thetas, the game's gradients and the rates, each checked."""
    n = len(rates)
    if not (len(models) == len(bufs) == len(thetas) == n >= 1):
        raise ValueError("models, bufs, rates, thetas must agree and be nonempty")
    theta = np.asarray(thetas, dtype=float)
    bad = theta[~(np.isfinite(theta) & (theta > 0))]
    if bad.size:
        raise ValueError(f"thetas must be finite and > 0, got {float(bad[0])!r}")
    grad = UtilityGradients(params, models, bufs, export_bw)
    r = np.asarray(rates, dtype=float)
    if r.shape != (n,):
        raise ValueError(f"rates must be a flat sequence of {n} values, got shape {r.shape}")
    bad = r[~(np.isfinite(r) & (r >= 0))]
    if bad.size:
        raise ValueError(f"rates must be finite and >= 0, got {float(bad[0])!r}")
    return theta, grad, r


def jacobian_numeric(
    params: GameParams,
    models: Sequence[VideoQualityModel],
    bufs: Sequence[BufferView],
    export_bw: float,
    rates: Sequence[float],
    thetas: Sequence[float],
) -> np.ndarray:
    """Jacobian of the unclamped update map by finite differences.

    The cross-oracle of :func:`jacobian_analytic`, called by acceptance
    criterion 4 and the benchmark's ``analysis`` workload.  Central
    differences, except in the columns of rates below ``h = JACOBIAN_STEP``,
    whose minus leg would leave the domain ``r >= 0``: those use the
    one-sided second-order stencil ``(-3 f(r) + 4 f(r + h) - f(r + 2h)) / 2h``,
    built only when some column needs it.  The stencil points (the base point,
    ``r + h*e_j``, and ``r - h*e_j`` or ``r + 2h*e_j``) form one ``(2N + 1,
    N)`` stack, and the map (no step cap, no box projection) is evaluated on
    it in a single call, so the whole Jacobian is O(N^2) in time and memory.
    The N base rates are checked once; every stencil point is then finite
    and >= 0, so the stack goes to the gradients' unchecked core.
    """
    step = JACOBIAN_STEP
    theta, grad, r = _operating_point(params, models, bufs, export_bw, rates, thetas)
    n = r.size
    one_sided = r < step
    any_one_sided = bool(one_sided.any())
    points = np.empty((2 * n + 1, n))
    points[:] = r
    # row j of each leg's block moves coordinate j: add along the block diagonals
    up, down = _diagonal(points[1 : n + 1]), _diagonal(points[n + 1 :])
    up += step
    down += np.where(one_sided, 2.0 * step, -step) if any_one_sided else -step
    f = points + theta * points * grad._gradients(points)
    # row j of plus/other is the map at the column-j legs
    plus, other = f[1 : n + 1], f[n + 1 :]
    central = (plus - other) / (2.0 * step)
    if not any_one_sided:
        return central.T
    forward = (-3.0 * f[0] + 4.0 * plus - other) / (2.0 * step)
    return np.where(one_sided[:, None], forward, central).T


def _diagonal(block: np.ndarray) -> np.ndarray:
    """Writable view of the diagonal of a C-contiguous square ``block``."""
    return block.reshape(-1)[:: block.shape[1] + 1]


def spectral_radius(matrix) -> float:
    """The largest eigenvalue magnitude of ``matrix``; see :func:`build_report`."""
    return build_report(matrix).spectral_radius


def _verdict(radius: float) -> tuple[bool, str]:
    if abs(radius - 1.0) <= MARGINAL_BAND:
        return False, "marginal"
    return (radius < 1.0), ("stable" if radius < 1.0 else "unstable")


def build_report(jacobian) -> StabilityReport:
    """Spectrum and verdict of a dense square matrix, real or complex.

    The one routine here that computes a spectrum.  The eigenvalues come
    from LAPACK (``numpy.linalg.eigvals``) at any order, descending in
    magnitude; ties in magnitude are ordered by descending real, then
    imaginary part, by one stable ``numpy.lexsort``.  A matrix that is not
    square, is empty or is not finite raises ``ValueError``; a LAPACK
    failure raises :class:`EigenvalueError`.
    """
    a = np.asarray(jacobian)
    a = a.astype(complex if np.iscomplexobj(a) else float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix must be at least 1x1")
    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        # eigvals rejects a non-finite matrix itself; tell that apart here,
        # on the failure path, instead of scanning every matrix twice
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite") from None
        raise EigenvalueError(f"eigenvalues did not converge (order {a.shape[0]}): {exc}") from exc
    w = w.astype(complex, copy=False)
    # lexsort's last key is the primary one: -|z|, then -Re z, then -Im z
    eigs = w[np.lexsort((-w.imag, -w.real, -np.abs(w)))].tolist()
    try:
        radius = abs(eigs[0])
    except OverflowError:  # a magnitude past the largest float
        radius = math.inf
    stable, verdict = _verdict(radius)
    return StabilityReport(eigenvalues=eigs, spectral_radius=radius, stable=stable, verdict=verdict)


# ---------------------------------------------------------------------------
# closed-form conditions for two identical users
# ---------------------------------------------------------------------------
#
# With identical users at a symmetric point (equal rates, equal thetas,
# b_curr = b_ref so z2 = mu*T), the Jacobian is symmetric with eigenvalues
# j11 -/+ j12.  Multiplying the unit-circle bounds through by (1+beta*r)^2
# gives polynomial conditions; the two that bind (the other two are implied)
# are the ones evaluated here.  From 1 + b r = 2**512 on, (1+b r)^2 overflows:
# there each condition is divided through by it, and z1/(1+b r)^2 underflows.


def _unit_upper_ok(z1: float, z2: float, z3: float, beta: float, r: float) -> bool:
    """lambda < 1 for both eigenvalues: z1 + z2*(1+b r)^2 < 2 z3 r (1+b r)^2."""
    d = 1.0 + beta * r
    if d >= _SQRT_OVERFLOW:
        return z1 / (d * d) + z2 < 2.0 * z3 * r
    g = d ** 2
    return z1 + z2 * g < 2.0 * z3 * r * g


def _unit_lower_ok(z1: float, z2: float, z3: float, beta: float, r: float, theta: float) -> bool:
    """lambda > -1 for both eigenvalues: z1 + (z2 + 2/theta)*(1+b r)^2 > 4 z3 r (1+b r)^2."""
    d = 1.0 + beta * r
    if d >= _SQRT_OVERFLOW:
        return z1 / (d * d) + (z2 + 2.0 / theta) > 4.0 * z3 * r
    g = d ** 2
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
    if not (math.isfinite(r_star) and r_star >= 0):
        raise ValueError(f"r_star must be finite and >= 0, got {r_star!r}")
    buf = BufferView(b_curr=10.0, b_ref=10.0)  # b_curr = b_ref by assumption
    z = foc_coefficients(params, model, buf, export_bw)
    flags = (
        _unit_upper_ok(z.z1, z.z2, z.z3, model.beta, r_star),
        _unit_lower_ok(z.z1, z.z2, z.z3, model.beta, r_star, theta),
    )
    jac = jacobian_2user(
        params, [model, model], [buf, buf], export_bw, [r_star, r_star], [theta, theta]
    )
    return flags, build_report(jac)
