"""The N-dimensional equilibrium solver that ``game.solve_equilibrium`` replaced.

Kept as a test oracle, unchanged in its arithmetic: damped Newton on the
gradient vector over the free coordinates (each step O(N) by
Sherman-Morrison), a backtracking line search and a stall counter, then
round-robin best-response sweeps by bisection.  ``method="best_response"``
runs the sweeps alone.  ``tests/test_pins.py``, the one module that holds
every byte pin, checks its outputs against ``data/oracle_sha256.json``
(the cases run under ``tests/test_solver_pin.py``).
``python tests/test_pins.py`` regenerates every other pin file after a named
drift (and each preset's horizon, the first segment that a 1e-15 nudge to
the payoff gradient moves by more than 1e-6), but never this one, so the
oracle stays the solver it was.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from dashgame.game import EquilibriumResult, _projected_residuals
from dashgame.model import BufferView, GameParams, UtilityGradients, VideoQualityModel


def own_rate_root(
    z1: float, z2: float, z3: float, beta: float, sum_others: float, r_max: float, tol: float
) -> float:
    """Own-rate FOC root in [0, r_max] by bisection, to within ``tol``."""

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


def newton_step(diag: np.ndarray, c: float, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(diag(d) - c*1*1^T) x = rhs`` in O(N) by Sherman-Morrison."""
    inv_d = 1.0 / diag
    y = rhs * inv_d
    return y + inv_d * (c * float(y.sum()) / (1.0 - c * float(inv_d.sum())))


def oracle_solve(
    params: GameParams,
    models: Sequence[VideoQualityModel],
    bufs: Sequence[BufferView],
    export_bw: float,
    r_max: float,
    tol: float = 1e-9,
    max_iter: int = 10000,
    method: str = "newton",
) -> EquilibriumResult:
    """Solve the N-user projected FOC system over [0, r_max]^N."""
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

    def evaluate(r: np.ndarray) -> tuple[np.ndarray, float]:
        g = grad._gradients(r)
        return g, float(_projected_residuals(g, r, r_max).max())

    if method == "newton":
        stalls = 0
        # the gradient and residual at the current rates, carried over from
        # the accepted trial (unchanged after a stalled step)
        grads, cur = evaluate(rates)
        while iterations < max_iter:
            if cur <= tol:
                return EquilibriumResult(rates.tolist(), cur, iterations, True)
            free = ~(((rates <= 0.0) & (grads < 0)) | ((rates >= r_max) & (grads > 0)))
            if not free.any():
                # all coordinates pinned but some still violated: treat as stall
                break
            idx = np.flatnonzero(free)
            b = grad.betas[idx]
            diag = -grad.z1[idx] * b / (1.0 + b * rates[idx]) ** 2
            step = newton_step(diag, grad.z3, -grads[idx])
            t = 1.0
            moved = False
            while t >= 1e-4:
                trial = rates.copy()
                trial[idx] = np.clip(rates[idx] + t * step, 0.0, r_max)
                trial_grads, trial_res = evaluate(trial)
                if trial_res < (1.0 - 0.25 * t) * cur:
                    rates, grads, cur = trial, trial_grads, trial_res
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
            new_rate = own_rate_root(
                z1[i], z2[i], grad.z3, betas[i], sum_others, r_max, 1e-13 * max(1.0, r_max)
            )
            max_change = max(max_change, abs(new_rate - rates[i]))
            rates[i] = new_rate
        iterations += 1
        _, res = evaluate(rates)
        if res <= tol:
            return EquilibriumResult(rates.tolist(), res, iterations, True)
        if max_change == 0.0:
            break

    _, res = evaluate(rates)
    return EquilibriumResult(rates.tolist(), res, iterations, res <= tol)
