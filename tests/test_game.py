"""Equilibrium machinery against closed forms and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dashgame.game import (
    EquilibriumResult,
    FocCoefficients,
    _projected_residuals,
    best_response,
    closed_form_identical_2user,
    foc_coefficients,
    solve_equilibrium,
)
from dashgame.model import BufferView, VideoQualityModel, adjustment_factor, utility_gradient
from conftest import random_instance
from solver_oracle import oracle_solve

BW = 6.0


def test_foc_coefficients_worked_values(ref_params, ref_video, neutral_buffer):
    z = foc_coefficients(ref_params, ref_video, neutral_buffer, BW)
    assert z.z1 == pytest.approx(0.177805, rel=1e-12)
    assert z.z2 == pytest.approx(0.006, rel=1e-12)
    assert z.z3 == pytest.approx(0.0013666666666666669, rel=1e-12)


def test_foc_coefficients_neutral_buffer_exact(ref_params, ref_video):
    # adjustment factor is exactly 1 at the reference, so z2 = mu * T
    z = foc_coefficients(ref_params, ref_video, BufferView(b_curr=9.0, b_ref=9.0), BW)
    assert z.z2 == ref_params.mu * ref_params.segment_duration


def brute_force_best_response(params, video, buf, others, bw, r_max, n_grid=300000):
    """Independent oracle: direct grid argmax of the utility itself."""
    grid = np.linspace(0.0, r_max, n_grid)
    alpha, beta = video.alpha, video.beta
    from dashgame.model import adjustment_factor
    a_f = adjustment_factor(params.p, buf.b_curr, buf.b_ref)
    T = params.segment_duration
    s = float(sum(others))
    vals = (
        alpha * np.log1p(beta * grid)
        + params.mu * a_f * T * grid
        - params.nu * T * (0.5 * grid * grid + grid * s) / bw
        + params.mu * buf.b_0
    )
    return float(grid[np.argmax(vals)])


def test_best_response_corner_at_zero(ref_params, ref_video, neutral_buffer):
    # enough competing demand drives the marginal payoff negative at zero
    others = [200.0]
    assert best_response(ref_params, ref_video, neutral_buffer, others, BW, 10.0) == 0.0


def test_best_response_fixed_point_of_closed_form(ref_params, ref_video, neutral_buffer):
    z = foc_coefficients(ref_params, ref_video, neutral_buffer, BW)
    r_star = closed_form_identical_2user(z, ref_video.beta)
    br = best_response(ref_params, ref_video, neutral_buffer, [r_star], BW, 60.0)
    assert br == pytest.approx(r_star, abs=1e-6)


def test_best_response_monotone_in_competition(ref_params, ref_video, neutral_buffer):
    rng = np.random.default_rng(7)
    prev = best_response(ref_params, ref_video, neutral_buffer, [0.0], BW, 60.0)
    for s in sorted(rng.uniform(0.5, 80.0, size=20)):
        cur = best_response(ref_params, ref_video, neutral_buffer, [float(s)], BW, 60.0)
        assert cur <= prev + 1e-9
        prev = cur


def test_best_response_matches_grid_oracle(ref_params, ref_video, neutral_buffer):
    rng = np.random.default_rng(8)
    for _ in range(5):
        others = [float(rng.uniform(0, 30))]
        got = best_response(ref_params, ref_video, neutral_buffer, others, BW, 60.0)
        ref = brute_force_best_response(ref_params, ref_video, neutral_buffer, others, BW, 60.0)
        assert got == pytest.approx(ref, abs=5e-4)


def test_closed_form_worked_value(ref_params, ref_video, neutral_buffer):
    # with the reference constants the static symmetric equilibrium is ~24 Mbps
    z = foc_coefficients(ref_params, ref_video, neutral_buffer, BW)
    r_star = closed_form_identical_2user(z, ref_video.beta)
    assert r_star == pytest.approx(23.993192638983356, rel=1e-12)


def test_closed_form_is_best_response_fixed_point_oracle(ref_params, ref_video, neutral_buffer):
    # iterate the independent grid-argmax response map to its fixed point
    z = foc_coefficients(ref_params, ref_video, neutral_buffer, BW)
    r_star = closed_form_identical_2user(z, ref_video.beta)
    r = 5.0
    for _ in range(60):
        r = brute_force_best_response(ref_params, ref_video, neutral_buffer, [r], BW, 60.0)
    assert r == pytest.approx(r_star, abs=2e-3)


def test_closed_form_foc_residual(ref_params, ref_video, neutral_buffer):
    z = foc_coefficients(ref_params, ref_video, neutral_buffer, BW)
    r = closed_form_identical_2user(z, ref_video.beta)
    residual = z.z1 / (1 + ref_video.beta * r) + z.z2 - z.z3 * 2 * r
    assert abs(residual) < 1e-9


def test_closed_form_degenerate_z2():
    z = FocCoefficients(z1=0.177805, z2=0.0, z3=0.0013666666666666669)
    beta = 0.0827
    got = closed_form_identical_2user(z, beta)
    z3 = z.z3
    expected = (-2 * z3 + np.sqrt(4 * z3**2 + 8 * beta * z.z1 * z3)) / (4 * beta * z3)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0


def test_solver_matches_closed_form_identical_pair(ref_params, ref_video, neutral_buffer):
    res = solve_equilibrium(ref_params, [ref_video] * 2, [neutral_buffer] * 2, BW, r_max=60.0)
    assert res.converged
    assert abs(res.rates[0] - res.rates[1]) < 1e-8
    z = foc_coefficients(ref_params, ref_video, neutral_buffer, BW)
    assert res.rates[0] == pytest.approx(closed_form_identical_2user(z, ref_video.beta), abs=1e-6)


def test_solver_single_user_reduces_to_best_response(ref_params, ref_video, neutral_buffer):
    res = solve_equilibrium(ref_params, [ref_video], [neutral_buffer], BW, r_max=60.0)
    br = best_response(ref_params, ref_video, neutral_buffer, [], BW, 60.0)
    assert res.rates[0] == pytest.approx(br, abs=1e-6)


def test_solver_alpha_ordering_with_grid_oracle(ref_params, neutral_buffer):
    """Two users differing only in alpha: the larger alpha takes a weakly larger rate."""
    hi = VideoQualityModel(alpha=2.6, beta=0.0827, ladder=(1.0,))
    lo = VideoQualityModel(alpha=1.7, beta=0.0827, ladder=(1.0,))
    res = solve_equilibrium(ref_params, [hi, lo], [neutral_buffer] * 2, BW, r_max=60.0)
    assert res.converged
    assert res.rates[0] >= res.rates[1]

    # brute-force oracle: alternate 1-D grid best responses at 1e-3 resolution
    r = [5.0, 5.0]
    for _ in range(200):
        r0 = brute_force_best_response(ref_params, hi, neutral_buffer, [r[1]], BW, 60.0, n_grid=60001)
        r1 = brute_force_best_response(ref_params, lo, neutral_buffer, [r0], BW, 60.0, n_grid=60001)
        r = [r0, r1]
    assert r[0] >= r[1]
    assert res.rates[0] == pytest.approx(r[0], abs=5e-3)
    assert res.rates[1] == pytest.approx(r[1], abs=5e-3)


def test_solver_succeeds_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(200):
        params, videos, bufs, bw = random_instance(rng)
        res = solve_equilibrium(params, videos, bufs, bw, r_max=float(rng.uniform(5, 50)))
        assert res.converged, (params, bw)
        assert res.residual <= 1e-9


def test_equilibrium_is_best_response_fixed_point():
    rng = np.random.default_rng(11)
    for _ in range(50):
        params, videos, bufs, bw = random_instance(rng)
        r_max = float(rng.uniform(5, 50))
        res = solve_equilibrium(params, videos, bufs, bw, r_max=r_max)
        assert res.converged
        for i in range(len(videos)):
            others = [r for j, r in enumerate(res.rates) if j != i]
            br = best_response(params, videos[i], bufs[i], others, bw, r_max)
            assert br == pytest.approx(res.rates[i], abs=1e-6)


def test_aggregate_bisection_oracle():
    """Independent solver: the FOC system collapses to one monotone scalar
    equation in the aggregate rate; bisection on it must agree with Newton."""
    rng = np.random.default_rng(12)
    for _ in range(30):
        params, videos, bufs, bw = random_instance(rng)
        r_max = 40.0
        zs = [foc_coefficients(params, v, b, bw) for v, b in zip(videos, bufs)]

        def user_rate(z, beta, total):
            lever = z.z3 * total - z.z2
            if lever <= 0:
                return r_max
            r = (z.z1 / lever - 1.0) / beta
            return min(max(r, 0.0), r_max)

        lo, hi = 0.0, r_max * len(videos) + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            s = sum(user_rate(z, v.beta, mid) for z, v in zip(zs, videos))
            if s > mid:
                lo = mid
            else:
                hi = mid
        total = 0.5 * (lo + hi)
        oracle = [user_rate(z, v.beta, total) for z, v in zip(zs, videos)]
        res = solve_equilibrium(params, videos, bufs, bw, r_max=r_max)
        assert res.converged
        np.testing.assert_allclose(res.rates, oracle, atol=1e-6)


def test_result_reports_nonconvergence_honestly(ref_params, ref_video, neutral_buffer):
    res = solve_equilibrium(
        ref_params, [ref_video] * 2, [neutral_buffer] * 2, BW, r_max=60.0, max_iter=1
    )
    assert isinstance(res, EquilibriumResult)
    if not res.converged:
        assert res.residual > 1e-9


def _projected_foc_residual(params, videos, bufs, bw, rates, r_max):
    """Independent of the solver: the scalar gradient of every user."""
    worst = 0.0
    for i, r in enumerate(rates):
        g = utility_gradient(params, videos[i], i, rates, bufs[i], bw)
        if r <= 0.0:
            worst = max(worst, g)
        elif r >= r_max:
            worst = max(worst, -g)
        else:
            worst = max(worst, abs(g))
    return worst


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 512), seed=st.integers(0, 2**32 - 1), r_max=st.floats(0.5, 60.0))
def test_solver_paths_meet_tolerance_and_agree(n, seed, r_max):
    """The aggregate-load solver against the N-dimensional Newton oracle."""
    rng = np.random.default_rng(seed)
    params, videos, bufs, bw = random_instance(rng, n_users=n)
    res = solve_equilibrium(params, videos, bufs, bw, r_max=r_max)
    oracle = oracle_solve(params, videos, bufs, bw, r_max=r_max)
    for r in (res, oracle):
        assert r.converged and r.residual <= 1e-9
        # recomputed with the load summed in another order: allow its rounding
        assert _projected_foc_residual(params, videos, bufs, bw, r.rates, r_max) <= 1e-9 + 1e-12
    np.testing.assert_allclose(res.rates, oracle.rates, rtol=0, atol=1e-6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 512), seed=st.integers(0, 2**32 - 1), r_max=st.floats(0.5, 60.0))
def test_result_reports_the_final_load_bracket(n, seed, r_max):
    """The returned load lies in the reported bracket, within tol/z3 plus rounding."""
    rng = np.random.default_rng(seed)
    params, videos, bufs, bw = random_instance(rng, n_users=n)
    tol = 1e-9
    res = solve_equilibrium(params, videos, bufs, bw, r_max=r_max, tol=tol)
    assert res.converged
    lo, hi = res.bracket
    assert type(lo) is float and type(hi) is float
    assert lo <= hi
    z3 = params.nu * params.segment_duration / bw
    load = math.fsum(res.rates)
    slack = tol / z3 + 1e-12 * max(1.0, hi)
    assert lo - slack <= load <= hi + slack


def _potential(params, videos, bufs, bw, rates):
    """Exact potential of the game, summed in Python from the model's constants.

    ``sum_i (alpha_i*ln(1 + beta_i*r_i) + mu*T*A_f_i*r_i) - (nu*T/bw)*S^2/2``;
    its gradient in ``r_i`` is user i's own-rate utility gradient.
    """
    T = params.segment_duration
    own = math.fsum(
        v.alpha * math.log1p(v.beta * r)
        + params.mu * T * adjustment_factor(params.p, b.b_curr, b.b_ref) * r
        for v, b, r in zip(videos, bufs, rates)
    )
    load = math.fsum(rates)
    return own - params.nu * T / bw * load * load / 2.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), r_max=st.floats(0.5, 60.0))
def test_solution_maximises_potential(n, seed, r_max):
    """No feasible perturbation of the solver's output raises the potential."""
    rng = np.random.default_rng(seed)
    params, videos, bufs, bw = random_instance(rng, n_users=n)
    res = solve_equilibrium(params, videos, bufs, bw, r_max=r_max)
    assert res.converged
    rates = np.array(res.rates)
    best = _potential(params, videos, bufs, bw, res.rates)
    for _ in range(20):
        scale = r_max * 10.0 ** rng.uniform(-7.0, 0.0)
        moved = np.clip(rates + scale * rng.uniform(-1.0, 1.0, n), 0.0, r_max)
        # first order the rise is at most tol per unit moved; the rest is rounding
        slack = 1e-9 * float(np.abs(moved - rates).sum()) + 1e-12 * max(1.0, abs(best))
        assert _potential(params, videos, bufs, bw, moved.tolist()) <= best + slack


@pytest.mark.parametrize("r_max", [0.0, -1.0, math.inf, math.nan])
def test_solver_rejects_bad_r_max(ref_params, ref_video, neutral_buffer, r_max):
    with pytest.raises(ValueError, match="r_max"):
        solve_equilibrium(ref_params, [ref_video] * 2, [neutral_buffer] * 2, BW, r_max=r_max)


def _masked_projected_residuals(grads, rates, r_max):
    """The residuals by boolean masks, applied lower bound first, then upper."""
    res = np.abs(grads).astype(float)
    at_lower = rates <= 0.0
    at_upper = rates >= r_max
    res[at_lower] = np.maximum(grads[at_lower], 0.0)
    res[at_upper] = np.maximum(-grads[at_upper], 0.0)
    return res


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), r_max=st.sampled_from([0.0, 1.0, 8.0]))
def test_projected_residuals_match_masked_form(n, seed, r_max):
    rng = np.random.default_rng(seed)
    grads = rng.normal(size=n) * rng.choice([0.0, -0.0, 1.0], size=n)
    rates = rng.choice([0.0, r_max / 2, r_max, 2.0], size=n)
    got = _projected_residuals(grads, rates, r_max)
    ref = _masked_projected_residuals(grads, rates, r_max)
    assert got.tobytes() == ref.tobytes()


def test_projected_residuals_upper_bound_wins():
    # r_max = 0 puts a zero rate on both bounds: only an upward pull violates
    got = _projected_residuals(np.array([1.0, -1.0]), np.array([0.0, 0.0]), 0.0)
    assert got.tolist() == [0.0, 1.0]
