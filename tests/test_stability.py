"""Jacobians, the LAPACK spectrum, and closed-form stability conditions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dashgame.adapt import AdaptConfig, UserSession, run_round
from dashgame.game import foc_coefficients, solve_equilibrium
from dashgame.model import (
    BufferView,
    GameParams,
    UtilityGradients,
    VideoQualityModel,
    utility_gradient,
)
from dashgame.stability import (
    EigenvalueError,
    build_report,
    eigenvalues_small,
    jacobian_2user,
    jacobian_numeric,
    spectral_radius,
    stability_conditions_identical_2user,
)
from conftest import random_instance

BW = 6.0


def test_jacobian_vanishing_theta_is_identity(ref_params, ref_video, neutral_buffer):
    jac = jacobian_2user(
        ref_params, [ref_video] * 2, [neutral_buffer] * 2, BW, [3.0, 3.0], [1e-14, 1e-14]
    )
    np.testing.assert_allclose(jac, np.eye(2), atol=1e-12)


def test_jacobian_symmetric_instance(ref_params, ref_video, neutral_buffer):
    jac = jacobian_2user(
        ref_params, [ref_video] * 2, [neutral_buffer] * 2, BW, [2.5, 2.5], [80.0, 80.0]
    )
    assert jac[0, 0] == jac[1, 1]
    assert jac[0, 1] == jac[1, 0]


def test_jacobian_analytic_matches_numeric():
    rng = np.random.default_rng(21)
    for _ in range(25):
        params, videos, bufs, bw = random_instance(rng, n_users=2)
        rates = [float(rng.uniform(0.5, 8.0)) for _ in range(2)]
        thetas = [float(rng.uniform(1.0, 120.0)) for _ in range(2)]
        ana = jacobian_2user(params, videos, bufs, bw, rates, thetas)
        num = jacobian_numeric(params, videos, bufs, bw, rates, thetas)
        np.testing.assert_allclose(ana, num, atol=1e-6)


def test_jacobian_numeric_scalar_case(ref_params, ref_video, neutral_buffer):
    # d/dr [r + theta*r*g(r)] = 1 + theta*(g + r*g')
    theta, r = 7.0, 4.0
    z1 = ref_video.alpha * ref_video.beta
    beta = ref_video.beta
    T = ref_params.segment_duration
    z2 = ref_params.mu * T
    z3 = ref_params.nu * T / BW
    g = z1 / (1 + beta * r) + z2 - z3 * r
    gp = -beta * z1 / (1 + beta * r) ** 2 - z3
    expected = 1 + theta * (g + r * gp)
    num = jacobian_numeric(ref_params, [ref_video], [neutral_buffer], BW, [r], [theta])
    assert num[0, 0] == pytest.approx(expected, abs=1e-7)


def test_jacobian_numeric_permutation_equivariance():
    rng = np.random.default_rng(22)
    params, videos, bufs, bw = random_instance(rng, n_users=3)
    rates = [1.0, 2.0, 3.0]
    thetas = [10.0, 20.0, 30.0]
    jac = jacobian_numeric(params, videos, bufs, bw, rates, thetas)
    perm = [2, 0, 1]
    jac_p = jacobian_numeric(
        params,
        [videos[i] for i in perm],
        [bufs[i] for i in perm],
        bw,
        [rates[i] for i in perm],
        [thetas[i] for i in perm],
    )
    np.testing.assert_allclose(jac_p, jac[np.ix_(perm, perm)], atol=1e-9)


def _jacobian_analytic(params, videos, bufs, bw, rates, thetas):
    """J = diag(1 + theta_i*g_i) + diag(theta_i*r_i) * dg/dr, any N."""
    n = len(rates)
    jac = np.empty((n, n))
    for i in range(n):
        z = foc_coefficients(params, videos[i], bufs[i], bw)
        g = utility_gradient(params, videos[i], i, rates, bufs[i], bw)
        beta = videos[i].beta
        jac[i, :] = -thetas[i] * rates[i] * z.z3
        jac[i, i] += 1.0 + thetas[i] * (
            g - rates[i] * z.z1 * beta / (1.0 + beta * rates[i]) ** 2
        )
    return jac


def test_jacobian_numeric_at_zero_rate_equilibrium():
    # a starved user (empty buffer, weak video) sits at rate 0, where the
    # central difference's minus leg would be a negative rate
    params = GameParams(mu=0.006, nu=0.014, p=0.25, segment_duration=2.0)
    videos = [
        VideoQualityModel(alpha=0.045, beta=1.2, ladder=(1.0,)),
        VideoQualityModel(alpha=0.02, beta=0.8, ladder=(1.0,)),
    ]
    bufs = [BufferView(b_curr=40.0, b_ref=20.0), BufferView(b_curr=0.0, b_ref=20.0)]
    eq = solve_equilibrium(params, videos, bufs, 3.0, r_max=60.0)
    assert eq.converged and eq.rates[1] == 0.0 and eq.rates[0] > 0.0
    thetas = [40.0, 40.0]
    num = jacobian_numeric(params, videos, bufs, 3.0, eq.rates, thetas)
    ana = jacobian_2user(params, videos, bufs, 3.0, eq.rates, thetas)
    np.testing.assert_allclose(num, ana, atol=1e-6)

    rng = np.random.default_rng(29)
    videos = [
        VideoQualityModel(alpha=float(a), beta=float(b), ladder=(1.0,))
        for a, b in zip(rng.uniform(0.035, 0.045, 8), rng.uniform(0.8, 1.2, 8))
    ]
    bufs = [BufferView(b_curr=b, b_ref=20.0) for b in (0.0, 40.0) * 4]
    eq = solve_equilibrium(params, videos, bufs, 12.0, r_max=3.15)
    assert eq.converged and min(eq.rates) == 0.0
    thetas = [40.0] * 8
    num = jacobian_numeric(params, videos, bufs, 12.0, eq.rates, thetas)
    ana = _jacobian_analytic(params, videos, bufs, 12.0, eq.rates, thetas)
    np.testing.assert_allclose(num, ana, atol=1e-6)


def test_jacobian_numeric_matches_analytic_n_user():
    rng = np.random.default_rng(30)
    for _ in range(20):
        params, videos, bufs, bw = random_instance(rng, n_users=int(rng.integers(1, 13)))
        rates = [float(r) for r in rng.uniform(0.0, 8.0, len(videos))]
        rates[0] = 0.0
        thetas = [float(t) for t in rng.uniform(1.0, 120.0, len(videos))]
        num = jacobian_numeric(params, videos, bufs, bw, rates, thetas)
        ana = _jacobian_analytic(params, videos, bufs, bw, rates, thetas)
        np.testing.assert_allclose(num, ana, atol=1e-6)


def test_jacobian_numeric_rejects_negative_rates(ref_params, ref_video, neutral_buffer):
    with pytest.raises(ValueError, match="rates"):
        jacobian_numeric(
            ref_params, [ref_video] * 2, [neutral_buffer] * 2, BW, [-1.0, 2.0], [5.0, 5.0]
        )


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_jacobian_2user_rejects_bad_rates(bad, ref_params, ref_video, neutral_buffer):
    # these gave a NaN matrix or one for a negative rate, without a word
    with pytest.raises(ValueError, match="rates"):
        jacobian_2user(
            ref_params, [ref_video] * 2, [neutral_buffer] * 2, BW, [bad, 2.0], [5.0, 5.0]
        )


@pytest.mark.parametrize("step", [0.0, -1e-6, float("nan"), float("inf"), float("-inf")])
def test_jacobian_numeric_rejects_bad_step(step, ref_params, ref_video, neutral_buffer):
    # step=0 gave a non-finite matrix; the others blamed the rates
    with pytest.raises(ValueError, match="step"):
        jacobian_numeric(
            ref_params, [ref_video] * 3, [neutral_buffer] * 3, BW, [1.0, 2.0, 3.0],
            [5.0] * 3, step=step,
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -5.0])
@pytest.mark.parametrize("jac_fn", [jacobian_2user, jacobian_numeric])
def test_jacobians_reject_bad_thetas(jac_fn, bad, ref_params, ref_video, neutral_buffer):
    # a NaN theta gave a silently NaN matrix
    with pytest.raises(ValueError, match="thetas"):
        jac_fn(ref_params, [ref_video] * 2, [neutral_buffer] * 2, BW, [1.0, 2.0], [5.0, bad])


def oracle_jacobian_numeric(params, models, bufs, export_bw, rates, thetas, step=1e-6):
    """The per-column finite-difference Jacobian: one 1-D map evaluation per leg."""
    n = len(rates)
    grad = UtilityGradients(params, models, bufs, export_bw)
    r = np.asarray(rates, dtype=float)
    theta = np.asarray(thetas, dtype=float)

    def update_map(x):
        return x + theta * x * grad(x)

    def shifted(j, h):
        x = r.copy()
        x[j] += h
        return update_map(x)

    f_r = update_map(r)
    jac = np.empty((n, n))
    for j in range(n):
        if r[j] >= step:
            jac[:, j] = (shifted(j, step) - shifted(j, -step)) / (2.0 * step)
        else:
            jac[:, j] = (-3.0 * f_r + 4.0 * shifted(j, step) - shifted(j, 2.0 * step)) / (2.0 * step)
    return jac


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    at_equilibrium=st.booleans(),
    step=st.sampled_from([1e-6, 1e-4, 0.01]),
)
@example(n=8, seed=0, at_equilibrium=True, step=1e-6)
@example(n=64, seed=5, at_equilibrium=True, step=1e-6)
def test_jacobian_numeric_matches_per_column_oracle(n, seed, at_equilibrium, step):
    """The batched stencil gives the per-column Jacobian bit for bit, at
    equilibria with starved users (one-sided columns) and at a rate of
    exactly ``step`` (the first central column)."""
    rng = np.random.default_rng(seed)
    params = GameParams(
        mu=0.006, nu=float(rng.uniform(0.005, 0.03)), p=0.25, segment_duration=2.0
    )
    videos = [
        VideoQualityModel(alpha=float(a), beta=float(b), ladder=(1.0,))
        for a, b in zip(rng.uniform(0.02, 0.5, n), rng.uniform(0.05, 1.5, n))
    ]
    # buffers from empty to twice the reference: empty ones starve at rate 0
    bufs = [BufferView(b_curr=float(b), b_ref=20.0) for b in rng.uniform(0.0, 40.0, n)]
    bw = float(rng.uniform(1.5, 3.0)) * n
    if at_equilibrium:
        eq = solve_equilibrium(params, videos, bufs, bw, r_max=float(rng.uniform(2.0, 20.0)))
        assert eq.converged
        rates = list(eq.rates)
    else:
        rates = [float(r) for r in rng.uniform(0.0, 10.0, n)]
        rates[int(rng.integers(n))] = 0.0
    if n > 1:
        rates[int(rng.integers(n))] = step
    thetas = [float(t) for t in rng.uniform(1.0, 300.0, n)]
    got = jacobian_numeric(params, videos, bufs, bw, rates, thetas, step=step)
    ref = oracle_jacobian_numeric(params, videos, bufs, bw, rates, thetas, step=step)
    assert got.shape == (n, n)
    assert np.array_equal(got, ref)


def test_eigenvalues_hand_cases():
    assert eigenvalues_small([[0.5, 0.1], [0.1, 0.5]]) == [pytest.approx(0.6), pytest.approx(0.4)]
    got = eigenvalues_small(np.diag([1.2, 0.5]))
    assert got == [pytest.approx(1.2), pytest.approx(0.5)]
    rot = eigenvalues_small([[0.0, -1.0], [1.0, 0.0]])
    assert sorted(z.imag for z in rot) == [pytest.approx(-1.0), pytest.approx(1.0)]
    assert spectral_radius([[0.0, -1.0], [1.0, 0.0]]) == pytest.approx(1.0)


def _matched_spectrum_error(mine, ref):
    """Greedy nearest pairing; spectra are unordered multisets."""
    pool = list(ref)
    worst = 0.0
    for z in mine:
        j = min(range(len(pool)), key=lambda i: abs(pool[i] - z))
        worst = max(worst, abs(pool[j] - z))
        pool.pop(j)
    return worst


def test_eigenvalues_match_numpy_on_random_matrices():
    rng = np.random.default_rng(23)
    for _ in range(150):
        n = int(rng.integers(1, 129))
        scale = float(rng.choice([0.01, 1.0, 100.0]))
        m = rng.normal(size=(n, n)) * scale
        got = eigenvalues_small(m)
        err = _matched_spectrum_error(got, np.linalg.eigvals(m))
        assert err < 1e-7 * max(1.0, scale) * n
        mags = [abs(z) for z in got]
        assert mags == sorted(mags, reverse=True)


def test_eigenvalues_defective_matrix():
    jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
    got = eigenvalues_small(jordan)
    assert all(z == pytest.approx(2.0, abs=1e-6) for z in got)


def test_eigenvalues_sorted_by_magnitude():
    rng = np.random.default_rng(24)
    m = rng.normal(size=(6, 6))
    got = eigenvalues_small(m)
    mags = [abs(z) for z in got]
    assert mags == sorted(mags, reverse=True)


def test_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        eigenvalues_small(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eigenvalues_small(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        eigenvalues_small([[float("nan"), 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        build_report([[float("inf"), 0.0], [0.0, 1.0]])
    # no size limit: 65x65 and above are accepted
    m = np.diag(np.arange(65.0)) + np.triu(np.ones((65, 65)), 1)
    assert eigenvalues_small(m) == [pytest.approx(float(k)) for k in range(64, -1, -1)]


def test_eigenvalues_lapack_failure_raises_eigenvalue_error(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(EigenvalueError):
        eigenvalues_small(np.eye(3))


def oracle_eigenvalues(matrix):
    """The key-sorted spectrum: one Python complex per eigenvalue, sorted by
    ``(-abs(z), -z.real, -z.imag)``."""
    a = np.asarray(matrix)
    a = a.astype(complex if np.iscomplexobj(a) else float)
    eigs = [complex(z) for z in np.linalg.eigvals(a)]
    eigs.sort(key=lambda z: (-abs(z), -z.real, -z.imag))
    return eigs


def _tie_matrices():
    yield np.eye(5)
    # 0.0 and -0.0 tie on every key: only a stable sort keeps LAPACK's order
    yield np.diag([0.0, -0.0, 1.0, -0.0])
    yield np.diag([0.0, -0.0, 1.0, -0.0]).astype(complex)
    yield np.diag([2.0, -2.0, 2.0, 1.0, -1.0, 0.0, 0.0])
    yield np.diag([1j, -1j, 1.0, -1.0, 1.0 + 0j])  # four eigenvalues of magnitude 1
    yield np.array([[0.0, -1.0], [1.0, 0.0]])  # the conjugate pair +-i
    # block-diagonal rotations: repeated conjugate pairs of equal magnitude
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    yield np.kron(np.eye(3), rot)
    yield np.kron(np.diag([1.0, -1.0]), rot)


def test_eigenvalues_match_key_sort_oracle():
    """The numpy lexsort gives the old Python key sort's list, value for value."""
    rng = np.random.default_rng(31)
    cases = list(_tie_matrices())
    for _ in range(120):
        n = int(rng.integers(1, 70))
        m = rng.normal(size=(n, n))
        if rng.random() < 0.5:
            m = m + 1j * rng.normal(size=(n, n))
        cases.append(m)
    for m in cases:
        got = eigenvalues_small(m)
        ref = oracle_eigenvalues(m)
        assert got == ref
        assert [repr(z) for z in got] == [repr(z) for z in ref]
        assert all(type(z) is complex for z in got)
        assert build_report(m).spectral_radius == max(abs(z) for z in ref)


@pytest.mark.filterwarnings("error")
def test_report_keeps_a_complex_jacobian():
    # the report stored a zeroed float copy, with a ComplexWarning
    m = np.array([[0.0, 1j], [1j, 0.0]])
    report = build_report(m)
    assert report.jacobian.dtype == complex
    assert np.array_equal(report.jacobian, m)
    assert sorted(z.imag for z in report.eigenvalues) == [pytest.approx(-1.0), pytest.approx(1.0)]
    assert report.verdict == "marginal"
    # a real matrix stays real
    assert build_report([[0.5, 0.0], [0.0, 0.2]]).jacobian.dtype == float


def test_report_verdicts():
    stable = build_report(np.diag([0.5, -0.2]))
    assert stable.stable and stable.verdict == "stable"
    unstable = build_report(np.diag([1.5, 0.1]))
    assert not unstable.stable and unstable.verdict == "unstable"
    marginal = build_report(np.diag([1.0, 0.0]))
    assert not marginal.stable and marginal.verdict == "marginal"


def test_conditions_small_theta_marginal(ref_params, ref_video):
    flags, report = stability_conditions_identical_2user(
        ref_params, ref_video, 1e-9, 3.0, BW
    )
    assert flags[1]  # the lower bound is always satisfiable as theta -> 0
    assert report.spectral_radius == pytest.approx(1.0, abs=1e-6)


def test_conditions_cross_oracle_agreement():
    """Closed-form verdict equals the spectral-radius verdict away from the boundary."""
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 100:
        params, videos, bufs, bw = random_instance(rng, n_users=2, identical=True)
        video = videos[0]
        theta = float(rng.uniform(1.0, 300.0))
        r_star = float(rng.uniform(0.2, 20.0))
        flags, report = stability_conditions_identical_2user(params, video, theta, r_star, bw)
        if min(abs(abs(z) - 1.0) for z in report.eigenvalues) < 1e-3:
            continue
        assert (flags[0] and flags[1]) == report.stable
        checked += 1


def test_conditions_large_theta_unstable():
    # recalibrated load weight puts the symmetric equilibrium at 3 Mbps; there
    # the lower inequality must break for a large enough learning rate and the
    # spectrum must agree
    params = GameParams(mu=0.003, nu=0.07423027001041584, p=0.1, segment_duration=2.0)
    video = VideoQualityModel(alpha=2.15, beta=0.0827, ladder=(1.0,))
    theta = 1.0
    broke = False
    while theta < 1e6:
        flags, report = stability_conditions_identical_2user(params, video, theta, 3.0, BW)
        if not flags[1]:
            assert report.spectral_radius >= 1.0
            broke = True
            break
        theta *= 2.0
    assert broke, "no instability found while scaling theta"


def _local_dynamics_instance(rng, want_stable):
    while True:
        params, videos, bufs, bw = random_instance(rng, n_users=int(rng.integers(2, 5)))
        r_max = 60.0
        eq = solve_equilibrium(params, videos, bufs, bw, r_max=r_max)
        if not eq.converged or not all(0.2 < r < r_max - 1 for r in eq.rates):
            continue
        for theta in (0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 60.0, 150.0, 400.0):
            thetas = [theta] * len(videos)
            jac = jacobian_numeric(params, videos, bufs, bw, eq.rates, thetas)
            rho = spectral_radius(jac)
            if want_stable and rho <= 0.95:
                return params, videos, bufs, bw, eq.rates, thetas, rho
            if not want_stable and rho >= 1.05:
                return params, videos, bufs, bw, eq.rates, thetas, rho


def _iterate_local(params, videos, bufs, bw, rates, thetas, rounds):
    cfg_by_theta = {
        t: AdaptConfig(theta=t, r_max=1e9, r_min=1e-9, r_init=1e-9, max_step_fraction=math.inf)
        for t in set(thetas)
    }
    sessions = [
        UserSession(i, videos[i], cfg_by_theta[thetas[i]], rate=r,
                    b_curr=bufs[i].b_curr, b_ref=bufs[i].b_ref)
        for i, r in enumerate(rates)
    ]
    out = [list(rates)]
    for _ in range(rounds):
        out.append(run_round(sessions, params, bw))
    return out


def test_stable_spectrum_implies_local_convergence():
    rng = np.random.default_rng(26)
    for _ in range(5):
        params, videos, bufs, bw, eq, thetas, rho = _local_dynamics_instance(rng, True)
        start = [r * 1.01 for r in eq]
        traj = _iterate_local(params, videos, bufs, bw, start, thetas, 400)
        final = max(abs(a - b) for a, b in zip(traj[-1], eq))
        initial = max(abs(a - b) for a, b in zip(start, eq))
        assert final < 1e-5 * initial + 1e-9


def test_unstable_spectrum_implies_local_divergence():
    rng = np.random.default_rng(27)
    for _ in range(5):
        params, videos, bufs, bw, eq, thetas, rho = _local_dynamics_instance(rng, False)
        start = [r * 1.01 for r in eq]
        initial = max(abs(a - b) for a, b in zip(start, eq))
        traj = _iterate_local(params, videos, bufs, bw, start, thetas, 50)
        dist = max(max(abs(a - b) for a, b in zip(row, eq)) for row in traj)
        assert dist > 5.0 * initial


def test_local_convergence_rate_tracks_spectral_radius():
    rng = np.random.default_rng(28)
    params, videos, bufs, bw, eq, thetas, rho = _local_dynamics_instance(rng, True)
    start = [r * 1.001 for r in eq]
    traj = _iterate_local(params, videos, bufs, bw, start, thetas, 60)
    dists = [max(abs(a - b) for a, b in zip(row, eq)) for row in traj]
    # observed per-round contraction over the tail should not beat the spectrum claim
    tail = [d for d in dists if d > 1e-12]
    if len(tail) > 20:
        ratio = (tail[-1] / tail[10]) ** (1.0 / (len(tail) - 11))
        assert ratio <= rho + 0.05
