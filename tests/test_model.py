"""Utility-model formulas against hand-computed values and analytic limits."""

import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dashgame.game import foc_coefficients

from dashgame.model import (
    BufferView,
    GameParams,
    UtilityGradients,
    VideoQualityModel,
    adjustment_factor,
    estimated_buffer,
    log_quality,
    quality,
    serial_sum,
    utility,
    utility_gradient,
    utility_hessian,
    utility_hessian_entries,
)
from conftest import random_instance

BW = 6.0


def test_quality_zero_rate(ref_video):
    assert quality(ref_video, 0.0) == 0.0


def test_quality_degenerate_beta():
    # the formula itself tolerates a flat curve
    assert log_quality(2.15, 0.0, 5.0) == 0.0


def test_quality_worked_value(ref_video):
    assert quality(ref_video, 3.0) == pytest.approx(0.47648814912588255, rel=1e-12)


def test_quality_strictly_increasing(ref_video):
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = float(rng.uniform(0, 40))
        d = float(rng.uniform(1e-6, 2.0))
        assert quality(ref_video, r + d) > quality(ref_video, r)


def test_quality_rejects_negative(ref_video):
    with pytest.raises(ValueError):
        quality(ref_video, -0.5)


def test_adjustment_factor_neutral():
    assert adjustment_factor(0.1, 15.0, 15.0) == 1.0


def test_adjustment_factor_worked_value():
    assert adjustment_factor(0.1, 25.0, 15.0) == pytest.approx(1.4621171572600098, rel=1e-12)


def test_adjustment_factor_asymptotes_no_overflow():
    assert adjustment_factor(0.1, -1e7, 15.0) == pytest.approx(0.0, abs=1e-12)
    assert adjustment_factor(0.1, 1e7, 15.0) == pytest.approx(2.0, abs=1e-12)


def test_adjustment_factor_range_and_monotone():
    rng = np.random.default_rng(2)
    for _ in range(500):
        p = float(rng.uniform(0.01, 2.0))
        b = float(rng.uniform(-100, 100))
        ref = float(rng.uniform(1, 50))
        a = adjustment_factor(p, b, ref)
        b2 = adjustment_factor(p, b + 0.5, ref)
        assert 0.0 < a < 2.0
        assert b2 >= a
        if 1e-12 < a < 2.0 - 1e-12:  # strict except where floats saturate
            assert b2 > a


def test_adjustment_factor_requires_positive_p():
    with pytest.raises(ValueError):
        adjustment_factor(0.0, 10.0, 15.0)


def test_estimated_buffer_zero_rate(ref_params, neutral_buffer):
    got = estimated_buffer(ref_params, 0, [0.0, 7.3], neutral_buffer, BW)
    assert got == neutral_buffer.b_0


def test_estimated_buffer_worked_value(neutral_buffer):
    # omega = 1, neutral adjustment: 6 - 2*(4.5+9)/6 + 2
    params = GameParams(mu=0.003, nu=0.003, p=0.1, segment_duration=2.0)
    got = estimated_buffer(params, 0, [3.0, 3.0], neutral_buffer, BW)
    assert got == pytest.approx(3.5, rel=1e-12)


def test_estimated_buffer_competitor_monotone(ref_params, neutral_buffer):
    lo = estimated_buffer(ref_params, 0, [3.0, 2.0], neutral_buffer, BW)
    hi = estimated_buffer(ref_params, 0, [3.0, 2.5], neutral_buffer, BW)
    assert hi < lo


def test_estimated_buffer_index_error(ref_params, neutral_buffer):
    with pytest.raises(IndexError):
        estimated_buffer(ref_params, 2, [1.0, 2.0], neutral_buffer, BW)


def test_utility_worked_value(ref_params, ref_video, neutral_buffer):
    got = utility(ref_params, ref_video, 0, [3.0, 3.0], neutral_buffer, BW)
    assert got == pytest.approx(0.48203814912588255, rel=1e-12)


def test_utility_zero_point(ref_params, ref_video):
    buf = BufferView(b_curr=15.0, b_ref=15.0, b_0=0.0)
    assert utility(ref_params, ref_video, 0, [0.0, 4.0], buf, BW) == 0.0


def test_utility_decomposition():
    # utility == quality + mu * estimated_buffer, definitionally
    rng = np.random.default_rng(3)
    for _ in range(200):
        params, videos, bufs, bw = random_instance(rng)
        rates = [float(rng.uniform(0, 8)) for _ in videos]
        i = int(rng.integers(len(videos)))
        u = utility(params, videos[i], i, rates, bufs[i], bw)
        q = quality(videos[i], rates[i])
        b = estimated_buffer(params, i, rates, bufs[i], bw)
        assert u == pytest.approx(q + params.mu * b, rel=1e-12, abs=1e-15)


def test_gradient_worked_value(ref_params, ref_video, neutral_buffer):
    got = utility_gradient(ref_params, ref_video, 0, [3.0, 3.0], neutral_buffer, BW)
    assert got == pytest.approx(0.14026054002083166, rel=1e-12)


def _central_diff(params, video, i, rates, buf, bw, h):
    plus = list(rates)
    minus = list(rates)
    plus[i] += h
    minus[i] -= h
    return (
        utility(params, video, i, plus, buf, bw)
        - utility(params, video, i, minus, buf, bw)
    ) / (2 * h)


def test_gradient_matches_central_difference():
    rng = np.random.default_rng(4)
    for _ in range(100):
        params, videos, bufs, bw = random_instance(rng)
        rates = [float(rng.uniform(0.5, 8)) for _ in videos]
        i = int(rng.integers(len(videos)))
        ana = utility_gradient(params, videos[i], i, rates, bufs[i], bw)
        num = _central_diff(params, videos[i], i, rates, bufs[i], bw, 1e-6)
        assert num == pytest.approx(ana, rel=1e-6, abs=1e-9)


def test_gradient_finite_difference_order():
    # central differences converge at second order in the step
    params = GameParams(mu=0.002, nu=0.01, p=0.3, segment_duration=2.0)
    video = VideoQualityModel(alpha=3.0, beta=0.6, ladder=(1.0,))
    buf = BufferView(b_curr=12.0, b_ref=15.0)
    rates = [1.2, 0.8, 2.0]
    ana = utility_gradient(params, video, 0, rates, buf, BW)
    e3 = abs(_central_diff(params, video, 0, rates, buf, BW, 1e-3) - ana)
    e4 = abs(_central_diff(params, video, 0, rates, buf, BW, 1e-4) - ana)
    order = math.log(e3 / e4) / math.log(10.0)
    assert order >= 1.9


def test_gradient_vanishing_beta_limit(ref_params, neutral_buffer):
    video = VideoQualityModel(alpha=2.15, beta=1e-12, ladder=(1.0,))
    got = utility_gradient(ref_params, video, 0, [3.0, 3.0], neutral_buffer, BW)
    T = ref_params.segment_duration
    expected = ref_params.mu * T - ref_params.nu * T * 6.0 / BW
    assert got == pytest.approx(expected, abs=1e-10)


def test_vectorised_gradients_match_scalar_loop():
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 8, 33, 200):
        params, videos, bufs, bw = random_instance(rng, n_users=n)
        rates = [float(r) for r in rng.uniform(0.0, 10.0, n)]
        got = UtilityGradients(params, videos, bufs, bw)(rates)
        ref = [utility_gradient(params, videos[i], i, rates, bufs[i], bw) for i in range(n)]
        if n < 8:
            # same operations in the same order: identical bits
            assert got.tolist() == ref
        else:
            # numpy sums the load pairwise, the scalar function left to right
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * n * max(1.0, np.abs(ref).max()))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(1, 24), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_stacked_gradients_match_row_calls(n, m, seed):
    """An (m, N) call equals m 1-D calls bit for bit, below and above the
    8-user threshold where numpy's sum turns pairwise."""
    rng = np.random.default_rng(seed)
    params, videos, bufs, bw = random_instance(rng, n_users=n)
    stack = rng.uniform(0.0, 20.0, (m, n))
    stack[rng.random((m, n)) < 0.2] = 0.0
    grad = UtilityGradients(params, videos, bufs, bw)
    got = grad(stack)
    assert got.shape == (m, n)
    assert got.tobytes() == np.array([grad(row) for row in stack]).tobytes()
    assert grad(np.asfortranarray(stack)).tobytes() == got.tobytes()
    assert grad(stack[0]).tobytes() == grad(stack[0].tolist()).tobytes()


def test_vectorised_gradients_validate_rates(ref_params, ref_video, neutral_buffer):
    grad = UtilityGradients(ref_params, [ref_video] * 2, [neutral_buffer] * 2, BW)
    for bad in ([1.0, -0.5], [1.0, float("nan")], [1.0, float("inf")]):
        with pytest.raises(ValueError, match="rates"):
            grad(bad)
    with pytest.raises(ValueError, match="rates"):
        grad([1.0, 2.0, 3.0])
    # the message gives the shape it got
    with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
        grad([[1.0, 2.0, 3.0]] * 2)
    with pytest.raises(ValueError, match=r"shape \(1, 1, 2\)"):
        grad([[[1.0, 2.0]]])
    with pytest.raises(ValueError, match=r"shape \(\)"):
        grad(1.0)
    with pytest.raises(ValueError, match="rates"):
        grad([[1.0, 2.0], [1.0, -0.5]])
    with pytest.raises(ValueError, match="export_bw"):
        UtilityGradients(ref_params, [ref_video], [neutral_buffer], 0.0)
    with pytest.raises(ValueError, match="same length"):
        UtilityGradients(ref_params, [ref_video] * 2, [neutral_buffer], BW)


def _hexes(values):
    return [float.hex(v) for v in values]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 600), seed=st.integers(0, 2**32 - 1), p=st.floats(1e-3, 10.0))
def test_gradient_coefficients_match_per_user_foc(n, seed, p):
    """betas, z1 and z2 built in array passes equal foc_coefficients per user,
    bit for bit.

    The first three users sit at ``x = p*(b_curr - b_ref)`` = 0, >= 10 (past
    ~37 the sigmoid saturates at 2) and <= -10 (past ~-745 exp underflows to
    0), so both clamps, both branches and ``x == 0`` are hit in every draw
    with N >= 3; the rest spread ``b_curr - b_ref`` over +-1e7, from 1e-12 up.
    """
    rng = np.random.default_rng(seed)
    params = GameParams(
        mu=float(10 ** rng.uniform(-4, 1)),
        nu=float(10 ** rng.uniform(-4, 0)),
        p=p,
        segment_duration=float(rng.uniform(0.5, 10.0)),
    )
    videos = [
        VideoQualityModel(alpha=float(a), beta=float(b), ladder=(1.0,))
        for a, b in zip(10 ** rng.uniform(-3, 2, n), 10 ** rng.uniform(-3, 2, n))
    ]
    dev = rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-12, 7, n)
    dev[rng.random(n) < 0.3] = 0.0
    dev[:3] = [0.0, 1e7, -1e7][:n]
    b_ref = rng.uniform(0.5, 40.0, n)
    bufs = [BufferView(b_curr=float(r + d), b_ref=float(r)) for r, d in zip(b_ref, dev)]
    bw = float(rng.uniform(0.5, 50.0))
    grad = UtilityGradients(params, videos, bufs, bw)
    zs = [foc_coefficients(params, v, b, bw) for v, b in zip(videos, bufs)]
    assert _hexes(grad.betas.tolist()) == _hexes(v.beta for v in videos)
    assert _hexes(grad.z1.tolist()) == _hexes(z.z1 for z in zs)
    assert _hexes(grad.z2.tolist()) == _hexes(z.z2 for z in zs)
    if n >= 3:
        af = [adjustment_factor(p, b.b_curr, b.b_ref) for b in bufs[:3]]
        assert af == [1.0, math.nextafter(2.0, 0.0), math.nextafter(0.0, 1.0)]


def test_hessian_diagonal_at_zero(ref_params, ref_video):
    got = utility_hessian_entries(ref_params, ref_video, 0, 0, [0.0, 1.0], BW)
    expected = -2.15 * 0.0827**2 - 0.0041 * 2.0 / BW
    assert got == pytest.approx(expected, rel=1e-12)


def test_hessian_offdiagonal_rate_independent(ref_params, ref_video):
    a = utility_hessian_entries(ref_params, ref_video, 0, 1, [1.0, 5.0], BW)
    b = utility_hessian_entries(ref_params, ref_video, 0, 1, [4.0, 2.0], BW)
    assert a == b == pytest.approx(-0.0013666666666666669, rel=1e-12)


def test_hessian_diagonal_worked_value(ref_params, ref_video):
    got = utility_hessian_entries(ref_params, ref_video, 0, 0, [3.0, 3.0], BW)
    assert got == pytest.approx(-0.010806204091330379, rel=1e-12)


def test_hessian_negative_definite_over_draws():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        params, videos, bufs, bw = random_instance(rng)
        rates = [float(rng.uniform(0, 10)) for _ in videos]
        h = utility_hessian(params, videos, rates, bw)
        assert all(h[i, i] < 0 for i in range(len(videos)))
        assert np.linalg.eigvalsh(h).max() < 0


def test_serial_sum_adds_left_to_right():
    # CPython 3.12's compensated builtin sum gives 1.0 here
    assert serial_sum([0.1] * 10) == 0.9999999999999999
    assert serial_sum([]) == 0.0
    assert serial_sum(iter([1e16, 1.0, -1e16])) == 0.0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(-1e6, 1e6), max_size=40))
def test_serial_sum_is_a_left_fold_from_zero(values):
    assert serial_sum(values).hex() == float(reduce(operator.add, values, 0.0)).hex()
