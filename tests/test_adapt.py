"""Distributed adaptation loop: server gradient, updates, rounds, protocol."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dashgame.adapt import (
    EPSILON,
    AdaptConfig,
    PayoffServer,
    UserSession,
    run_round,
    update_rate,
)
from dashgame.game import solve_equilibrium
from dashgame.model import BufferView, GameParams, VideoQualityModel, utility_gradient
from conftest import random_instance
from payoff_oracle import oracle_update_rate, payoff_gradient_server

BW = 6.0


# calibrated two-user setup whose interior equilibrium is exactly 3 Mbps
CAL_PARAMS = GameParams(mu=0.002, nu=0.006969553721656918, p=0.5, segment_duration=2.0)
CAL_VIDEO = VideoQualityModel(alpha=0.15, beta=0.0827, ladder=(0.3, 6.0))


def _user(video, b_ref=15.0, initial_rate=1.0):
    """One constructor entry of a ``PayoffServer``."""
    return (video, b_ref, initial_rate)


def test_server_gradient_zero_at_stationary_point():
    # the calibrated constants put the symmetric stationary point at 3 Mbps
    server = PayoffServer(CAL_PARAMS, BW, [_user(CAL_VIDEO, initial_rate=3.0)] * 2)
    assert abs(server.gradient(0, 15.0)) < 1e-9


def test_server_gradient_linear_in_competitor_shift(ref_params, ref_video):
    delta = 0.37
    server = PayoffServer(ref_params, BW, [_user(ref_video, initial_rate=r) for r in (3.0, 2.0)])
    base = server.gradient(0, 15.0)
    server.note_request(1, 2.0 + delta)
    moved = server.gradient(0, 15.0)
    expected = -ref_params.nu * ref_params.segment_duration * delta / BW
    assert moved - base == pytest.approx(expected, abs=1e-9)


def test_server_gradient_central_difference_error_bound(ref_params, ref_video, neutral_buffer):
    ana = utility_gradient(ref_params, ref_video, 0, [3.0, 3.0], neutral_buffer, BW)
    server = PayoffServer(ref_params, BW, [_user(ref_video, initial_rate=3.0)] * 2)
    assert abs(server.gradient(0, 15.0) - ana) < 1e-8


def test_payoff_server_unknown_user(ref_params, ref_video):
    with pytest.raises(KeyError):
        PayoffServer(ref_params, BW, []).gradient(7, 10.0)
    server = PayoffServer(ref_params, BW, [_user(ref_video)])
    # an id is an index, but a negative one must not wrap around
    for uid in (-1, 1):
        with pytest.raises(KeyError, match=f"unknown user id {uid}"):
            server.gradient(uid, 10.0)
        with pytest.raises(KeyError, match=f"unknown user id {uid}"):
            server.note_request(uid, 1.0)


def test_update_rate_examples():
    cfg = AdaptConfig(theta=50.0, r_max=60.0)
    assert update_rate(cfg, 2.0, 0.0) == 2.0
    assert update_rate(cfg, 2.0, 0.001) == pytest.approx(2.1, rel=1e-12)
    cfg2 = AdaptConfig(theta=100.0, r_max=60.0)
    assert update_rate(cfg2, 2.0, 0.1) == pytest.approx(2.5, rel=1e-12)  # step capped at 25%


@pytest.mark.parametrize("gradient", [math.nan, math.inf, -math.inf])
def test_update_rate_rejects_non_finite_gradient(gradient):
    # min/max would otherwise turn NaN into a full +max_step_fraction step
    cfg = AdaptConfig(theta=50.0, r_max=60.0)
    with pytest.raises(ValueError, match="gradient"):
        update_rate(cfg, 1.0, gradient)


def test_update_rate_respects_bounds():
    cfg = AdaptConfig(theta=100.0, r_max=3.0, r_min=0.5, r_init=1.0, max_step_fraction=math.inf)
    assert update_rate(cfg, 2.9, 10.0) == 3.0
    assert update_rate(cfg, 0.6, -10.0) == 0.5


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -1.0])
def test_update_rate_rejects_bad_rate(r):
    # the clamps used to turn NaN and inf into r_max and a negative rate into r_min
    cfg = AdaptConfig(theta=50.0, r_max=60.0)
    with pytest.raises(ValueError, match="update_rate r must be finite and >= 0"):
        update_rate(cfg, r, 0.01)


@st.composite
def _update_inputs(draw):
    """An AdaptConfig, a rate and a gradient, some built to land a step exactly
    on the cap or a result exactly on r_min or r_max, some huge enough that the
    step overflows."""
    r_min = draw(st.floats(1e-3, 1.0))
    r_max = r_min if draw(st.integers(0, 9)) == 0 else draw(st.floats(r_min, 100.0))
    msf = draw(st.sampled_from([math.inf, 0.25, draw(st.floats(1e-3, 4.0))]))
    huge = draw(st.integers(0, 3)) == 0
    theta = draw(st.floats(1e100, 1e300) if huge else st.floats(1e-3, 500.0))
    r = draw(st.sampled_from([0.0, r_min, r_max, *[draw(st.floats(0.0, 2.0 * r_max))] * 3]))
    if huge:
        r = draw(st.sampled_from([r, draw(st.floats(1e100, 1e308))]))
    gradient = draw(st.sampled_from([0.0, draw(st.floats(-1.0, 1.0)),
                                     draw(st.floats(-1e300, 1e300) if huge else st.floats(-10.0, 10.0))]))
    if math.isfinite(msf) and draw(st.integers(0, 4)) == 0:
        theta, gradient = 1.0, draw(st.sampled_from([msf, -msf]))  # step == cap exactly
    cfg = AdaptConfig(theta=theta, r_max=r_max, r_min=r_min, r_init=r_min,
                      max_step_fraction=msf)
    return cfg, r, gradient


_NAN_STEP_CFG = dict(theta=1e300, r_max=2e9, r_min=0.05, r_init=0.1)  # theta*1e9 overflows


@settings(max_examples=400, deadline=None, derandomize=True)
@given(inputs=_update_inputs())
@example(inputs=(AdaptConfig(**_NAN_STEP_CFG), 1e9, 0.0))
@example(inputs=(AdaptConfig(**_NAN_STEP_CFG, max_step_fraction=math.inf), 1e9, 0.0))
def test_update_rate_matches_minmax_oracle(inputs):
    cfg, r, gradient = inputs
    if math.isnan(cfg.theta * r * gradient):
        # theta*r overflowed and the gradient is zero: the oracle takes a full
        # clamp step, but the rate stays (within [r_min, r_max])
        assert gradient == 0.0
        expected = max(cfg.r_min, min(cfg.r_max, r))
    else:
        expected = oracle_update_rate(cfg, r, gradient)
    assert update_rate(cfg, r, gradient).hex() == expected.hex()


# the largest r_max whose ulp is at most EPSILON
R_MAX_TOP = math.nextafter(2.0**39, 0.0)


def test_adapt_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(theta=-1.0, r_max=6.0)
    with pytest.raises(ValueError):
        AdaptConfig(theta=50.0, r_max=6.0, r_min=0.2, r_init=0.1)
    # the central difference may move a rate across the whole box, but no
    # further; a move under ulp(r_max) can round away (below)
    bound = r"r_max must be >= EPSILON = 0\.0001 and have ulp\(r_max\) <= EPSILON, got r_max="
    for r_max in (math.nextafter(EPSILON, 0.0), math.nextafter(R_MAX_TOP, math.inf), math.inf,
                  math.nan):
        with pytest.raises(ValueError, match=bound + re.escape(repr(r_max))):
            AdaptConfig(theta=50.0, r_max=r_max, r_min=1e-5, r_init=1e-5)


@pytest.mark.parametrize("r_max", [6.0, 6.000000000000001, 4.0, 0.5, EPSILON, R_MAX_TOP])
def test_epsilon_moves_every_rate_in_the_box(ref_params, ref_video, r_max):
    # r_max runs from EPSILON up to R_MAX_TOP.  A step under ulp(r_max) could
    # round both legs of the gradient to the rate: at r_max = 6.000000000000001
    # and a step of ulp(r_max)/2, both legs at rate 5.0 were 5.0, and the
    # gradient divided by zero
    AdaptConfig(theta=50.0, r_max=r_max, r_min=min(r_max, 0.05), r_init=min(r_max, 0.1))
    for rate in (0.0, 5e-324, 5.0, r_max / 2, math.nextafter(r_max, 0.0), r_max):
        if rate <= r_max:
            server = PayoffServer(ref_params, BW, [_user(ref_video, 15.0, rate)])
            assert math.isfinite(server.gradient(0, 15.0))


def _sessions(params, video, theta, rates, b_curr=15.0, b_ref=15.0, msf=0.25):
    cfg = AdaptConfig(theta=theta, r_max=60.0, r_min=0.01, r_init=0.1, max_step_fraction=msf)
    return [
        UserSession(i, video, cfg, rate=r, b_curr=b_curr, b_ref=b_ref)
        for i, r in enumerate(rates)
    ]


def test_round_preserves_symmetry():
    sessions = _sessions(CAL_PARAMS, CAL_VIDEO, 100.0, [1.0, 1.0])
    for _ in range(50):
        rates = run_round(sessions, CAL_PARAMS, BW)
        assert rates[0] == rates[1]


def test_round_iterates_to_stable_fixed_point():
    sessions = _sessions(CAL_PARAMS, CAL_VIDEO, 100.0, [1.0, 1.0])
    history = [[s.rate for s in sessions]]
    for _ in range(400):
        history.append(run_round(sessions, CAL_PARAMS, BW))
    # no coordinate moved more than 1e-9 over the last five rounds
    window = history[-6:]
    assert all(
        abs(b - a) <= 1e-9 for prev, cur in zip(window, window[1:]) for a, b in zip(prev, cur)
    )
    assert history[-1][0] == pytest.approx(3.0, abs=1e-6)


def test_round_single_user_monotone_under_small_theta(ref_params, ref_video):
    sessions = _sessions(ref_params, ref_video, 5.0, [10.0])
    gaps = []
    target = solve_equilibrium(
        ref_params, [ref_video], [BufferView(b_curr=15, b_ref=15)], BW, r_max=60.0
    ).rates[0]
    for _ in range(200):
        (cur,) = run_round(sessions, ref_params, BW)
        gaps.append(abs(cur - target))
    # monotone approach until the round's own fixed point resolution
    # (the central-difference gradient shifts it ~1e-8 off the analytic one)
    for a, b in zip(gaps, gaps[1:]):
        if a < 1e-6:
            break
        assert b <= a + 1e-12
    assert gaps[-1] < 1e-6


def test_round_first_step_increases_from_cold_start(ref_params, ref_video):
    # the payoff slope at the cold-start rate is positive
    sessions = _sessions(ref_params, ref_video, 100.0, [0.1, 0.1])
    rates = run_round(sessions, ref_params, BW)
    assert all(r > 0.1 for r in rates)


def test_round_is_order_invariant():
    rng = np.random.default_rng(13)
    params, videos, bufs, bw = random_instance(rng, n_users=4)
    cfg = AdaptConfig(theta=20.0, r_max=30.0, r_min=0.01, r_init=0.1)
    sessions = [
        UserSession(i, videos[i], cfg, rate=float(rng.uniform(0.5, 5.0)),
                    b_curr=bufs[i].b_curr, b_ref=bufs[i].b_ref)
        for i in range(4)
    ]
    mirrored = [
        UserSession(s.user_id, s.model, s.cfg, rate=s.rate, b_curr=s.b_curr, b_ref=s.b_ref)
        for s in reversed(sessions)
    ]
    got = run_round(sessions, params, bw)
    rev = run_round(mirrored, params, bw)
    np.testing.assert_allclose(got, list(reversed(rev)), rtol=0, atol=0)


@pytest.mark.parametrize("ids, pos", [
    ([0, 0], 1), ([1, 2, 1], 2), ([0, 2], 1), ([-1, 0], 0), ([0, 1.0], 1), ([3, 1, 2], 0),
])
def test_round_rejects_bad_user_ids(ids, pos):
    sessions = _sessions(CAL_PARAMS, CAL_VIDEO, 100.0, [1.0] * len(ids))
    for s, uid in zip(sessions, ids):
        s.user_id = uid
    message = rf"sessions\[{pos}\]: user_id must be a distinct id in 0\.\.{len(ids) - 1}, got {ids[pos]!r}"
    with pytest.raises(ValueError, match=message):
        run_round(sessions, CAL_PARAMS, BW)
    assert [s.rate for s in sessions] == [1.0] * len(ids)


def test_round_fixed_points_match_equilibrium():
    rng = np.random.default_rng(14)
    checked = 0
    while checked < 20:
        params, videos, bufs, bw = random_instance(rng, identical=False)
        r_max = 40.0
        eq = solve_equilibrium(params, videos, bufs, bw, r_max=r_max)
        if not eq.converged or not all(0.05 < r < r_max - 0.05 for r in eq.rates):
            continue
        cfg = AdaptConfig(theta=1.0, r_max=r_max, r_min=0.01, r_init=0.1,
                          max_step_fraction=math.inf)
        sessions = [
            UserSession(i, videos[i], cfg, rate=eq.rates[i],
                        b_curr=bufs[i].b_curr, b_ref=bufs[i].b_ref)
            for i in range(len(videos))
        ]
        new_rates = run_round(sessions, params, bw)
        np.testing.assert_allclose(new_rates, eq.rates, atol=1e-6)
        checked += 1


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 11))
def test_round_matches_stateless_oracle(seed, n):
    # run_round queries a PayoffServer; each step must equal the oracle's, bit for bit
    rng = np.random.default_rng(seed)
    params, videos, bufs, bw = random_instance(rng, n_users=n)
    cfg = AdaptConfig(theta=float(rng.uniform(1.0, 200.0)), r_max=30.0, r_min=0.01, r_init=0.1)
    sessions = [
        UserSession(i, videos[i], cfg, rate=float(rng.uniform(0.1, 20.0)),
                    b_curr=bufs[i].b_curr, b_ref=bufs[i].b_ref)
        for i in range(n)
    ]
    for _ in range(5):
        snapshot = [s.rate for s in sessions]
        expected = [
            update_rate(cfg, r, payoff_gradient_server(
                params, s.model, bw, snapshot, i, s.b_curr, s.b_ref))
            for i, (s, r) in enumerate(zip(sessions, snapshot))
        ]
        assert run_round(sessions, params, bw) == expected


def test_payoff_server_replies_in_user_id_order(ref_params, ref_video):
    # a user's id is its position in the rate list the gradient is taken over
    rates = [1.25, 2.5, 0.75, 3.0]
    b_refs = [15.0, 10.0, 15.0, 20.0]
    server = PayoffServer(ref_params, BW, [
        _user(ref_video, b_ref, rate) for rate, b_ref in zip(rates, b_refs)
    ])
    server.note_request(3, 1.75)
    rates[3] = 1.75
    for uid in (1, 2):
        server.note_request(uid, 1.5)
        rates[uid] = 1.5
        expected = payoff_gradient_server(
            ref_params, ref_video, BW, rates, uid, 12.0, b_refs[uid])
        assert server.gradient(uid, 12.0) == expected
    with pytest.raises(KeyError):
        server.note_request(4, 1.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"initial_rate": -5.0}, "user 3: initial_rate"),
    ({"initial_rate": math.nan}, "user 3: initial_rate"),
    ({"initial_rate": math.inf}, "user 3: initial_rate"),
    ({"b_ref": math.nan}, "user 3: b_ref"),
    ({"b_ref": -1.0}, "user 3: b_ref"),
    ({"b_ref": -math.inf}, "user 3: b_ref"),
    ({"b_ref": 0.0}, "user 3: b_ref"),
    ({"b_ref": math.inf}, "user 3: b_ref"),
])
def test_register_rejects_bad_values(ref_params, ref_video, kwargs, message):
    # users register when the server is built; a bad entry is rejected there,
    # naming the user and the field, not blamed on a later query
    users = [_user(ref_video)] * 3 + [_user(ref_video, **kwargs)] + [_user(ref_video)]
    with pytest.raises(ValueError, match=message):
        PayoffServer(ref_params, BW, users)


@pytest.mark.parametrize("rate", [math.nan, -0.5, math.inf])
def test_note_request_rejects_bad_rate(ref_params, ref_video, rate):
    server = PayoffServer(ref_params, BW, [_user(ref_video)] * 2)
    with pytest.raises(ValueError, match="note_request user 0: rate"):
        server.note_request(0, rate)
    # the rates are unchanged, so both users' queries still work
    for uid in (0, 1):
        assert server.gradient(uid, 15.0) == payoff_gradient_server(
            ref_params, ref_video, BW, [1.0, 1.0], uid, 15.0, 15.0)


@pytest.mark.parametrize("b_curr, export_bw, message", [
    (math.nan, BW, "user 2: b_curr"),
    (math.inf, BW, "user 2: b_curr"),
    (15.0, 0.0, "export_bw"),
    (15.0, math.nan, "export_bw"),
    (15.0, math.inf, "export_bw"),
])
def test_gradient_rejects_bad_values(ref_params, ref_video, b_curr, export_bw, message):
    server = PayoffServer(ref_params, BW, [_user(ref_video)] * 3)
    server.export_bw = export_bw
    with pytest.raises(ValueError, match=message):
        server.gradient(2, b_curr)


def test_gradient_changes_no_rate(ref_params, ref_video):
    # a query only reads the rates: asking for user i's gradient between two
    # of user j's leaves j's answer bit for bit the same
    rates = [0.75, 2.5, 1.25]
    server = PayoffServer(ref_params, BW, [
        _user(ref_video, initial_rate=rate) for rate in rates])
    for j in range(3):
        for i in range(3):
            if i == j:
                continue
            before = server.gradient(j, 12.0)
            server.gradient(i, 20.0)
            assert server.gradient(j, 12.0).hex() == before.hex()
            assert before.hex() == payoff_gradient_server(
                ref_params, ref_video, BW, rates, j, 12.0, 15.0).hex()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
def test_server_replies_match_stateless_gradient(seed, n):
    """Random note_request/export_bw/gradient sequences against the stateless
    oracle, two ``utility`` calls over the whole rate vector: every reply,
    clipped minus legs included, is bit-identical to it."""
    rng = np.random.default_rng(seed)
    params, videos, _, export_bw = random_instance(rng, n_users=n)
    state = [  # per user, as the constructor takes it: [video, b_ref, rate]
        [videos[uid], float(rng.uniform(5.0, 25.0)), float(rng.uniform(0.0, 20.0))]
        for uid in range(n)
    ]
    server = PayoffServer(params, export_bw, [tuple(entry) for entry in state])
    for _ in range(4 * n + 8):
        uid = int(rng.integers(n))
        action = rng.integers(4)
        if action in (0, 1):
            # action 0 requests a rate near zero, where the minus leg may clip
            high = 1e-3 if action == 0 else 20.0
            state[uid][2] = float(rng.uniform(0.0, high))
            server.note_request(uid, state[uid][2])
            continue
        if action == 2:
            server.export_bw = export_bw = float(rng.uniform(2.0, 20.0))
        b_curr = float(rng.uniform(0.0, 30.0))
        got = server.gradient(uid, b_curr)
        video, b_ref, _ = state[uid]
        expected = payoff_gradient_server(
            params, video, export_bw, [entry[2] for entry in state], uid, b_curr, b_ref)
        assert got.hex() == expected.hex()
