"""Distributed adaptation loop: server gradient, updates, rounds, protocol."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dashgame.adapt import (
    AdaptConfig,
    PayoffQuery,
    PayoffReply,
    PayoffServer,
    UserSession,
    payoff_gradient_server,
    run_round,
    update_rate,
)
from dashgame.game import solve_equilibrium
from dashgame.model import BufferView, GameParams, VideoQualityModel, utility, utility_gradient
from conftest import random_instance

BW = 6.0


# calibrated two-user setup whose interior equilibrium is exactly 3 Mbps
CAL_PARAMS = GameParams(mu=0.002, nu=0.006969553721656918, p=0.5, segment_duration=2.0)
CAL_VIDEO = VideoQualityModel(alpha=0.15, beta=0.0827, ladder=(0.3, 6.0))


def test_server_gradient_matches_analytic(ref_params, ref_video, neutral_buffer):
    got = payoff_gradient_server(
        ref_params, ref_video, BW, [3.0, 3.0], 0, 15.0, 1e-4, b_ref=15.0, b_0=2.0
    )
    ana = utility_gradient(ref_params, ref_video, 0, [3.0, 3.0], neutral_buffer, BW)
    assert ana == pytest.approx(0.14026054002083166, rel=1e-9)
    assert got == pytest.approx(ana, abs=1e-6)


def test_server_gradient_zero_at_stationary_point():
    # the calibrated constants put the symmetric stationary point at 3 Mbps
    got = payoff_gradient_server(
        CAL_PARAMS, CAL_VIDEO, BW, [3.0, 3.0], 0, 15.0, 1e-4, b_ref=15.0
    )
    assert abs(got) < 1e-9


def test_server_gradient_linear_in_competitor_shift(ref_params, ref_video):
    delta = 0.37
    base = payoff_gradient_server(ref_params, ref_video, BW, [3.0, 2.0], 0, 15.0, 1e-4, b_ref=15.0)
    moved = payoff_gradient_server(ref_params, ref_video, BW, [3.0, 2.0 + delta], 0, 15.0, 1e-4, b_ref=15.0)
    expected = -ref_params.nu * ref_params.segment_duration * delta / BW
    assert moved - base == pytest.approx(expected, abs=1e-9)


def test_server_gradient_central_difference_error_bound(ref_params, ref_video, neutral_buffer):
    ana = utility_gradient(ref_params, ref_video, 0, [3.0, 3.0], neutral_buffer, BW)
    got = payoff_gradient_server(ref_params, ref_video, BW, [3.0, 3.0], 0, 15.0, 1e-4, b_ref=15.0)
    assert abs(got - ana) < 1e-8


def test_server_rejects_bad_user_index(ref_params, ref_video):
    with pytest.raises(IndexError):
        payoff_gradient_server(ref_params, ref_video, BW, [3.0], 1, 15.0, 1e-4, b_ref=15.0)


def test_payoff_server_unknown_user(ref_params):
    server = PayoffServer(ref_params, BW)
    with pytest.raises(KeyError):
        server.handle_query(PayoffQuery(user_id=7, b_curr=10.0, last_rate=1.0))


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


def test_adapt_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(theta=-1.0, r_max=6.0)
    with pytest.raises(ValueError):
        AdaptConfig(theta=50.0, r_max=6.0, r_min=0.2, r_init=0.1)


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


def test_payoff_server_query_round_trip(ref_params, ref_video):
    server = PayoffServer(ref_params, BW)
    server.register(0, ref_video, b_ref=15.0, initial_rate=3.0, initial_b_curr=15.0)
    server.register(1, ref_video, b_ref=15.0, initial_rate=3.0, initial_b_curr=15.0)
    reply = server.handle_query(PayoffQuery(user_id=0, b_curr=15.0, last_rate=3.0))
    ana = utility_gradient(
        ref_params, ref_video, 0, [3.0, 3.0], BufferView(b_curr=15, b_ref=15), BW
    )
    assert reply.user_id == 0
    assert reply.gradient_estimate == pytest.approx(ana, abs=1e-6)


def _two_utility_difference(params, video, export_bw, rates, i, b_curr, epsilon, b_ref, b_0):
    """The server gradient as two full ``utility`` calls, the reference formula."""
    buf = BufferView(b_curr=b_curr, b_ref=b_ref, b_0=b_0)
    plus, minus = list(rates), list(rates)
    plus[i] = plus[i] + epsilon
    minus[i] = max(minus[i] - epsilon, 0.0)
    span = plus[i] - minus[i]
    return (utility(params, video, i, plus, buf, export_bw)
            - utility(params, video, i, minus, buf, export_bw)) / span


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), near_zero=st.booleans())
def test_server_gradient_bit_identical_to_two_utility_calls(seed, n, near_zero):
    rng = np.random.default_rng(seed)
    params, videos, bufs, export_bw = random_instance(rng, n_users=n)
    rates = [float(r) for r in rng.uniform(0.0, 20.0, n)]
    i = int(rng.integers(n))
    epsilon = float(rng.choice([1e-4, 1e-3, 0.5]))
    if near_zero:
        rates[i] = float(rng.uniform(0.0, epsilon))  # the minus leg clips at zero
    args = (params, videos[i], export_bw, rates, i, bufs[i].b_curr, epsilon, bufs[i].b_ref,
            float(rng.uniform(-5.0, 5.0)))
    assert payoff_gradient_server(*args) == _two_utility_difference(*args)


def test_payoff_server_replies_in_user_id_order(ref_params, ref_video):
    # positions follow the user ids, whatever order the users register in
    rates = {4: 1.25, 1: 2.5, 9: 0.75, 2: 3.0}
    server = PayoffServer(ref_params, BW)
    for uid, rate in rates.items():
        server.register(uid, ref_video, b_ref=15.0, initial_rate=rate, initial_b_curr=15.0)
    assert server.user_ids == [1, 2, 4, 9]
    server.note_request(9, 1.75)
    rates[9] = 1.75
    reply = server.handle_query(PayoffQuery(user_id=4, b_curr=12.0, last_rate=1.5))
    rates[4] = 1.5
    ordered = [rates[u] for u in sorted(rates)]
    expected = payoff_gradient_server(ref_params, ref_video, BW, ordered, 2, 12.0, 1e-4, 15.0)
    assert reply == PayoffReply(user_id=4, gradient_estimate=expected)
    # registering a user again replaces its entry and keeps its position
    server.register(4, ref_video, b_ref=10.0, initial_rate=1.5, initial_b_curr=12.0, epsilon=1e-3)
    reply = server.handle_query(PayoffQuery(user_id=4, b_curr=12.0, last_rate=1.5))
    expected = payoff_gradient_server(ref_params, ref_video, BW, ordered, 2, 12.0, 1e-3, 10.0)
    assert reply.gradient_estimate == expected
    with pytest.raises(KeyError):
        server.note_request(3, 1.0)


@pytest.mark.parametrize("bad, message", [
    ({"b_curr_i": math.nan}, "b_curr"),
    ({"b_ref": 0.0}, "b_ref"),
    ({"b_ref": math.inf}, "b_ref"),
    ({"all_last_rates": [3.0, math.nan]}, "rates"),
    ({"export_bw": 0.0}, "export_bw"),
])
def test_server_gradient_validates_inputs(ref_params, ref_video, bad, message):
    good = {"export_bw": BW, "all_last_rates": [3.0, 3.0], "i": 0, "b_curr_i": 15.0,
            "epsilon": 1e-4, "b_ref": 15.0}
    with pytest.raises(ValueError, match=message):
        payoff_gradient_server(ref_params, ref_video, **{**good, **bad})


@pytest.mark.parametrize("kwargs, message", [
    ({"initial_rate": -5.0}, "user 3: initial_rate"),
    ({"initial_rate": math.nan}, "user 3: initial_rate"),
    ({"initial_rate": math.inf}, "user 3: initial_rate"),
    ({"initial_b_curr": math.nan}, "user 3: initial_b_curr"),
    ({"epsilon": 0.0}, "user 3: epsilon"),
    ({"epsilon": math.nan}, "user 3: epsilon"),
    ({"b_ref": 0.0}, "user 3: b_ref"),
    ({"b_ref": math.inf}, "user 3: b_ref"),
    ({"b_0": math.nan}, "user 3: b_0"),
])
def test_register_rejects_bad_values(ref_params, ref_video, kwargs, message):
    # before, a bad initial rate was accepted and blamed on the next user's query
    server = PayoffServer(ref_params, BW)
    good = {"b_ref": 15.0, "initial_rate": 1.0, "initial_b_curr": 15.0}
    with pytest.raises(ValueError, match=message):
        server.register(3, ref_video, **{**good, **kwargs})
    assert server.user_ids == []  # nothing half-registered


@pytest.mark.parametrize("rate", [math.nan, -0.5, math.inf])
def test_note_request_rejects_bad_rate(ref_params, ref_video, rate):
    server = PayoffServer(ref_params, BW)
    for uid in (0, 1):
        server.register(uid, ref_video, b_ref=15.0, initial_rate=1.0, initial_b_curr=15.0)
    with pytest.raises(ValueError, match="note_request user 0: rate"):
        server.note_request(0, rate)
    # the registry is unchanged, so the other user's query still works
    reply = server.handle_query(PayoffQuery(user_id=1, b_curr=15.0, last_rate=1.0))
    assert reply.gradient_estimate == payoff_gradient_server(
        ref_params, ref_video, BW, [1.0, 1.0], 1, 15.0, 1e-4, 15.0
    )


@pytest.mark.parametrize("query, export_bw, message", [
    (PayoffQuery(user_id=2, b_curr=math.nan, last_rate=1.0), BW, "user 2: b_curr"),
    (PayoffQuery(user_id=2, b_curr=15.0, last_rate=-1.0), BW, "user 2: last_rate"),
    (PayoffQuery(user_id=2, b_curr=15.0, last_rate=math.nan), BW, "user 2: last_rate"),
    (PayoffQuery(user_id=2, b_curr=15.0, last_rate=1.0), 0.0, "export_bw"),
    (PayoffQuery(user_id=2, b_curr=15.0, last_rate=1.0), math.nan, "export_bw"),
])
def test_handle_query_rejects_bad_values(ref_params, ref_video, query, export_bw, message):
    server = PayoffServer(ref_params, BW)
    server.register(2, ref_video, b_ref=15.0, initial_rate=1.0, initial_b_curr=15.0)
    server.export_bw = export_bw
    with pytest.raises(ValueError, match=message):
        server.handle_query(query)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 64))
def test_server_replies_match_stateless_gradient(seed, n):
    """Random register/note_request/handle_query sequences against the stateless form."""
    rng = np.random.default_rng(seed)
    params, videos, _, export_bw = random_instance(rng, n_users=n)
    ids = [int(u) for u in rng.choice(10 * n, size=n, replace=False)]
    state = {}  # user id -> [video, b_ref, b_0, epsilon, b_curr, rate]

    def register(uid):
        entry = [videos[ids.index(uid)], float(rng.uniform(5.0, 25.0)),
                 float(rng.uniform(-5.0, 5.0)), float(rng.choice([1e-4, 1e-3, 0.5])),
                 float(rng.uniform(0.0, 30.0)), float(rng.uniform(0.0, 20.0))]
        server.register(uid, entry[0], entry[1], initial_rate=entry[5],
                        initial_b_curr=entry[4], epsilon=entry[3], b_0=entry[2])
        state[uid] = entry

    server = PayoffServer(params, export_bw)
    register(ids[0])
    for _ in range(4 * n + 8):
        uid = int(rng.choice(list(state)))
        action = rng.integers(5)
        if action == 0:
            register(int(rng.choice(ids)))  # a new user or a re-registration
        elif action == 1:
            state[uid][5] = float(rng.uniform(0.0, 20.0))
            server.note_request(uid, state[uid][5])
        else:
            if action == 2:
                server.export_bw = export_bw = float(rng.uniform(2.0, 20.0))
            b_curr = float(rng.uniform(0.0, 30.0))
            rate = float(rng.uniform(0.0, 1e-3)) if action == 3 else float(rng.uniform(0.0, 20.0))
            state[uid][4:] = [b_curr, rate]
            reply = server.handle_query(PayoffQuery(user_id=uid, b_curr=b_curr, last_rate=rate))
            order = sorted(state)
            video, b_ref, b_0, epsilon, _, _ = state[uid]
            expected = payoff_gradient_server(
                params, video, export_bw, [state[u][5] for u in order], order.index(uid),
                b_curr, epsilon, b_ref, b_0,
            )
            assert reply == PayoffReply(user_id=uid, gradient_estimate=expected)
            assert reply.gradient_estimate.hex() == expected.hex()
