"""Fluid simulator: sharing, profiles, quantization, traces, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dashgame.netsim import (
    BandwidthProfile,
    CapSpec,
    SimConfig,
    SimulationError,
    allocate_shares,
    bandwidth_at,
    Link,
    calibrate_nu,
    make_profile,
    quantize_rate,
    run_scenario,
)
from dashgame.scenarios import load_preset, scenario_from_dict, scenario_to_dict

from share_oracle import progressive_filling


def test_allocate_shares_symmetric():
    assert allocate_shares(6.0, [None, None, None]) == [2.0, 2.0, 2.0]


def test_allocate_shares_water_filling():
    got = allocate_shares(6.0, [1.5, 1.5, None])
    assert got == [1.5, 1.5, 3.0]


def test_allocate_shares_underloaded_caps():
    assert allocate_shares(6.0, [1.0, 1.0, 1.0]) == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("export_bw", [0.0, -1.0, math.nan, math.inf])
def test_allocate_shares_rejects_bad_export_bw(export_bw):
    # a NaN or infinite link would otherwise become every uncapped user's share
    with pytest.raises(ValueError, match="export_bw must be finite and > 0"):
        allocate_shares(export_bw, [None, 1.0])


def test_allocate_shares_conservation_property():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        bw = float(rng.uniform(1.0, 20.0))
        caps = [None if rng.random() < 0.4 else float(rng.uniform(0.2, 5.0)) for _ in range(n)]
        active = [i for i in range(n) if rng.random() < 0.8]
        shares = allocate_shares(bw, [caps[i] for i in active])
        assert sum(shares) <= bw + 1e-9
        for i, share in zip(active, shares):
            if caps[i] is not None:
                assert share <= caps[i] + 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    bw=st.floats(0.1, 50.0),
    caps=st.lists(st.one_of(st.none(), st.floats(0.01, 20.0)), max_size=10),
)
def test_allocate_shares_is_max_min_fair(bw, caps):
    shares = allocate_shares(bw, caps)
    assert len(shares) == len(caps)
    assert sum(shares) <= bw * (1 + 1e-12)
    for share, cap in zip(shares, caps):
        if cap is not None:
            assert share <= cap
    # no user whose cap does not bind gets less than any other user, and the
    # link is used up unless every user is capped
    uncapped = [s for s, cap in zip(shares, caps) if cap is None or s < cap]
    for s in uncapped:
        assert all(s >= other * (1 - 1e-12) for other in shares)
    if uncapped:
        assert sum(shares) == pytest.approx(bw, rel=1e-12)
    # in every branch the link carries what it and the caps allow
    cap_total = sum(math.inf if cap is None else cap for cap in caps)
    assert sum(shares) == pytest.approx(min(bw, cap_total), rel=1e-12)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(bw=st.floats(0.1, 100.0), n=st.integers(1, 12), data=st.data())
def test_allocate_shares_matches_progressive_filling(bw, n, data):
    """Water filling subtracts the binding caps in order of cap, progressive
    filling in rounds in user order: the two agree to within 8 ulp of the
    link's bandwidth."""
    cap = st.floats(0.0, 3 * bw / n, exclude_min=True)
    caps = data.draw(st.lists(st.one_of(st.none(), cap), min_size=n, max_size=n))
    got = allocate_shares(bw, caps)
    want = progressive_filling(bw, caps)
    for a, b in zip(got, want, strict=True):
        assert abs(a - b) <= 8 * math.ulp(bw), (caps, got, want)


def test_bandwidth_at_persistent_preset_values():
    prof = make_profile("persistent", base=6.0)
    assert bandwidth_at(prof, 0.0) == 6.0
    assert bandwidth_at(prof, 150.0) == 9.0
    assert bandwidth_at(prof, 250.0) == 6.0
    assert bandwidth_at(prof, 100.0) == 9.0  # right-continuous step


def test_make_profile_persistent_breakpoints():
    prof = make_profile("persistent", base=6.0)
    assert prof.breakpoints == ((0.0, 6.0), (100.0, 9.0), (200.0, 6.0), (300.0, 9.0))


def test_make_profile_staged_change_times():
    prof = make_profile("staged", base=6.0)
    assert [t for t, _ in prof.breakpoints] == [0.0, 100.0, 180.0, 260.0, 340.0]
    assert [bw for _, bw in prof.breakpoints] == [6.0, 8.0, 6.0, 4.0, 6.0]


def test_make_profile_short_term_instants():
    prof = make_profile("short_term", base=6.0)
    times = [t for t, _ in prof.breakpoints]
    assert 100.0 in times and 260.0 in times
    assert (110.0, 6.0) in prof.breakpoints and (270.0, 6.0) in prof.breakpoints


def test_make_profile_unknown_kind():
    with pytest.raises(ValueError):
        make_profile("sawtooth")


def test_profile_validation():
    with pytest.raises(ValueError):
        BandwidthProfile(breakpoints=((5.0, 6.0),))
    with pytest.raises(ValueError):
        BandwidthProfile(breakpoints=((0.0, 6.0), (0.0, 7.0)))
    with pytest.raises(ValueError):
        BandwidthProfile(breakpoints=((0.0, -1.0),))


def test_quantize_rate_examples():
    assert quantize_rate([1.0, 2.0, 3.0], 2.9) == 2.0
    assert quantize_rate([1.0, 2.0, 3.0], 0.2) == 1.0
    assert quantize_rate([1.0, 2.0, 3.0], 2.0) == 2.0
    assert quantize_rate((1.0, 2.0, 3.0), math.inf) == 3.0
    with pytest.raises(ValueError, match="ladder"):
        quantize_rate((), 1.0)
    with pytest.raises(ValueError, match="NaN"):
        quantize_rate((1.0, 2.0), math.nan)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    ladder=st.lists(st.floats(0.05, 60.0), min_size=1, max_size=25, unique=True).map(sorted),
    r=st.floats(-10.0, 100.0),
)
def test_quantize_rate_matches_linear_floor_scan(ladder, r):
    # the rung scan QF/BF used before both callers shared one bisection
    best = ladder[0]
    for rung in ladder:
        if rung > r:
            break
        best = rung
    assert quantize_rate(tuple(ladder), r) == best


@pytest.mark.parametrize("schedule, message", [
    (((50.0, 1.0), (0.0, 3.0)), "start at t=0"),
    (((0.0, 1.0), (50.0, 3.0), (50.0, 2.0)), "strictly increasing"),
    (((0.0, 1.0), (60.0, 3.0), (50.0, 2.0)), "strictly increasing"),
    (((10.0, 1.0), (50.0, 3.0)), "start at t=0"),
    (((0.0, 1.0), (50.0, math.nan)), "> 0"),
])
def test_cap_spec_breakpoints_validation(schedule, message):
    with pytest.raises(ValueError, match="CapSpec.breakpoints") as info:
        CapSpec(kind="breakpoints", breakpoints=schedule)
    assert message in str(info.value)


@pytest.mark.parametrize("build, message", [
    (lambda: BandwidthProfile(breakpoints=((0.0, math.nan),)), "bandwidths must be finite"),
    (lambda: BandwidthProfile(breakpoints=((0.0, math.inf),)), "bandwidths must be finite"),
    (lambda: BandwidthProfile(breakpoints=((0.0, 6.0), (math.inf, 3.0))), "times must be finite"),
    (lambda: BandwidthProfile(breakpoints=((0.0, 6.0), (math.nan, 3.0))), "strictly increasing"),
    (lambda: make_profile("fixed", base=math.inf), "base bandwidth"),
    (lambda: make_profile("staged", base=2.0), "base bandwidth must be finite and > 2"),
    (lambda: SimConfig(total_segments=5, initial_buffer=math.nan), "initial_buffer"),
    (lambda: SimConfig(total_segments=5, initial_buffer=math.inf), "initial_buffer"),
    (lambda: SimConfig(total_segments=5, segment_duration=math.inf), "segment_duration"),
    (lambda: SimConfig(total_segments=5, rng_seed=-1), "rng_seed"),
    (lambda: CapSpec(kind="random", hi=math.inf), "CapSpec.hi"),
    (lambda: CapSpec(kind="random", lo=math.nan), "CapSpec.lo"),
    (lambda: CapSpec(kind="random", dwell=math.nan), "CapSpec.dwell"),
    (lambda: CapSpec(kind="random", dwell=math.inf), "CapSpec.dwell"),
    (lambda: CapSpec(kind="random", choices=(1.0, math.inf)), "CapSpec.choices"),
    (lambda: CapSpec(kind="fixed", cap=math.inf), "CapSpec.cap"),
    (lambda: CapSpec(kind="breakpoints", breakpoints=((0.0, 1.0), (math.inf, 2.0))),
     "times must be finite"),
])
def test_non_finite_values_rejected_at_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_cap_spec_breakpoints_schedule_values():
    # the link steps at the cap's breakpoints and at the bandwidth's (0, 100, 200, 300)
    cap = {"kind": "breakpoints", "breakpoints": [[0, 3.0], [50, 1.0]]}
    sc = _mini_scenario(server={"kind": "persistent", "base": 6.0},
                        users=[{**_mini_user(), "cap_profile": cap}, _mini_user()])
    link = Link(sc)
    assert link.times == [0.0, 50.0, 100.0, 200.0, 300.0]
    assert [link.at(t) for t in (0.0, 49.9, 50.0, 150.0, 300.0)] == [
        (50.0, 6.0, [3.0, None]),
        (50.0, 6.0, [3.0, None]),
        (100.0, 6.0, [1.0, None]),
        (200.0, 9.0, [1.0, None]),
        (math.inf, 9.0, [1.0, None]),
    ]


def test_nan_gradient_is_a_policy_failure(monkeypatch):
    import dashgame.adapt

    # every payoff gradient of the event loop comes from this method
    monkeypatch.setattr(dashgame.adapt.PayoffServer, "gradient", lambda *a: math.nan)
    message = r"user 0 at segment 1: update_rate gradient must be finite"
    with pytest.raises(SimulationError, match=message):
        run_scenario(_mini_scenario())


def test_cap_spec_random_materialize_deterministic():
    spec = CapSpec(kind="random", lo=1.0, hi=2.0, dwell=30.0)
    a = spec.materialize(np.random.default_rng(5), horizon=200.0)
    b = spec.materialize(np.random.default_rng(5), horizon=200.0)
    assert a == b
    assert all(1.0 <= c <= 2.0 for _, c in a)
    choice = CapSpec(kind="random", choices=(0.9, 1.5), dwell=30.0)
    sched = choice.materialize(np.random.default_rng(5), horizon=500.0)
    assert set(c for _, c in sched) <= {0.9, 1.5}
    # a link draws every user's schedule in user order from one rng(seed) over the
    # horizon; a user without a cap has none
    random_cap = {"kind": "random", "choices": [0.9, 1.5], "dwell": 30.0}
    sc = _mini_scenario(users=[{**_mini_user(), "cap_profile": random_cap}, _mini_user(),
                               {**_mini_user(), "cap_profile": random_cap}])
    rng = np.random.default_rng(sc.sim.rng_seed)
    first, second = (choice.materialize(rng, sc.sim.horizon) for _ in range(2))
    link = Link(sc)
    assert link.caps == [first, None, second]
    assert link.at(31.0) == (60.0, 6.0, [first[1][1], None, second[1][1]])


def test_calibrate_nu_reference_value():
    got = calibrate_nu(alpha=2.15, beta=0.0827, mu=0.003, segment_duration=2.0,
                       export_bw=6.0, n_users=2)
    assert got == pytest.approx(0.07423027001041584, rel=1e-12)


@pytest.mark.parametrize("name", [
    "alpha", "beta", "mu", "segment_duration", "export_bw", "r_target",
])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_calibrate_nu_rejects_bad_values_naming_them(name, value):
    kwargs = dict(alpha=2.15, beta=0.0827, mu=0.003, segment_duration=2.0,
                  export_bw=6.0, n_users=2, r_target=3.0)
    kwargs[name] = value
    with pytest.raises(ValueError, match=rf"calibrate_nu: {name} must be finite and > 0"):
        calibrate_nu(**kwargs)


def test_calibrate_nu_zeroes_the_stationarity_condition():
    rng = np.random.default_rng(32)
    for _ in range(50):
        alpha = float(rng.uniform(0.05, 3.0))
        beta = float(rng.uniform(0.05, 1.5))
        mu = float(rng.uniform(1e-4, 0.01))
        T = float(rng.uniform(1.0, 4.0))
        bw = float(rng.uniform(2.0, 20.0))
        n = int(rng.integers(1, 7))
        nu = calibrate_nu(alpha, beta, mu, T, bw, n)
        r = bw / n
        residual = alpha * beta / (1 + beta * r) + mu * T - nu * T * n * r / bw
        assert abs(residual) < 1e-15


def _mini_user():
    return {"video": {"alpha": 0.1208585, "beta": 0.0827,
                      "ladder": [round(0.3 * i, 10) for i in range(1, 21)]},
            "theta": 100.0, "b_ref": 15.0}


def _mini_scenario(**overrides):
    doc = {
        "params": {"mu": 0.00075, "nu": 0.004754085389792484, "p": 1.0},
        "users": [_mini_user()] * 2,
        "server": {"kind": "fixed", "base": 6.0},
        "sim": {"segment_duration": 2.0, "total_segments": 60, "initial_buffer": 2.0,
                "quantize": False, "seed": 1},
    }
    doc.update(overrides)
    return scenario_from_dict(doc)


def test_run_scenario_zero_users():
    from dataclasses import replace
    sc = _mini_scenario()
    assert run_scenario(replace(sc, users=())) == []


def test_run_scenario_identical_users_identical_traces():
    traces = run_scenario(_mini_scenario())
    assert traces[0].records == traces[1].records


def test_run_scenario_deterministic_repeat():
    sc = load_preset("case4-fixed")
    a = run_scenario(sc)
    b = run_scenario(sc)
    for ta, tb in zip(a, b):
        assert ta.records == tb.records


def test_trace_buffer_accounting_invariant():
    # buffer(t_end) = initial + segments_done*T - (wall time - stall time)
    for preset in ("case1-fixed", "case3", "case4-fixed"):
        for trace in run_scenario(load_preset(preset)):
            stall_so_far = 0.0
            T = 2.0
            for rec in trace.records:
                stall_so_far += rec.stall_seconds
                expected = trace.initial_buffer + (rec.k + 1) * T - rec.t_end + stall_so_far
                assert rec.buffer == pytest.approx(expected, abs=1e-6)


def test_trace_records_contiguous_and_positive():
    for trace in run_scenario(load_preset("case1-fixed")):
        for i, rec in enumerate(trace.records):
            assert rec.k == i
            assert rec.download_time > 0
            assert rec.buffer >= 0
            if i:
                assert rec.t_start == pytest.approx(trace.records[i - 1].t_end, abs=1e-9)


def test_throughput_never_exceeds_cap_or_bandwidth():
    sc = load_preset("case3")
    for trace in run_scenario(sc):
        for rec in trace.records:
            throughput = rec.quantized_rate * 2.0 / rec.download_time
            assert throughput <= 1.5 + 1e-6


def test_stall_bookkeeping():
    # a fixed-rate user behind a much smaller cap must stall on every segment
    doc = {
        "params": {"mu": 0.002, "nu": 0.007, "p": 0.5},
        "users": [
            {"video": {"alpha": 0.15, "beta": 0.0827, "ladder": [3.0]},
             "theta": 1e-9, "b_ref": 15.0, "r_init": 3.0, "r_max": 3.0,
             "cap_profile": 1.0},
        ],
        "server": {"kind": "fixed", "base": 6.0},
        "sim": {"segment_duration": 2.0, "total_segments": 5, "initial_buffer": 2.0,
                "quantize": False, "seed": 1},
    }
    trace = run_scenario(scenario_from_dict(doc))[0]
    # download time 6 s vs 2 s of content: the buffer drains to zero mid-download
    for rec in trace.records:
        assert rec.download_time == pytest.approx(6.0, abs=1e-9)
        assert rec.stall_seconds > 0
    assert trace.records[0].stall_seconds == pytest.approx(4.0, abs=1e-9)
    # and each stall coincides with the buffer bottoming out at zero:
    # completion buffer is always exactly one segment of fresh content
    for rec in trace.records:
        assert rec.buffer == pytest.approx(2.0, abs=1e-9)


def test_no_stall_marker_without_empty_buffer():
    for trace in run_scenario(load_preset("case1-fixed")):
        assert all(rec.stall_seconds == 0 for rec in trace.records)


def test_huge_segment_duration_completes():
    # leftovers of a 1e5-s segment are above the completion epsilon yet too
    # small to move the clock; they count as finished instead of spinning
    doc = scenario_to_dict(load_preset("case1-fixed"))
    doc["sim"].update(segment_duration=1e5, total_segments=250)
    for trace in run_scenario(scenario_from_dict(doc)):
        assert len(trace.records) == 250
        assert all(b.t_end > a.t_end for a, b in zip(trace.records, trace.records[1:]))

