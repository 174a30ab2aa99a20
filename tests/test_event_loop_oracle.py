"""The event loop of ``run_scenario`` against a straightforward oracle loop.

``oracle_run_scenario`` is the simulator's earlier event loop, slimmed down:
it recomputes every cap, the export bandwidth and the max-min fair shares at
every event.  ``run_scenario`` reuses them until t reaches its link's next
step or a user finishes, and carries each user's finish time from one event
to the next, which must not change a single output bit.  A
derandomised property compares the two on small random scenarios that cover
every profile kind, every cap kind, quantized mode and mixed game/QF/BF
populations.
"""

import math
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings, strategies as st

from dashgame.adapt import PayoffServer, update_rate
from dashgame.baselines import ThroughputEstimator, bf_decide, qf_decide
from dashgame.model import GameParams, VideoQualityModel, log_quality
from dashgame.netsim import (
    PROFILE_KINDS,
    CapSpec,
    SessionTrace,
    SimConfig,
    SimulationError,
    TraceRecord,
    allocate_shares,
    calibrate_nu,
    make_profile,
    quantize_rate,
    run_scenario,
)
from dashgame.scenarios import Scenario, UserSpec

COMPLETION_EPS = 1e-9


def cap_at(schedule, t):
    """The value of a materialized schedule in force at ``t`` (None = unlimited):
    a cap, or of the profile's breakpoints, the export bandwidth."""
    if schedule is None:
        return None
    return schedule[max(bisect_right([s for s, _ in schedule], t) - 1, 0)][1]


class _Runtime:
    def __init__(self, idx, spec, sim):
        self.idx = idx
        self.spec = spec
        self.cfg = spec.adapt_config()
        self.estimator = ThroughputEstimator()
        self.buffer = sim.initial_buffer
        self.stall_this = 0.0
        self.k = 0
        self.done = False
        self.request_rate = self.cfg.r_init
        self.download_rate = self.cfg.r_init
        self.remaining = 0.0
        self.started_at = 0.0
        self.trace = SessionTrace(
            user_id=idx, initial_buffer=sim.initial_buffer, quantized=sim.quantize
        )

    def start_segment(self, t, T, quantized):
        ladder = self.spec.video.ladder
        self.download_rate = (
            quantize_rate(ladder, self.request_rate) if quantized else self.request_rate
        )
        self.remaining = self.download_rate * T
        self.started_at = t


def oracle_run_scenario(scenario):
    users, sim, params, profile = scenario.users, scenario.sim, scenario.params, scenario.server
    T = params.segment_duration
    n = len(users)
    horizon = sim.total_segments * T * 20.0 + 1000.0
    rng = np.random.default_rng(sim.rng_seed)
    cap_schedules = [u.cap.materialize(rng, horizon) for u in users]
    runs = []
    for idx, u in enumerate(users):
        rt = _Runtime(idx, u, sim)
        rt.start_segment(0.0, T, sim.quantize)
        runs.append(rt)
    server = PayoffServer(params, cap_at(profile.breakpoints, 0.0), [
        (u.video, u.b_ref, rt.request_rate) for u, rt in zip(users, runs)])
    boundary_times = sorted(
        {t for t, _ in profile.breakpoints} | {t for s in cap_schedules if s for t, _ in s}
    )
    t = 0.0
    guard_limit = 20 * (n * sim.total_segments + len(boundary_times)) + 1000
    guard = 0
    while any(not rt.done for rt in runs):
        guard += 1
        if guard > guard_limit:
            raise SimulationError(f"event budget exceeded at t={t:.3f}s")
        if t > horizon:
            raise SimulationError(f"simulated time exceeded the horizon at t={t:.3f}s")
        downloading = [i for i in range(n) if not runs[i].done]
        caps_now = [cap_at(cap_schedules[i], t) for i in downloading]
        shares = dict(zip(downloading, allocate_shares(cap_at(profile.breakpoints, t), caps_now)))

        t_next = math.inf
        bidx = bisect_right(boundary_times, t)
        if bidx < len(boundary_times):
            t_next = boundary_times[bidx]
        for i in downloading:
            if shares[i] <= 0:
                raise SimulationError(f"user {i} starved of bandwidth at t={t:.3f}s")
            t_next = min(t_next, t + runs[i].remaining / shares[i])
        if not math.isfinite(t_next):
            raise SimulationError("no next event; simulation wedged")

        dt = t_next - t
        for i in downloading:
            rt = runs[i]
            played = min(rt.buffer, dt)
            rt.buffer -= played
            rt.stall_this += dt - played
            rt.remaining -= shares[i] * dt
        t = t_next

        completed = [
            i for i in downloading
            if runs[i].remaining <= COMPLETION_EPS or t + runs[i].remaining / shares[i] <= t
        ]
        if not completed:
            continue
        server.export_bw = cap_at(profile.breakpoints, t)
        for i in completed:
            rt = runs[i]
            rt.buffer += T
            rt.trace.records.append(TraceRecord(
                k=rt.k, t_start=rt.started_at, t_end=t, requested_rate=rt.request_rate,
                quantized_rate=rt.download_rate, download_time=t - rt.started_at,
                buffer=rt.buffer, stall_seconds=rt.stall_this,
                quality=log_quality(rt.spec.video.alpha, rt.spec.video.beta, rt.download_rate),
            ))
            rt.stall_this = 0.0
            rt.k += 1
            rt.done = rt.k >= sim.total_segments

        game_batch = [i for i in completed if not runs[i].done and runs[i].spec.policy == "game"]
        grads = [server.gradient(i, runs[i].buffer) for i in game_batch]
        for i, grad in zip(game_batch, grads):
            rt = runs[i]
            rt.request_rate = update_rate(rt.cfg, rt.request_rate, grad)

        for i in completed:
            rt = runs[i]
            if rt.done:
                continue
            if rt.spec.policy != "game":
                last = rt.trace.records[-1]
                rt.estimator.observe(last.quantized_rate * T / last.download_time)
                if rt.spec.policy == "qf":
                    rt.request_rate = qf_decide(rt.estimator, rt.spec.video.ladder, rt.buffer,
                                                startup_threshold=rt.spec.qf_startup)
                else:
                    rt.request_rate = bf_decide(rt.estimator, rt.spec.video.ladder, rt.buffer,
                                                rt.spec.b_ref, gain=rt.spec.bf_gain)
            rt.start_segment(t, T, sim.quantize)
            server.note_request(i, rt.request_rate)
    return [rt.trace for rt in runs]


def _distinct_sorted(rng, lo, hi, size):
    """``size`` distinct integers from [lo, hi), ascending."""
    return np.sort(rng.choice(np.arange(lo, hi), size=size, replace=False))


def _random_cap(rng):
    kind = str(rng.choice(["none", "fixed", "breakpoints", "random", "random-choices"]))
    if kind == "fixed":
        return CapSpec(kind="fixed", cap=float(rng.uniform(0.5, 4.0)))
    if kind == "breakpoints":
        times = [0.0, *_distinct_sorted(rng, 5, 300, int(rng.integers(1, 6)))]
        schedule = tuple((float(t), float(rng.uniform(0.5, 4.0))) for t in times)
        return CapSpec(kind="breakpoints", breakpoints=schedule)
    if kind == "random":
        hi = float(rng.uniform(0.6, 4.0))
        return CapSpec(kind="random", lo=0.5, hi=hi, dwell=float(rng.uniform(3.0, 60.0)))
    if kind == "random-choices":
        return CapSpec(kind="random", choices=(1.0, 1.5, 2.5), dwell=float(rng.uniform(3.0, 60.0)))
    return CapSpec(kind="none")


def random_scenario(seed: int) -> Scenario:
    """A small scenario (1-5 users, up to 90 segments) drawn from ``seed``,
    named ``random-<seed>-<server kind>``."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    T = float(rng.choice([1.0, 2.0, 4.0]))
    base = float(rng.uniform(2.5, 12.0))
    kind = str(rng.choice(PROFILE_KINDS))
    breakpoints = None
    if kind == "custom":
        times = _distinct_sorted(rng, 1, 250, int(rng.integers(0, 6)))
        breakpoints = [(0.0, base)] + [(float(t), float(rng.uniform(1.0, 12.0))) for t in times]
    users = []
    for _ in range(n):
        ladder = tuple(np.round(_distinct_sorted(rng, 2, 60, int(rng.integers(1, 7))) * 0.1, 1))
        alpha = float(rng.uniform(0.03, 2.5))
        video = VideoQualityModel(alpha=alpha, beta=float(rng.uniform(0.05, 1.2)), ladder=ladder)
        users.append(UserSpec(
            video=video,
            theta=float(rng.uniform(5.0, 200.0)),
            b_ref=float(rng.uniform(5.0, 25.0)),
            policy=str(rng.choice(["game", "qf", "bf"])),
            cap=_random_cap(rng),
            r_init=float(rng.uniform(0.05, ladder[-1])),
            qf_startup=float(rng.uniform(0.0, 12.0)),
        ))
    mu = float(rng.uniform(5e-4, 5e-3))
    nu = calibrate_nu(users[0].video.alpha, users[0].video.beta, mu, T, base, n)
    nu *= float(rng.uniform(0.5, 2.0))
    return Scenario(
        name=f"random-{seed}-{kind}",
        params=GameParams(mu=mu, nu=nu, p=float(rng.uniform(0.05, 1.0)), segment_duration=T),
        users=tuple(users),
        server=make_profile(kind, base=base, breakpoints=breakpoints),
        sim=SimConfig(
            total_segments=int(rng.integers(5, 91)),
            segment_duration=T,
            initial_buffer=float(rng.uniform(0.0, 6.0)),
            quantize=bool(rng.random() < 0.5),
            rng_seed=int(rng.integers(0, 2**31)),
        ),
    )


def _outcome(run, scenario):
    try:
        return run(scenario)
    except SimulationError as exc:
        return ("SimulationError", str(exc))


def _fixed_rate_scenario(profile, users, total_segments):
    """Quantized users on one-rung ladders, so every segment of a user has the
    same size and the event times below are exact in floats."""
    return Scenario(
        name="fixed-rate",
        params=GameParams(mu=0.002, nu=0.007, p=0.5, segment_duration=2.0),
        users=tuple(
            UserSpec(video=VideoQualityModel(alpha=0.15, beta=0.08, ladder=(rate,)), theta=50.0,
                     b_ref=10.0, policy=policy, cap=cap, r_init=rate)
            for rate, policy, cap in users
        ),
        server=profile,
        sim=SimConfig(total_segments=total_segments, segment_duration=2.0, quantize=True),
    )


def _t_ends(traces):
    return [[rec.t_end for rec in trace.records] for trace in traces]


# every finish below is carried from the drain pass or recomputed after the
# shares change; a loop that kept the finish it carried through a breakpoint
# or a user leaving would end the later segments at the wrong times
def test_segment_ends_exactly_on_a_breakpoint():
    # 4 Mbit segments at 2, then 4, then 1 Mbps: the first and fourth end on a step
    profile = make_profile("custom", breakpoints=[(0.0, 2.0), (2.0, 4.0), (5.0, 1.0)])
    scenario = _fixed_rate_scenario(profile, [(2.0, "game", CapSpec())], 6)
    traces = run_scenario(scenario)
    assert _t_ends(traces) == [[2.0, 3.0, 4.0, 5.0, 9.0, 13.0]]
    assert traces == oracle_run_scenario(scenario)


def test_last_segment_ends_with_another_users_completion():
    # user 0 (capped at 2 Mbps) ends its last segment at t=4 with user 1's
    # second; user 1 then takes the whole 4 Mbps
    profile = make_profile("fixed", base=4.0)
    scenario = _fixed_rate_scenario(
        profile, [(1.0, "qf", CapSpec(kind="fixed", cap=2.0)), (2.0, "game", CapSpec())], 4)
    traces = run_scenario(scenario)
    assert _t_ends(traces) == [[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 5.0, 6.0]]
    assert traces == oracle_run_scenario(scenario)


def test_breakpoints_without_a_completion():
    # the steps at t=1 and t=2 fall inside the first two segments
    profile = make_profile("custom", breakpoints=[(0.0, 2.0), (1.0, 4.0), (2.0, 1.0)])
    scenario = _fixed_rate_scenario(profile, [(2.0, "bf", CapSpec())], 3)
    traces = run_scenario(scenario)
    assert _t_ends(traces) == [[1.5, 4.0, 8.0]]
    assert traces == oracle_run_scenario(scenario)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_event_loop_matches_oracle(seed):
    scenario = random_scenario(seed)
    assert _outcome(run_scenario, scenario) == _outcome(oracle_run_scenario, scenario)


def test_random_scenarios_cover_every_case():
    scenarios = [random_scenario(seed) for seed in range(200)]
    assert {sc.name.split("-", 2)[2] for sc in scenarios} == set(PROFILE_KINDS)
    caps = {(u.cap.kind, u.cap.choices is not None) for sc in scenarios for u in sc.users}
    assert caps == {
        ("none", False), ("fixed", False), ("breakpoints", False), ("random", False), ("random", True),
    }
    assert {u.policy for sc in scenarios for u in sc.users} == {"game", "qf", "bf"}
    assert any(sc.sim.quantize for sc in scenarios)
    assert any(len({u.policy for u in sc.users}) == 3 for sc in scenarios)
