"""Deterministic fluid simulation of N users sharing a server bottleneck.

Users download fixed-duration segments through a max-min fair share of the
server's export bandwidth, optionally capped per user.  Between events
(segment completions and bandwidth/cap breakpoints) downloads accrue bits at
constant rates and playing buffers drain at one second per second; playback
stalls when a buffer empties and resumes when the in-flight segment lands.
The shares are recomputed only when a breakpoint is crossed or the set of
downloading users changes.
On each completion the user picks its next rate: game users exchange payoff
messages with the server, baseline users consult their throughput
estimator.  Everything is seeded and event ordering is fixed, so identical
scenarios reproduce bit-identical traces.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .adapt import PayoffQuery, PayoffServer, update_rate
from .baselines import ThroughputEstimator, bf_decide, qf_decide
from .model import quality, quantize_rate

if TYPE_CHECKING:  # pragma: no cover
    from .scenarios import Scenario

__all__ = [
    "BandwidthProfile",
    "CapSpec",
    "SimConfig",
    "TraceRecord",
    "SessionTrace",
    "SimulationError",
    "PROFILE_KINDS",
    "make_profile",
    "bandwidth_at",
    "cap_at",
    "allocate_shares",
    "quantize_rate",
    "calibrate_nu",
    "run_scenario",
]

PROFILE_KINDS = ("fixed", "persistent", "staged", "short_term", "custom")

_COMPLETION_EPS = 1e-9  # Mbits of residue treated as a finished download
_TIME = itemgetter(0)  # time of a (time, value) breakpoint


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class BandwidthProfile:
    """Piecewise-constant export bandwidth: right-continuous steps."""

    breakpoints: tuple[tuple[float, float], ...]
    kind: str = "custom"

    def __post_init__(self) -> None:
        bps = tuple((float(t), float(bw)) for t, bw in self.breakpoints)
        if not bps or bps[0][0] != 0.0:
            raise ValueError("profile breakpoints must start at t=0")
        times = [t for t, _ in bps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("profile breakpoint times must be strictly increasing")
        if any(bw <= 0 for _, bw in bps):
            raise ValueError("profile bandwidths must be > 0")
        object.__setattr__(self, "breakpoints", bps)


def make_profile(kind: str, base: float = 6.0, breakpoints=None) -> BandwidthProfile:
    """Build one of the preset bandwidth variation shapes around ``base``.

    ``persistent`` alternates base and 1.5x base at 100 s intervals;
    ``staged`` steps through base+2 / base / base-2 / base at 100/180/260/340 s;
    ``short_term`` dips 2 Mbps at 100 s and spikes 2 Mbps at 260 s, 10 s each.
    """
    if base <= 0:
        raise ValueError(f"base bandwidth must be > 0, got {base!r}")
    if kind == "fixed":
        points = ((0.0, base),)
    elif kind == "persistent":
        points = ((0.0, base), (100.0, base * 1.5), (200.0, base), (300.0, base * 1.5))
    elif kind == "staged":
        points = ((0.0, base), (100.0, base + 2.0), (180.0, base), (260.0, base - 2.0), (340.0, base))
    elif kind == "short_term":
        points = ((0.0, base), (100.0, base - 2.0), (110.0, base), (260.0, base + 2.0), (270.0, base))
    elif kind == "custom":
        if not breakpoints:
            raise ValueError("custom profile requires breakpoints")
        points = tuple((float(t), float(bw)) for t, bw in breakpoints)
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return BandwidthProfile(breakpoints=points, kind=kind)


def bandwidth_at(profile: BandwidthProfile, t: float) -> float:
    """Bandwidth of the most recent breakpoint at or before ``t``."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    return profile.breakpoints[bisect_right(profile.breakpoints, t, key=_TIME) - 1][1]


@dataclass(frozen=True)
class CapSpec:
    """Per-user channel throughput limitation.

    ``kind`` is one of: ``none`` (unlimited), ``fixed`` (constant ``cap``),
    ``breakpoints`` (explicit schedule), or ``random`` (piecewise-constant,
    resampled every ``dwell`` seconds from the scenario RNG, either
    uniformly in [lo, hi] or from the explicit ``choices`` list).
    """

    kind: str = "none"
    cap: Optional[float] = None
    breakpoints: Optional[tuple[tuple[float, float], ...]] = None
    lo: float = 1.0
    hi: float = 2.0
    dwell: float = 40.0
    choices: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("none", "fixed", "breakpoints", "random"):
            raise ValueError(f"unknown cap kind {self.kind!r}")
        if self.kind == "fixed" and not (self.cap and self.cap > 0):
            raise ValueError("fixed cap requires cap > 0")
        if self.kind == "breakpoints":
            if not self.breakpoints:
                raise ValueError("breakpoints cap requires a schedule")
            times = [t for t, _ in self.breakpoints]
            if times[0] != 0:
                raise ValueError(f"CapSpec.breakpoints must start at t=0, got t={times[0]!r}")
            if any(not b > a for a, b in zip(times, times[1:])):
                raise ValueError("CapSpec.breakpoints times must be strictly increasing")
            if any(not c > 0 for _, c in self.breakpoints):
                raise ValueError("CapSpec.breakpoints cap values must be > 0")
        if self.kind == "random":
            if self.choices is not None:
                if not self.choices or any(c <= 0 for c in self.choices):
                    raise ValueError("random cap choices must be positive")
            elif not 0 < self.lo <= self.hi:
                raise ValueError("random cap requires 0 < lo <= hi")
            if self.dwell <= 0:
                raise ValueError("random cap requires dwell > 0")

    def materialize(self, rng: np.random.Generator, horizon: float):
        """Resolve to an explicit schedule (or None for unlimited)."""
        if self.kind == "none":
            return None
        if self.kind == "fixed":
            return ((0.0, float(self.cap)),)
        if self.kind == "breakpoints":
            return tuple((float(t), float(c)) for t, c in self.breakpoints)
        n_slots = int(math.ceil(horizon / self.dwell)) + 1
        if self.choices is not None:
            values = rng.choice(np.array(self.choices, dtype=float), size=n_slots)
        else:
            values = rng.uniform(self.lo, self.hi, size=n_slots)
        return tuple((i * self.dwell, float(v)) for i, v in enumerate(values))


def cap_at(schedule, t: float) -> Optional[float]:
    """Cap value of a materialized schedule at time ``t`` (None = unlimited)."""
    if schedule is None:
        return None
    return schedule[max(bisect_right(schedule, t, key=_TIME) - 1, 0)][1]


def allocate_shares(
    export_bw: float,
    caps: Sequence[Optional[float]],
    active: Sequence[int],
) -> list[float]:
    """Max-min fair throughput split of ``export_bw`` among active users.

    Progressive filling: equal shares, users whose cap binds are frozen at
    the cap and the surplus is redistributed.  Inactive users get 0.
    """
    if export_bw <= 0:
        raise ValueError(f"export_bw must be > 0, got {export_bw!r}")
    shares = [0.0] * len(caps)
    undecided = sorted(set(active))
    remaining = export_bw
    while undecided:
        fair = remaining / len(undecided)
        binding = [i for i in undecided if caps[i] is not None and caps[i] <= fair]
        if not binding:
            for i in undecided:
                shares[i] = fair
            break
        for i in binding:
            shares[i] = caps[i]
            remaining -= caps[i]
        undecided = [i for i in undecided if i not in binding]
        remaining = max(remaining, 0.0)
        if remaining == 0.0:
            break
    return shares


def calibrate_nu(
    alpha: float,
    beta: float,
    mu: float,
    segment_duration: float,
    export_bw: float,
    n_users: int,
    r_target: Optional[float] = None,
) -> float:
    """Load weight nu that places the symmetric equilibrium at ``r_target``.

    Solves the stationarity condition at the neutral buffer point
    (adjustment factor 1) for nu:

        nu = (alpha*beta/(1 + beta*r) + mu*T) * export_bw / (T * N * r)

    with ``r_target`` defaulting to export_bw / n_users, the rate at which
    the shared link is exactly consumed.
    """
    if n_users < 1:
        raise ValueError("n_users must be >= 1")
    if export_bw <= 0 or segment_duration <= 0 or mu <= 0 or alpha <= 0 or beta <= 0:
        raise ValueError("calibrate_nu requires positive parameters")
    r = export_bw / n_users if r_target is None else r_target
    if r <= 0:
        raise ValueError("r_target must be > 0")
    marginal = alpha * beta / (1.0 + beta * r) + mu * segment_duration
    return marginal * export_bw / (segment_duration * n_users * r)


@dataclass(frozen=True)
class SimConfig:
    """Run-level simulation settings.

    ``exchange_latency`` models the payoff/request signalling delay between a
    segment completing and the next download starting; it is zero by default
    (the exchange is not on the data path) and exists for sensitivity studies.
    """

    total_segments: int
    segment_duration: float = 2.0
    initial_buffer: float = 2.0
    quantize: bool = False
    rng_seed: int = 0
    resume_policy: str = "next-segment"
    exchange_latency: float = 0.0

    def __post_init__(self) -> None:
        if self.total_segments < 1:
            raise ValueError(f"total_segments must be >= 1, got {self.total_segments!r}")
        if self.segment_duration <= 0:
            raise ValueError("segment_duration must be > 0")
        if self.initial_buffer < 0:
            raise ValueError("initial_buffer must be >= 0")
        if self.resume_policy != "next-segment":
            raise ValueError(f"unsupported resume policy {self.resume_policy!r}")
        if self.exchange_latency < 0:
            raise ValueError("exchange_latency must be >= 0")


@dataclass(frozen=True)
class TraceRecord:
    """One downloaded segment."""

    k: int
    t_start: float
    t_end: float
    requested_rate: float
    quantized_rate: float
    download_time: float
    buffer: float
    stall_seconds: float
    quality: float


@dataclass
class SessionTrace:
    """All segments of one user, plus the run metadata metrics need."""

    user_id: int
    initial_buffer: float
    quantized: bool
    records: list[TraceRecord] = field(default_factory=list)

    def requested_rates(self) -> list[float]:
        return [rec.requested_rate for rec in self.records]

    def buffers(self) -> list[float]:
        return [rec.buffer for rec in self.records]

    def total_stall(self) -> float:
        return sum(rec.stall_seconds for rec in self.records)


class _UserRuntime:
    __slots__ = (
        "idx", "spec", "cfg", "estimator", "buffer", "total_stall", "stall_this",
        "k", "done", "request_rate", "download_rate", "remaining", "started_at",
        "wait_until", "trace",
    )

    def __init__(self, idx, spec, cfg, initial_buffer, quantized):
        self.idx = idx
        self.spec = spec
        self.cfg = cfg
        self.estimator = ThroughputEstimator(weight=spec.estimator_weight)
        self.buffer = initial_buffer
        self.total_stall = 0.0
        self.stall_this = 0.0
        self.k = 0
        self.done = False
        self.request_rate = cfg.r_init
        self.download_rate = cfg.r_init
        self.remaining = 0.0
        self.started_at = 0.0
        self.wait_until = None  # signalling delay before the next download
        self.trace = SessionTrace(user_id=idx, initial_buffer=initial_buffer, quantized=quantized)

    def start_segment(self, t, segment_duration, ladder, quantized):
        self.download_rate = (
            quantize_rate(ladder, self.request_rate) if quantized else self.request_rate
        )
        self.remaining = self.download_rate * segment_duration
        self.started_at = t
        self.wait_until = None


def _link_state(profile, cap_schedules, boundary_times, t):
    """Boundary index, export bandwidth and per-user caps in force at ``t``."""
    return (
        bisect_right(boundary_times, t),
        bandwidth_at(profile, t),
        [cap_at(sched, t) for sched in cap_schedules],
    )


def run_scenario(scenario: "Scenario") -> list[SessionTrace]:
    """Run one scenario to completion and return one trace per user."""
    users = scenario.users
    if not users:
        return []
    sim = scenario.sim
    params = scenario.params
    T = params.segment_duration
    profile = scenario.server
    quantized = sim.quantize
    n = len(users)

    horizon = sim.total_segments * T * 20.0 + 1000.0
    rng = np.random.default_rng(sim.rng_seed)
    cap_schedules = [u.cap.materialize(rng, horizon) for u in users]

    server = PayoffServer(params, bandwidth_at(profile, 0.0))
    runs: list[_UserRuntime] = []
    for idx, u in enumerate(users):
        cfg = u.adapt_config()
        rt = _UserRuntime(idx, u, cfg, sim.initial_buffer, quantized)
        rt.start_segment(0.0, T, u.video.ladder, quantized)
        runs.append(rt)
        server.register(
            idx, u.video, u.b_ref,
            initial_rate=rt.request_rate,
            initial_b_curr=sim.initial_buffer,
            epsilon=cfg.epsilon,
        )

    # merged strictly-increasing event boundary times from all schedules
    boundary_times = sorted(
        {t for t, _ in profile.breakpoints}
        | {t for sched in cap_schedules if sched for t, _ in sched}
    )

    # caps and bandwidth change only at boundary times, each of which is an
    # event: they are looked up again only when t crosses one, and the shares
    # are recomputed only then or when the set of downloading users changes
    t = 0.0
    bidx, export_bw, caps_now = _link_state(profile, cap_schedules, boundary_times, t)
    shares_for = None  # the downloading set ``shares`` was computed for
    unfinished = n
    guard_limit = 20 * (n * sim.total_segments + len(boundary_times)) + 1000
    guard = 0
    while unfinished:
        guard += 1
        if guard > guard_limit:
            raise SimulationError(f"event budget exceeded at t={t:.3f}s")
        if t > horizon:
            raise SimulationError(f"simulated time exceeded the horizon at t={t:.3f}s")

        downloading = [i for i in range(n) if not runs[i].done and runs[i].wait_until is None]
        waiting = [i for i in range(n) if not runs[i].done and runs[i].wait_until is not None]
        if downloading != shares_for:
            shares = allocate_shares(export_bw, caps_now, downloading)
            shares_for = downloading

        t_next = boundary_times[bidx] if bidx < len(boundary_times) else math.inf
        for i in downloading:
            if shares[i] <= 0:
                raise SimulationError(f"user {i} starved of bandwidth at t={t:.3f}s")
            t_next = min(t_next, t + runs[i].remaining / shares[i])
        for i in waiting:
            t_next = min(t_next, runs[i].wait_until)
        if not math.isfinite(t_next):
            raise SimulationError("no next event; simulation wedged")

        dt = t_next - t
        for i in downloading + waiting:
            rt = runs[i]
            played = min(rt.buffer, dt)
            rt.buffer -= played
            stalled = dt - played
            rt.stall_this += stalled
            rt.total_stall += stalled
            if rt.wait_until is None:
                rt.remaining -= shares[i] * dt
        t = t_next
        if bisect_right(boundary_times, t) != bidx:
            bidx, export_bw, caps_now = _link_state(profile, cap_schedules, boundary_times, t)
            shares_for = None

        for i in waiting:
            if runs[i].wait_until <= t + 1e-12:
                runs[i].start_segment(t, T, runs[i].spec.video.ladder, quantized)
                server.note_request(i, runs[i].request_rate)

        completed = [i for i in downloading if runs[i].remaining <= _COMPLETION_EPS]
        if not completed:
            continue

        server.export_bw = export_bw
        for i in completed:
            rt = runs[i]
            rt.buffer += T
            rt.trace.records.append(TraceRecord(
                k=rt.k,
                t_start=rt.started_at,
                t_end=t,
                requested_rate=rt.request_rate,
                quantized_rate=rt.download_rate,
                download_time=t - rt.started_at,
                buffer=rt.buffer,
                stall_seconds=rt.stall_this,
                quality=quality(rt.spec.video, rt.download_rate),
            ))
            rt.stall_this = 0.0
            rt.k += 1
            if rt.k >= sim.total_segments:
                rt.done = True
                unfinished -= 1

        # payoff exchange for game users against the frozen pre-event rates:
        # an updated rate reaches the server only through note_request below,
        # after every reply of this event has been computed
        for i in completed:
            rt = runs[i]
            if rt.done or rt.spec.policy != "game":
                continue
            try:
                reply = server.handle_query(PayoffQuery(
                    user_id=i, b_curr=rt.buffer, last_rate=rt.request_rate,
                ))
                rt.request_rate = update_rate(rt.cfg, rt.request_rate, reply.gradient_estimate)
            except (ValueError, KeyError, IndexError) as exc:
                raise SimulationError(
                    f"policy failure for user {i} at segment {rt.k}: {exc}"
                ) from exc

        for i in completed:
            rt = runs[i]
            if rt.done:
                continue
            if rt.spec.policy != "game":
                last = rt.trace.records[-1]
                sample = last.quantized_rate * T / last.download_time
                try:
                    rt.estimator.observe(sample)
                    if rt.spec.policy == "qf":
                        rt.request_rate = qf_decide(
                            rt.estimator, rt.spec.video.ladder, rt.buffer,
                            startup_threshold=rt.spec.qf_startup,
                        )
                    elif rt.spec.policy == "bf":
                        rt.request_rate = bf_decide(
                            rt.estimator, rt.spec.video.ladder, rt.buffer,
                            rt.spec.b_ref, gain=rt.spec.bf_gain,
                        )
                    else:
                        raise ValueError(f"unknown policy {rt.spec.policy!r}")
                except ValueError as exc:
                    raise SimulationError(
                        f"policy failure for user {i} at segment {rt.k}: {exc}"
                    ) from exc
            if sim.exchange_latency > 0.0:
                rt.wait_until = t + sim.exchange_latency
            else:
                rt.start_segment(t, T, rt.spec.video.ladder, quantized)
                server.note_request(i, rt.request_rate)

    return [rt.trace for rt in runs]
