"""Deterministic fluid simulation of N users sharing a server bottleneck.

Users download fixed-duration segments through a max-min fair share of the
server's export bandwidth, optionally capped per user.  Between events
(segment completions and bandwidth/cap breakpoints) downloads accrue bits at
constant rates and playing buffers drain at one second per second; playback
stalls when a buffer empties and resumes when the in-flight segment lands.
Every unfinished user is downloading: a user requests its next segment as
soon as one lands.  The event loop keeps one list of them in user order;
their shares and the check for starved users are recomputed only when a
breakpoint is crossed or a user finishes.
On each completion the user picks its next rate: game users step along the
payoff gradient the server computes, baseline users consult their throughput
estimator.  Only then does each user start its next download and report its
rate to the server, so every reply within one event sees the same rates.
Each segment becomes one `TraceRecord`, an immutable named tuple.
Everything is seeded and event ordering is fixed, so identical scenarios
reproduce bit-identical traces.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

import numpy as np

from .adapt import PayoffServer, update_rate
from .baselines import ThroughputEstimator, bf_decide, qf_decide
from .model import log_quality, quantize_rate, serial_sum

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
    "Link",
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


def _positive(x: float) -> bool:
    return 0 < x < math.inf


def _check_schedule(points, name: str, values: str) -> None:
    """Check a (time, value) step schedule: it starts at t=0, its times are
    finite and strictly increasing, and its values finite and > 0."""
    if not points:
        raise ValueError(f"{name} must be a nonempty schedule starting at t=0")
    if points[0][0] != 0:
        raise ValueError(f"{name} must start at t=0, got t={points[0][0]!r}")
    times = [t for t, _ in points]
    if any(not b > a for a, b in zip(times, times[1:])) or not math.isfinite(times[-1]):
        raise ValueError(f"{name} times must be finite and strictly increasing")
    if not all(_positive(v) for _, v in points):
        raise ValueError(f"{name} {values} must be finite and > 0")


def _step_at(schedule, t: float):
    """Value of the most recent (time, value) step at or before ``t``; the
    first value before the first step."""
    return schedule[max(bisect_right(schedule, t, key=_TIME) - 1, 0)][1]


@dataclass(frozen=True)
class BandwidthProfile:
    """Piecewise-constant export bandwidth: right-continuous steps."""

    breakpoints: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        bps = tuple((float(t), float(bw)) for t, bw in self.breakpoints)
        _check_schedule(bps, "BandwidthProfile.breakpoints", "bandwidths")
        object.__setattr__(self, "breakpoints", bps)


def make_profile(kind: str, base: float = 6.0, breakpoints=None) -> BandwidthProfile:
    """Build one of the preset bandwidth variation shapes around ``base``.

    ``persistent`` alternates base and 1.5x base at 100 s intervals;
    ``staged`` steps through base+2 / base / base-2 / base at 100/180/260/340 s;
    ``short_term`` dips 2 Mbps at 100 s and spikes 2 Mbps at 260 s, 10 s each.
    """
    # staged and short_term step 2 Mbps below base
    floor = 2.0 if kind in ("staged", "short_term") else 0.0
    if not (math.isfinite(base) and base > floor):
        raise ValueError(f"base bandwidth must be finite and > {floor:g}, got {base!r}")
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
    return BandwidthProfile(breakpoints=points)


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
        if self.kind == "fixed" and not (self.cap is not None and _positive(self.cap)):
            raise ValueError(f"CapSpec.cap must be finite and > 0, got {self.cap!r}")
        if self.kind == "breakpoints":
            _check_schedule(self.breakpoints, "CapSpec.breakpoints", "cap values")
        if self.kind == "random":
            if self.choices is not None:
                if not (self.choices and all(_positive(c) for c in self.choices)):
                    raise ValueError("CapSpec.choices must be nonempty, finite and > 0")
            elif not math.isfinite(self.hi):
                raise ValueError(f"CapSpec.hi must be finite, got {self.hi!r}")
            elif not 0 < self.lo <= self.hi:
                raise ValueError(
                    f"CapSpec.lo must lie in (0, hi], got lo={self.lo!r} hi={self.hi!r}"
                )
            if not _positive(self.dwell):
                raise ValueError(f"CapSpec.dwell must be finite and > 0, got {self.dwell!r}")

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
        return tuple(zip((np.arange(n_slots) * self.dwell).tolist(), values.tolist()))


class Link:
    """A run's export bandwidth and user caps.  Every cap schedule is drawn
    once, from one ``default_rng(sim.rng_seed)`` in user order over
    ``sim.horizon``; ``times`` holds every breakpoint, strictly increasing."""

    def __init__(self, scenario: "Scenario") -> None:
        rng = np.random.default_rng(scenario.sim.rng_seed)
        self.profile = scenario.server
        self.caps = [u.cap.materialize(rng, scenario.sim.horizon) for u in scenario.users]
        self.times = sorted(
            {t for sched in (self.profile.breakpoints, *self.caps) if sched for t, _ in sched})

    def at(self, t: float) -> tuple[float, float, list[Optional[float]]]:
        """The next step after ``t`` (inf if none), the export bandwidth, and
        every user's cap (None = unlimited) in force at ``t``."""
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t!r}")
        i = bisect_right(self.times, t)
        caps = [None if sched is None else _step_at(sched, t) for sched in self.caps]
        bw = _step_at(self.profile.breakpoints, t)
        return self.times[i] if i < len(self.times) else math.inf, bw, caps


def allocate_shares(export_bw: float, caps: Sequence[Optional[float]]) -> list[float]:
    """Max-min fair split of ``export_bw`` among the users sharing the link,
    given their caps (None = unlimited); the shares come back in that order.

    Water filling: walk the users once by cap, uncapped last.  Each takes its
    cap while that is at most an equal split of what is left; from the first
    whose cap exceeds the split on, every user takes the split.
    """
    if not 0 < export_bw < math.inf:
        raise ValueError(f"export_bw must be finite and > 0, got {export_bw!r}")
    shares = [0.0] * len(caps)
    order = sorted(range(len(caps)), key=lambda i: math.inf if caps[i] is None else caps[i])
    remaining = export_bw
    for k, i in enumerate(order):
        fair = remaining / (len(order) - k)
        if caps[i] is None or caps[i] > fair:
            for j in order[k:]:
                shares[j] = fair
            break
        shares[i] = caps[i]
        remaining -= caps[i]
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
    r = export_bw / n_users if r_target is None else r_target
    checked = dict(alpha=alpha, beta=beta, mu=mu, segment_duration=segment_duration,
                   export_bw=export_bw, r_target=r)
    for name, value in checked.items():
        if not _positive(value):
            raise ValueError(f"calibrate_nu: {name} must be finite and > 0, got {value!r}")
    marginal = alpha * beta / (1.0 + beta * r) + mu * segment_duration
    return marginal * export_bw / (segment_duration * n_users * r)


@dataclass(frozen=True)
class SimConfig:
    """Run-level simulation settings."""

    total_segments: int
    segment_duration: float = 2.0
    initial_buffer: float = 2.0
    quantize: bool = False
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.total_segments <= sys.float_info.max:  # the horizon is a float
            raise ValueError(f"total_segments must be >= 1 and fit a float, got {self.total_segments!r}")
        if not _positive(self.segment_duration):
            raise ValueError(
                f"segment_duration must be finite and > 0, got {self.segment_duration!r}"
            )
        if not (math.isfinite(self.initial_buffer) and self.initial_buffer >= 0):
            raise ValueError(
                f"initial_buffer must be finite and >= 0, got {self.initial_buffer!r}"
            )
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed!r}")

    @property
    def horizon(self) -> float:
        """Simulated seconds after which a run is stopped as wedged."""
        return self.total_segments * self.segment_duration * 20.0 + 1000.0


class TraceRecord(NamedTuple):
    """One downloaded segment; the fields are the trace CSV's columns, in order."""

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
        return serial_sum(rec.stall_seconds for rec in self.records)


class _UserRuntime:
    """One user's state in the event loop, with its constants read once."""

    __slots__ = (
        "idx", "spec", "cfg", "policy", "video", "alpha", "beta", "ladder", "estimator",
        "buffer", "stall_this", "k", "done", "request_rate", "download_rate", "remaining",
        "share", "started_at", "trace",
    )

    def __init__(self, idx, spec, cfg, initial_buffer, quantized):
        self.idx = idx
        self.spec = spec
        self.cfg = cfg
        self.policy = spec.policy
        self.video = spec.video
        self.alpha = spec.video.alpha
        self.beta = spec.video.beta
        self.ladder = spec.video.ladder
        self.estimator = ThroughputEstimator()
        self.buffer = initial_buffer
        self.stall_this = 0.0
        self.k = 0
        self.done = False
        self.request_rate = cfg.r_init
        self.download_rate = cfg.r_init
        self.remaining = 0.0
        self.share = 0.0  # set whenever the shares are recomputed
        self.started_at = 0.0
        self.trace = SessionTrace(user_id=idx, initial_buffer=initial_buffer, quantized=quantized)

    def start_segment(self, t, segment_duration, quantized):
        self.download_rate = (
            quantize_rate(self.ladder, self.request_rate) if quantized else self.request_rate
        )
        self.remaining = self.download_rate * segment_duration
        self.started_at = t


def _next_rate(rt: _UserRuntime, T: float) -> float:
    """The rate a QF or BF user picks for its next segment when one completes:
    it folds the segment's throughput into its estimator and decides.  A
    segment that took no simulated time gives an infinite throughput, which
    the estimator refuses."""
    last = rt.trace.records[-1]
    elapsed = last.download_time
    rt.estimator.observe(last.quantized_rate * T / elapsed if elapsed else math.inf)
    if rt.policy == "qf":
        return qf_decide(rt.estimator, rt.ladder, rt.buffer, startup_threshold=rt.spec.qf_startup)
    if rt.policy == "bf":
        return bf_decide(rt.estimator, rt.ladder, rt.buffer, rt.spec.b_ref, gain=rt.spec.bf_gain)
    raise ValueError(f"unknown policy {rt.policy!r}")


def _past_horizon(runs: list[_UserRuntime], t: float, horizon: float) -> str:
    """The error of an event at ``t`` past the horizon.  It names the first
    started of the segments that ended at ``t`` or are still downloading."""
    segments = [(rt.started_at, rt.idx, rt.k) for rt in runs if not rt.done]
    segments += [(rec.t_start, rt.idx, rec.k) for rt in runs
                 for rec in rt.trace.records[-1:] if rec.t_end == t]
    start, idx, k = min(segments)
    return (f"simulated time exceeded the horizon of {horizon:g}s at t={t:g}s:"
            f" segment {k} of user {idx} started at t={start:g}s")


def run_scenario(scenario: "Scenario") -> list[SessionTrace]:
    """Run one scenario to completion and return one trace per user."""
    users = scenario.users
    if not users:
        return []
    sim = scenario.sim
    params = scenario.params
    T = params.segment_duration
    quantized = sim.quantize
    total_segments = sim.total_segments
    n = len(users)
    horizon = sim.horizon

    link = Link(scenario)
    t = 0.0
    t_step, export_bw, caps_now = link.at(t)
    runs: list[_UserRuntime] = []
    for idx, u in enumerate(users):
        rt = _UserRuntime(idx, u, u.adapt_config(), sim.initial_buffer, quantized)
        rt.start_segment(0.0, T, quantized)
        runs.append(rt)
    server = PayoffServer(
        params, export_bw, [(rt.video, rt.spec.b_ref, rt.request_rate) for rt in runs])
    gradient = server.gradient

    # caps and bandwidth change only at the link's steps, each of which is an
    # event: they are looked up again only when t reaches ``t_step``.  The
    # shares of ``active`` (the unfinished users, in user order, all
    # downloading) are recomputed only then or when a user finishes.
    # ``t_next``, the next event, is the earliest of ``t_step`` and every
    # active user's finish ``t + remaining/share``.  The drain pass computes
    # that finish for the event after it, with the same operands, so with
    # fresh shares every finish is computed anew, and otherwise only those
    # of the users who start a new segment are.
    active = list(runs)
    stale = True  # the shares do not match the link state or the active users
    guard_limit = 20 * (n * total_segments + len(link.times)) + 1000
    guard = 0
    while active:
        guard += 1
        if guard > guard_limit:
            raise SimulationError(f"event budget exceeded at t={t:.3f}s")
        if t > horizon:
            raise SimulationError(_past_horizon(runs, t, horizon))

        if stale:
            shares = allocate_shares(export_bw, [caps_now[rt.idx] for rt in active])
            t_next = t_step
            for rt, share in zip(active, shares):
                rt.share = share
                if share <= 0:
                    raise SimulationError(
                        f"user {rt.idx} starved of bandwidth at t={t:.3f}s in segment {rt.k}")
                finish = t + rt.remaining / share
                if finish < t_next:
                    t_next = finish
            stale = False
        if not math.isfinite(t_next):
            # every active user's finish is infinite: name the first
            rt = active[0]
            raise SimulationError(
                f"no next event; simulation wedged at t={t:g}s: segment {rt.k} of user"
                f" {rt.idx} cannot finish at a share of {rt.share:g} Mbps")

        # downloads accrue and playback drains every buffer, stalling once
        # it is empty; a leftover too small to move the clock is finished
        # too, or a huge segment would spin at a fixed t
        dt = t_next - t
        completed = []
        t_after = t_step  # the event after this one, over the users who carry on
        for rt in active:
            share = rt.share
            rt.remaining = remaining = rt.remaining - share * dt
            buffer = rt.buffer
            if dt < buffer:
                rt.buffer = buffer - dt
            else:
                rt.stall_this += dt - buffer
                rt.buffer = 0.0
            finish = t_next + remaining / share
            if remaining <= _COMPLETION_EPS or finish <= t_next:
                completed.append(rt)
            elif finish < t_after:
                t_after = finish
        t = t_next
        t_next = t_after
        if t_step <= t:
            t_step, export_bw, caps_now = link.at(t)
            stale = True
        if not completed:
            continue

        # pass 1 records each segment and picks the user's next rate: a game
        # user takes one step along the server's payoff gradient, against the
        # frozen pre-event rates, since an updated rate reaches the server
        # only through note_request in pass 2
        server.export_bw = export_bw
        for rt in completed:
            rt.buffer += T
            rt.trace.records.append(tuple.__new__(TraceRecord, (
                rt.k, rt.started_at, t, rt.request_rate, rt.download_rate,
                t - rt.started_at, rt.buffer, rt.stall_this,
                log_quality(rt.alpha, rt.beta, rt.download_rate),
            )))
            rt.stall_this = 0.0
            rt.k += 1
            if rt.k >= total_segments:
                rt.done = True
                continue
            try:
                if rt.policy == "game":
                    rt.request_rate = update_rate(
                        rt.cfg, rt.request_rate, gradient(rt.idx, rt.buffer))
                else:
                    rt.request_rate = _next_rate(rt, T)
            except (ValueError, KeyError, IndexError) as exc:
                raise SimulationError(
                    f"policy failure for user {rt.idx} at segment {rt.k}: {exc}") from exc

        # pass 2 starts each unfinished user's next download
        for rt in completed:
            if rt.done:
                stale = True
            else:
                rt.start_segment(t, T, quantized)
                server.note_request(rt.idx, rt.request_rate)
                finish = t + rt.remaining / rt.share
                if finish < t_next:
                    t_next = finish
        if stale:
            active = [rt for rt in active if not rt.done]

    return [rt.trace for rt in runs]
