"""The three closed-loop workloads: one client, one thread, ops back to back.

Every workload maps an op index ``k`` to its input deterministically from the
seed (``prepare``), runs the op through dashgame's public API (``execute``,
the only timed part) and checks its output (``check``).  ``crowd`` and
``analysis`` draw a new input for every ``k``, so no input repeats within a
run; ``presets`` cycles through the shipped presets.  An op that raises or
returns an error fails; an op whose output is wrong also fails and makes the
run incorrect.  Set-up runs the ops in ``warmup`` once, untimed, so that
first-call costs of every code path the ops take land in set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from collections import Counter
from pathlib import Path

import numpy as np

from dashgame import cli, game, model, netsim, scenarios, stability

REFERENCE = Path(__file__).resolve().parent / "reference" / "presets.json"

# the 12 presets shipped with the package; the reference holds their outputs
PRESETS = (
    "case1-buffer-sweep", "case1-fixed", "case1-uncalibrated", "case2-persistent",
    "case2-short", "case2-staged", "case3", "case4-fixed", "case4-persistent",
    "case4-short", "case4-staged", "realistic-6user",
)
SWEEP = ("sweep", "--preset", "case4-fixed", "--policy", "game,qf,bf")

# user population of crowd and analysis: the fitted video curves and
# constants of the realistic-6user preset, spread around its three users
LADDER = tuple(round(0.3 + 0.15 * i, 2) for i in range(20))
MU, P, T, THETA, B_REF = 0.006, 0.25, 2.0, 40.0, 20.0
BW_PER_USER = 1.5

CROWD_USERS = 64
CROWD_SEGMENTS = 100  # 200 s of video: crosses the staged steps at 100 and 180 s
SOLVE_ONLY_N = 512  # build_report rejects matrices of order above 64
ANALYSIS_SIZES = (SOLVE_ONLY_N, 2, 8, 32, 64)
BUFFER_ABS_TOL = 1e-6  # seconds; buffers drain over many events
SUMMARY_REL_TOL = 1e-6
RADIUS_REL_TOL = 1e-7
JACOBIAN_STEP = 1e-6  # jacobian_numeric's default central-difference step


class WrongOutput(Exception):
    """The op returned, but its output fails the benchmark's check."""


class StabilityFailure(Exception):
    """The Jacobian or report step raised on a solved instance."""

    def __init__(self, eq, message: str) -> None:
        super().__init__(message)
        self.eq = eq


def _population(rng: np.random.Generator, n: int):
    alphas = rng.uniform(0.035, 0.045, n)
    betas = rng.uniform(0.8, 1.2, n)
    bw = BW_PER_USER * n
    nu = netsim.calibrate_nu(float(alphas.mean()), float(betas.mean()), MU, T, bw, n)
    return alphas, betas, bw, nu


class Presets:
    """cli.main on every shipped preset, then a three-policy sweep, in a fixed order.

    The inputs are the shipped presets, so the seed does not change them.
    """

    name = "presets"
    cycle = len(PRESETS) + 1
    warmup = (0, len(PRESETS))  # one simulate, and the sweep for the baselines
    trace_ops = tuple(range(cycle))

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        # make_reference.py runs these ops before the reference exists
        self.reference = (
            json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {"ops": {}}
        )

    def op_label(self, k: int) -> str:
        k %= self.cycle
        return f"simulate {PRESETS[k]}" if k < len(PRESETS) else f"sweep {SWEEP[2]}"

    def tag(self, k: int) -> str:
        return self.op_label(k).split()[0]

    def prepare(self, k: int):
        label = self.op_label(k)
        out = self.workdir / label.replace(" ", "-")
        shutil.rmtree(out, ignore_errors=True)
        if label.startswith("simulate"):
            argv = ["simulate", "--preset", label.split()[1], "--out", str(out)]
        else:
            argv = [*SWEEP, "--out", str(out)]
        return label, argv, out

    def execute(self, inp):
        _, argv, _ = inp
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, inp, result, counts: Counter) -> None:
        label, _, out = inp
        if isinstance(result, BaseException):
            raise result
        if result != 0:
            raise RuntimeError(f"{label}: exit code {result}")
        ref = self.reference["ops"][label]
        got = collect_outputs(out)
        if sorted(got["summaries"]) != sorted(ref["summaries"]):
            raise WrongOutput(f"{label}: summary files {sorted(got['summaries'])}")
        for rel, summary in got["summaries"].items():
            where = close(summary, ref["summaries"][rel], SUMMARY_REL_TOL)
            if where is not None:
                raise WrongOutput(f"{label}: {rel} differs at {where}")
        counts["segments"] += got["segments"]
        counts["cli.trace_digest_mismatches"] += sum(
            got["csv_sha256"].get(rel) != digest for rel, digest in ref["csv_sha256"].items()
        )


class Crowd:
    """run_scenario on 64 game users with staggered starts, a quarter capped."""

    name = "crowd"
    warmup = (0,)
    trace_ops = (0, 1)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def tag(self, k: int) -> str:
        return "run"

    def prepare(self, k: int):
        rng = np.random.default_rng([self.seed, k])
        n = CROWD_USERS
        alphas, betas, bw, nu = _population(rng, n)
        r_init = rng.uniform(LADDER[0], LADDER[-1], n)
        capped = set(rng.permutation(n)[: n // 4].tolist())
        users = [
            {
                "video": {"alpha": float(alphas[i]), "beta": float(betas[i]), "ladder": list(LADDER)},
                "theta": THETA,
                "b_ref": B_REF,
                "max_step_fraction": 0.5,
                "r_init": float(r_init[i]),
                "cap_profile": (
                    {"kind": "random", "lo": 0.75, "hi": 2.25, "dwell": 30.0} if i in capped else None
                ),
            }
            for i in range(n)
        ]
        doc = {
            "params": {"mu": MU, "nu": nu, "p": P},
            "users": users,
            "server": {"kind": "staged", "base": bw},
            "sim": {
                "segment_duration": T,
                "total_segments": CROWD_SEGMENTS,
                "initial_buffer": 2.0,
                "seed": int(rng.integers(2**31)),
            },
        }
        return scenarios.scenario_from_dict(doc, name=f"crowd-{self.seed}-{k}")

    def execute(self, sc):
        return netsim.run_scenario(sc)

    def check(self, sc, result, counts: Counter) -> None:
        if isinstance(result, BaseException):
            raise result
        if len(result) != len(sc.users):
            raise WrongOutput(f"{len(result)} traces for {len(sc.users)} users")
        for trace in result:
            check_buffer_identity(trace, sc.sim.total_segments, sc.sim.initial_buffer, T)
            counts["segments"] += len(trace.records)


def check_buffer_identity(trace, total_segments: int, initial_buffer: float, seg: float) -> None:
    """Record count, ascending t_end, and the buffer and stall recurrences."""
    recs = trace.records
    who = f"user {trace.user_id}"
    if len(recs) != total_segments:
        raise WrongOutput(f"{who}: {len(recs)} records, expected {total_segments}")
    prev_buffer, prev_end = initial_buffer, -math.inf
    for rec in recs:
        if not rec.t_end > prev_end:
            raise WrongOutput(f"{who}: t_end not ascending at k={rec.k}")
        buffer = max(prev_buffer - rec.download_time, 0.0) + seg
        stall = max(rec.download_time - prev_buffer, 0.0)
        if abs(rec.buffer - buffer) > BUFFER_ABS_TOL or abs(rec.stall_seconds - stall) > BUFFER_ABS_TOL:
            raise WrongOutput(f"{who}: buffer identity broken at k={rec.k}")
        prev_buffer, prev_end = rec.buffer, rec.t_end


class Analysis:
    """solve_equilibrium, Jacobian and build_report on heterogeneous instances.

    N cycles through 2, 8, 32 and 64, with a solve-only N=512 op first in
    each cycle.  Buffers are drawn from empty to twice the reference, so
    some users sit at rate 0 at equilibrium, where ``jacobian_numeric``
    raises (its minus leg goes negative).  That known defect is counted in
    ``stability.failures`` and ``boundary_defect_frac``; the op's solve is
    still checked, and any other exception fails the op.
    """

    name = "analysis"
    warmup = tuple(range(len(ANALYSIS_SIZES)))  # one op of each size
    trace_ops = tuple(range(4 * len(ANALYSIS_SIZES)))

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed

    def tag(self, k: int) -> str:
        return f"n{ANALYSIS_SIZES[k % len(ANALYSIS_SIZES)]}"

    def prepare(self, k: int):
        n = ANALYSIS_SIZES[k % len(ANALYSIS_SIZES)]
        rng = np.random.default_rng([self.seed, k])
        alphas, betas, bw, nu = _population(rng, n)
        params = model.GameParams(mu=MU, nu=nu, p=P, segment_duration=T)
        models = [
            model.VideoQualityModel(alpha=float(a), beta=float(b), ladder=LADDER)
            for a, b in zip(alphas, betas)
        ]
        bufs = [
            model.BufferView(b_curr=float(b), b_ref=B_REF)
            for b in rng.uniform(0.0, 2.0 * B_REF, n)
        ]
        return params, models, bufs, bw, [THETA] * n

    def execute(self, inp):
        params, models, bufs, bw, thetas = inp
        eq = game.solve_equilibrium(params, models, bufs, bw, r_max=LADDER[-1])
        if len(models) == SOLVE_ONLY_N:
            return eq, None, None
        # looked up per call so the tracer sees it
        jac_fn = stability.jacobian_2user if len(models) == 2 else stability.jacobian_numeric
        try:
            jac = jac_fn(params, models, bufs, bw, eq.rates, thetas)
            return eq, jac, stability.build_report(jac)
        except (ValueError, stability.EigenvalueError) as exc:
            raise StabilityFailure(eq, f"{type(exc).__name__}: {exc}") from exc

    def check(self, inp, result, counts: Counter) -> None:
        if isinstance(result, StabilityFailure):
            counts["stability.failures"] += 1
            eq, jac, report = result.eq, None, None
        elif isinstance(result, BaseException):
            raise result
        else:
            eq, jac, report = result
        counts["game.solve_equilibrium.iterations"] += eq.iterations
        if not eq.converged:
            counts["game.solve_equilibrium.nonconverged"] += 1
            raise RuntimeError(f"solve_equilibrium did not converge (residual {eq.residual:g})")
        if not eq.residual <= 1e-9:
            raise WrongOutput(f"converged with residual {eq.residual:g} > tol")
        if isinstance(result, StabilityFailure):
            cause = result.__cause__
            if isinstance(cause, ValueError) and min(eq.rates) < JACOBIAN_STEP:
                counts["boundary_defect"] += 1
                return
            raise result
        if report is not None:
            ref = float(np.abs(np.linalg.eigvals(jac)).max())
            if abs(report.spectral_radius - ref) > RADIUS_REL_TOL * max(1.0, ref):
                raise WrongOutput(f"spectral radius {report.spectral_radius!r} vs eigvals {ref!r}")


WORKLOADS = {w.name: w for w in (Presets, Crowd, Analysis)}


def collect_outputs(out: Path) -> dict:
    """Summaries, CSV digests and trace row count of one CLI output tree."""
    summaries, digests, segments = {}, {}, 0
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out).as_posix()
        if path.name == "summary.json":
            summaries[rel] = json.loads(path.read_text(encoding="utf-8"))
        elif path.suffix == ".csv":
            data = path.read_bytes()
            digests[rel] = hashlib.sha256(data).hexdigest()
            if path.name.startswith("user"):
                segments += data.count(b"\n") - 1
    return {"summaries": summaries, "csv_sha256": digests, "segments": segments}


def close(got, ref, rel_tol: float, where: str = "$"):
    """Path of the first value where ``got`` and ``ref`` differ, or None."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return where
        for key in ref:
            bad = close(got[key], ref[key], rel_tol, f"{where}.{key}")
            if bad is not None:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return where
        for i, (g, r) in enumerate(zip(got, ref)):
            bad = close(g, r, rel_tol, f"{where}[{i}]")
            if bad is not None:
                return bad
        return None
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        ok = isinstance(got, (int, float)) and abs(got - ref) <= rel_tol * max(abs(got), abs(ref), 1e-12)
        return None if ok else where
    return None if got == ref else where
