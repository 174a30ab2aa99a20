"""dashgame benchmark: closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload crowd --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

One client runs ops back to back for ``--seconds`` and checks every op's
output.  ``crowd`` and ``analysis`` draw a new input for every op; ``presets``
cycles through the shipped presets, so its inputs repeat.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

BENCHMARK.json lists ``presets`` and ``analysis`` only: with two workloads a
run can last 55 s within the time budget of a full set of runs, and on a
shared 2-vCPU host, whose speed drifts by up to 1.8x over minutes, 30-s runs
spread more than the 0.25 bound.  ``crowd`` (64 users, the event-loop
yardstick) runs the same way when named.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: from the start of this script through imports, input
  generation and the workload's untimed warm-up ops (on inputs of
  WARMUP_SEED, whatever ``--seed`` is); the median of this
  process and SETUP_PROBES fresh ones started at even intervals through the
  measurement, so cold first-call costs land here and not in the ops, and
  one stretch of host contention does not cover most of the samples;
- ``ops_per_s``: ops run over the seconds spent in them;
- ``op_p50_ms``: median op latency;
- ``peak_rss_mb``: peak resident memory of this process.

The detail line before it adds ``segments_per_s``, ``op_p90_ms`` (only with at
least 100 ops), ``failed_frac`` and, on ``analysis``, ``boundary_defect_frac``:
the share of ops whose ``jacobian_numeric`` raised at a zero equilibrium rate
(a known defect, counted there and not as a failed op).

``--trace 1`` runs the workload's fixed trace op list, alternately without and
with the tracer, until ``--seconds`` have passed and at least two traced
passes ran.  Counts (``*.calls``, segments, iterations, failures, digest
mismatches) come from the traced passes and must repeat exactly across them;
``*.busy_s`` and ``*.self_s`` are seconds per op (per op of that size for the
``.nXX`` metrics) in the fastest traced pass for that figure;
``trace.overhead_frac`` is the fastest traced pass over the fastest untraced
one, minus 1, and ``op.us_per_segment`` comes from the fastest untraced pass.
A layer the program no longer has is reported as 0 and listed under
``absent_metrics``.
"""

from time import perf_counter

T_START = perf_counter()

import os  # noqa: E402

# The workloads are single-threaded closed loops.  A second BLAS thread on a
# small shared host mostly adds noise (op_p50_ms spread on analysis about
# halved with one thread on 2 vCPUs); set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

LOAD_AT_START = os.getloadavg()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 8
WARMUP_SEED = 0
CHILD_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
DETAIL = {"segments_per_s": "1/s", "op_p90_ms": "ms", "failed_frac": "1", "boundary_defect_frac": "1"}
SIZED = (
    ("game.solve_equilibrium", "n64"),
    ("game.solve_equilibrium", "n512"),
    ("stability.jacobian_numeric", "n64"),
    ("stability.build_report", "n64"),
)
COUNTS = (
    "netsim.segments",
    "game.solve_equilibrium.iterations",
    "game.solve_equilibrium.nonconverged",
    "stability.failures",
    "cli.trace_digest_mismatches",
)
# figures recorded under ROADMAP "Recent", printed next to the measured ones
ROADMAP = {
    "crowd": {"op.us_per_segment": (129.0, "staggered users, N=64, us/segment")},
    "analysis": {
        "game.solve_equilibrium.n512.busy_s": (0.62, "solve_equilibrium at N=512"),
        "stability.jacobian_numeric.n64.busy_s": (0.050, "jacobian_numeric at N=64"),
        "stability.build_report.n64.busy_s": (0.0044, "eigenvalues_small at N=64"),
    },
}


def per_layer_units(layers) -> dict:
    """name -> unit of every --trace 1 metric."""
    units = {}
    for layer in layers:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s", f"{layer}.self_s": "s"})
    units.update({f"{layer}.{size}.busy_s": "s" for layer, size in SIZED})
    units.update({name: "count" for name in COUNTS})
    units.update({
        "netsim.events_per_segment": "1",
        "op.us_per_segment": "us",
        "trace.overhead_frac": "1",
    })
    return units


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "dashgame" / "__init__.py").is_file():
        fail(f"no dashgame sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import dashgame

    if Path(dashgame.__file__).resolve().parent != (SRC / "dashgame").resolve():
        fail(f"imported dashgame from {dashgame.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # stay in the checkout
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "loadavg_at_start": list(LOAD_AT_START),
    }


class Runner:
    """Runs ops of one workload, keeping latencies, statuses and exact counts."""

    def __init__(self, wl) -> None:
        from workloads import WrongOutput

        self.wrong_output = WrongOutput
        self.wl = wl
        self.counts: Counter = Counter()
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: Counter = Counter()

    def op(self, k: int, tracer=None) -> float:
        inp = self.wl.prepare(k)
        t0 = perf_counter()
        try:
            if tracer is None:
                result = self.wl.execute(inp)
            else:
                with tracer.op(self.wl.tag(k)):
                    result = self.wl.execute(inp)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result = exc
        dt = perf_counter() - t0
        self.attempted += 1
        try:
            self.wl.check(inp, result, self.counts)
        except self.wrong_output as exc:
            self.failed += 1
            self.wrong.append(str(exc))
        except Exception as exc:
            self.failed += 1
            self.errors[f"{type(exc).__name__}: {str(exc)[:120]}"] += 1
        return dt


def setup(name: str, seed: int, workdir: Path):
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    # warm-up inputs come from a fixed seed: set-up then does the same work
    # whatever --seed is, and its time does not follow the seed's instances
    warm = Runner(workloads.WORKLOADS[name](WARMUP_SEED, workdir))
    for k in wl.warmup:
        warm.op(k)
    return wl, warm, perf_counter() - T_START


def setup_probe(name: str, seed: int) -> float:
    """setup_s of one fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        fail(f"setup probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(wl, seconds: float, probe):
    """Ops back to back for ``seconds``, calling ``probe`` SETUP_PROBES times
    at even intervals; the time spent in probes does not count."""
    run = Runner(wl)
    latencies = []
    probes = []
    probed_s = 0.0
    t_begin = perf_counter()
    while not latencies or perf_counter() - t_begin - probed_s < seconds:
        if len(probes) < SETUP_PROBES and perf_counter() - t_begin - probed_s >= seconds * len(probes) / SETUP_PROBES:
            t_probe = perf_counter()
            probes.append(probe())
            probed_s += perf_counter() - t_probe
        latencies.append(run.op(len(latencies)))
    while len(probes) < SETUP_PROBES:  # a run shorter than one op
        probes.append(probe())
    busy = sum(latencies)
    metrics = {
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"failed_frac": run.failed / run.attempted}
    if run.counts["segments"]:
        detail["segments_per_s"] = run.counts["segments"] / busy
    if len(latencies) >= 100:
        detail["op_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8]
    if wl.name == "analysis":
        detail["boundary_defect_frac"] = run.counts["boundary_defect"] / run.attempted
    return run, metrics, detail, probes


def trace(wl, seconds: float):
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    ops = wl.trace_ops
    tags = Counter(wl.tag(k) for k in ops)
    run = Runner(wl)
    plain, traced, passes = [], [], []
    t_begin = perf_counter()
    while len(passes) < 2 or perf_counter() - t_begin < seconds:
        plain.append(sum(run.op(k) for k in ops))
        before = Counter(run.counts)
        tracer.reset()
        tracer.enable()
        try:
            traced.append(sum(run.op(k, tracer) for k in ops))
        finally:
            tracer.disable()
        counts = run.counts - before
        sized = {(layer, size): tracer.totals(size).get(layer, [0, 0.0, 0.0]) for layer, size in SIZED}
        passes.append((tracer.totals(), counts, sized))

    def fastest(fn) -> float:
        return min(fn(p) for p in passes)

    def exact_counts(p) -> tuple[dict, Counter]:
        return {layer: row[0] for layer, row in p[0].items()}, p[1]

    exact, counts0 = exact_counts(passes[0])
    drift = [i for i, p in enumerate(passes) if exact_counts(p) != (exact, counts0)]
    segments = counts0["segments"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = exact.get(layer, 0)
        metrics[f"{layer}.busy_s"] = fastest(lambda p: p[0].get(layer, [0, 0.0, 0.0])[1]) / len(ops)
        metrics[f"{layer}.self_s"] = fastest(lambda p: p[0].get(layer, [0, 0.0, 0.0])[2]) / len(ops)
    for layer, size in SIZED:
        n_ops = tags.get(size, 0)
        metrics[f"{layer}.{size}.busy_s"] = fastest(lambda p: p[2][(layer, size)][1]) / n_ops if n_ops else 0.0
    allocations = exact.get("netsim.allocate_shares", 0)
    metrics.update({
        "netsim.segments": segments,
        "game.solve_equilibrium.iterations": counts0["game.solve_equilibrium.iterations"],
        "game.solve_equilibrium.nonconverged": counts0["game.solve_equilibrium.nonconverged"],
        "stability.failures": counts0["stability.failures"],
        "cli.trace_digest_mismatches": counts0["cli.trace_digest_mismatches"],
        "netsim.events_per_segment": allocations / segments if segments else 0.0,
        "op.us_per_segment": 1e6 * min(plain) / segments if segments else 0.0,
        "trace.overhead_frac": min(traced) / min(plain) - 1.0,
    })
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{wl.name}-seed{wl.seed}.json")
    info = {
        "absent_layers": tracer.absent,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "count_drift_passes": drift,
        "roadmap": {
            name: {"measured": metrics[name], "roadmap": fig, "what": what}
            for name, (fig, what) in ROADMAP.get(wl.name, {}).items()
        },
    }
    return run, metrics, info


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in ("presets", "crowd", "analysis"):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 2 * args.seconds + 60,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"{name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        results[name] = (json.loads(lines[-2]), json.loads(lines[-1]))
    for name, (detail, result) in results.items():
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in {**result["metrics"], **detail["detail"]}.items():
            print(f"  {metric:45s} {m['value']:.6g} {m['unit']}")
        for metric in detail["absent_metrics"]:
            print(f"  {metric:45s} absent")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results.values()),
        "attempted": sum(r["attempted"] for _, r in results.values()),
        "failed": sum(r["failed"] for _, r in results.values()),
        "metrics": {f"{n}.{m}": v for n, (_, r) in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["presets", "crowd", "analysis", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_program()
    from tracer import LAYERS

    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        wl, warm, own_setup = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        env = environment()
        if args.trace:
            run, values, info = trace(wl, args.seconds)
            units = per_layer_units(LAYERS)
            absent = [m for m in units if any(m.startswith(f"{layer}.") for layer in info["absent_layers"])]
            detail = {}
        else:
            run, values, detail, probes = measure(
                wl, args.seconds, lambda: setup_probe(args.workload, args.seed))
            samples = [own_setup, *probes]
            values["setup_s"] = statistics.median(samples)
            units = END_TO_END
            info = {"setup_samples_s": samples}
            absent = [m for m in DETAIL if m not in detail]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wrong = warm.wrong + run.wrong
    correct = not wrong and not info.get("count_drift_passes")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "env": env,
        "detail": {k: {"value": v, "unit": DETAIL[k]} for k, v in detail.items()},
        "absent_metrics": absent,
        "errors": dict(run.errors + warm.errors),
        "wrong_outputs": wrong[:10],
        **info,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
