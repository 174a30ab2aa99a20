"""Command-line entry point: simulate / equilibrium / stability / sweep.

Exit codes: 0 success, 2 validation error, 3 runtime failure.  Errors are
printed to stderr as one JSON object so wrappers can parse them.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import itertools
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .game import closed_form_identical_2user, foc_coefficients, solve_equilibrium
from .metrics import QoeMetricParams, score
from .model import BufferView, adjustment_factor
from .netsim import Link, SessionTrace, SimulationError, TraceRecord, allocate_shares, run_scenario
from .scenarios import (
    POLICIES,
    Scenario,
    apply_override,
    list_presets,
    load_preset,
    load_scenario,
    recalibrate_nu,
    scenario_from_dict,
    scenario_to_dict,
)
from .stability import build_report, jacobian_analytic, stability_conditions_identical_2user

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_VALIDATION):
        super().__init__(message)
        self.code = code


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": {"message": message, "exit_code": code}}), file=sys.stderr)
    return code


# one row per segment, byte-identical to csv.writer over format(x, ".10g")
# fields: csv's default terminator is \r\n and no field needs quoting.  The
# columns are the fields of a TraceRecord, in order, so the records, laid end
# to end, format as the rows in one step.
_TRACE_HEADER = ",".join(TraceRecord._fields) + "\r\n"
_TRACE_ROW = "%d" + ",%.10g" * 8 + "\r\n"


def write_trace_csv(path: Path, trace: SessionTrace) -> None:
    records = trace.records
    rows = (_TRACE_ROW * len(records)) % tuple(itertools.chain.from_iterable(records))
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER + rows)


def _out_dir(text: str) -> Path:
    """``--out``, refused before any run unless it is a directory or can be
    made one: the nearest of it and its parents that exists must be one."""
    out = Path(text)
    try:
        path = next(path for path in (out, *out.parents) if path.exists())
    except OSError as exc:  # such as a name too long
        raise CliError(f"--out: {exc}") from None
    if not path.is_dir():
        raise CliError(f"--out: {path} exists and is not a directory")
    return out


def _scenarios(args, points=((),), default_preset: str | None = None) -> list[Scenario]:
    """One scenario per override list in ``points``: the input, loaded once, with
    ``args.overrides`` and then the point applied in order to a copy of it (the
    input itself when there is nothing to apply)."""
    preset = args.preset or default_preset
    if args.preset and args.scenario:
        raise CliError("--preset and --scenario are mutually exclusive")
    if not (args.scenario or preset):
        raise CliError("one of --preset or --scenario is required")
    try:
        loaded = load_scenario(args.scenario) if args.scenario else load_preset(preset)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:  # an unreadable file
        raise CliError(f"--scenario: {exc}") from None
    if not (args.overrides or any(points)):
        return [loaded] * len(points)
    source = scenario_to_dict(loaded)
    # overrides write into a document, so each point gets its own; the first, the loaded one
    docs = [source, *(copy.deepcopy(source) for _ in points[1:])]
    scenarios = []
    for doc, point in zip(docs, points):
        for key, value in [*(args.overrides or ()), *point]:
            apply_override(doc, key, value)
        scenarios.append(scenario_from_dict(doc))
    return scenarios


def _run_one(sc: Scenario, out_dir: Path, source: str) -> tuple[dict, str]:
    """Run one scenario, then write its outputs; return the summary and its JSON
    text.  A run that fails leaves no directory behind."""
    traces = run_scenario(sc)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_paths = []
    per_user = []
    for trace, user in zip(traces, sc.users):
        qoe_params = QoeMetricParams(b_ref=user.b_ref)
        path = out_dir / f"user{trace.user_id}.csv"
        write_trace_csv(path, trace)
        trace_paths.append(str(path))
        stats, qoe1, qoe2 = score(trace, qoe_params)
        per_user.append({"user": trace.user_id, **stats.to_dict(), "qoe1": qoe1, "qoe2": qoe2})
    summary = {"scenario": sc.name, "users": per_user}
    summary_json = json.dumps(summary, indent=2)
    (out_dir / "summary.json").write_text(summary_json + "\n", encoding="utf-8")
    manifest = {
        "tool_version": __version__,
        "source": source,
        "seed": sc.sim.rng_seed,
        "output_dir": str(out_dir),
        "trace_files": trace_paths,
        "scenario": scenario_to_dict(sc),
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return summary, summary_json


def cmd_simulate(args) -> int:
    out_dir = _out_dir(args.out)
    sc, = _scenarios(args)
    if args.calibrate_nu:
        sc = recalibrate_nu(sc)
    _, summary_json = _run_one(sc, out_dir, source=args.preset or args.scenario)
    print(summary_json)
    return EXIT_OK


def cmd_sweep(args) -> int:
    grid = args.grid
    if not grid:
        raise CliError("sweep requires a parameter grid (--theta, --policy, or --param)")
    out_root = _out_dir(args.out)
    # each key is one sweep.csv column, named by its last component
    columns = {}
    for key, _ in grid:
        column = key.split(".")[-1]
        if column in columns:
            other = columns[column]
            raise CliError(f"{key}: given twice in the sweep grid" if other == key
                           else f"{key}: shares the sweep.csv column {column!r} with {other}")
        columns[column] = key
    for key, _ in args.overrides or ():
        if key in columns.values():
            raise CliError(f"{key}: given both as a grid axis and for every run")
    # every run's scenario is built, so checked, before the first run writes
    combos = list(itertools.product(*(values for _, values in grid)))
    scenarios = _scenarios(args, [[(key, v) for (key, _), v in zip(grid, combo)] for combo in combos])
    labels = ["_".join(f"{col}={v}" for col, v in zip(columns, combo)).replace("/", "-")
              for combo in combos]
    # a run is repeated if its label (its directory) or its scenario is an earlier run's
    by_label, by_scenario = {}, {}
    for label, sc in zip(labels, scenarios):
        earlier = by_label.get(label) or by_scenario.get(sc)
        if earlier:
            raise CliError(f"{label}: the sweep grid gives this run twice"
                           + ("" if earlier == label else f", also as {earlier}"))
        by_label[label] = by_scenario[sc] = label
    # a failed sweep removes the directories it made: the outermost of --out
    # and its parents that does not exist yet, else each new run directory
    created = [path for path in (*reversed(out_root.parents), out_root) if not path.exists()][:1]
    created = created or [out_root / label for label in labels if not (out_root / label).exists()]
    rows = []
    try:
        for combo, label, sc in zip(combos, labels, scenarios):
            summary, _ = _run_one(sc, out_root / label, source=label)
            for user_row in summary["users"]:
                rows.append({"run": label, **dict(zip(columns, combo)), **user_row})
        table = out_root / "sweep.csv"
        with table.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    except BaseException:
        for path in created:
            shutil.rmtree(path, ignore_errors=True)
        raise
    print(f"wrote {table} ({len(rows)} rows)")
    return EXIT_OK


def _analysis_input(args):
    """The scenario, its videos and buffers, its link's bandwidth and caps at
    ``--t``, and r_max.  Every user must play the game and share one effective
    ``r_max``, the box of the static game, which the caps do not narrow."""
    for flag, value in (("--t", args.t), ("--b-curr", args.b_curr)):
        if value is not None and not 0 <= value < math.inf:
            raise CliError(f"{flag}: must be finite and >= 0, got {value!r}")
    sc, = _scenarios(args, default_preset="case1-uncalibrated")
    r_max = sc.users[0].adapt_config().r_max
    for i, u in enumerate(sc.users):
        if u.policy != "game":
            raise CliError(f"users[{i}].policy: the analysis models game users only, got {u.policy!r}")
        if u.adapt_config().r_max != r_max:
            raise CliError(f"users[{i}].r_max: {u.adapt_config().r_max!r} differs from users[0]'s"
                           f" {r_max!r}; the analysis solves one box [0, r_max] for every user")
    bufs = [BufferView(b_curr=u.b_ref if args.b_curr is None else args.b_curr, b_ref=u.b_ref)
            for u in sc.users]
    _, bw, caps = Link(sc).at(args.t)
    return sc, [u.video for u in sc.users], bufs, bw, caps, r_max


def _identical_pair(sc: Scenario, bufs) -> bool:
    return len(sc.users) == 2 and sc.users[0] == sc.users[1] and bufs[0] == bufs[1]


def _pair_coefficients(sc: Scenario, bufs, bw: float):
    """The FOC coefficients of an identical pair, or None where one of them is
    not a finite float: the pair then has no closed form to print."""
    try:
        return foc_coefficients(sc.params, sc.users[0].video, bufs[0], bw)
    except ValueError:
        return None


def _check_finite_slopes(sc: Scenario, bufs, bw: float) -> None:
    """No Jacobian is finite unless every user's FOC coefficients are (see
    ``foc_coefficients``): name the field behind the first that is not."""
    p, T = sc.params, sc.params.segment_duration
    if not p.nu * T / bw < math.inf:
        raise CliError(f"params.nu: {p.nu!r} makes the load slope nu*T/export_bw infinite")
    for i, (u, buf) in enumerate(zip(sc.users, bufs)):
        if not u.video.alpha * u.video.beta < math.inf:
            raise CliError(f"users[{i}].video.alpha: {u.video.alpha!r} makes the quality"
                           " slope alpha*beta infinite")
        if not p.mu * T * adjustment_factor(p.p, buf.b_curr, buf.b_ref) < math.inf:
            raise CliError(f"params.mu: {p.mu!r} makes the buffer slope mu*T*A_f of"
                           f" users[{i}] infinite")


def _solve(sc: Scenario, models, bufs, bw: float, r_max: float):
    # the solver brackets the load between bounds divided by the load slope
    if not sc.params.nu * sc.params.segment_duration / bw > 0:
        raise CliError(f"params.nu: {sc.params.nu!r} makes the load slope nu*T/export_bw zero")
    return solve_equilibrium(sc.params, models, bufs, bw, r_max=r_max)


def cmd_equilibrium(args) -> int:
    sc, models, bufs, bw, caps, r_max = _analysis_input(args)
    result = _solve(sc, models, bufs, bw, r_max)
    out = {
        "rates": result.rates,
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "shares": allocate_shares(bw, caps),
    }
    if _identical_pair(sc, bufs):
        z = _pair_coefficients(sc, bufs, bw)
        r_star = closed_form_identical_2user(z, models[0].beta) if z else math.inf
        # JSON has no Infinity: a closed form past the largest float prints null
        out["closed_form_identical"] = r_star if math.isfinite(r_star) else None
    print(json.dumps(out, indent=2))
    return EXIT_OK if result.converged else EXIT_RUNTIME


def cmd_stability(args) -> int:
    sc, models, bufs, bw, _, r_max = _analysis_input(args)
    params, n = sc.params, len(models)
    if args.rates:
        try:
            rates = [float(v) for v in args.rates.split(",")]
        except ValueError:
            rates = []
        if len(rates) != n or not all(0 <= r < math.inf for r in rates):
            raise CliError(f"--rates: needs {n} finite numbers >= 0, got {args.rates!r}")
    else:
        eq = _solve(sc, models, bufs, bw, r_max)
        if not eq.converged:
            raise CliError("equilibrium solve failed; pass --rates explicitly", EXIT_RUNTIME)
        rates = eq.rates
    _check_finite_slopes(sc, bufs, bw)
    thetas = [u.theta for u in sc.users]
    jacobian = jacobian_analytic(params, models, bufs, bw, rates, thetas)
    report = build_report(jacobian) if np.isfinite(jacobian).all() else None
    if report is None or not math.isfinite(report.spectral_radius):
        # with finite slopes, the rates overflow it, or at an equilibrium, a
        # theta does; name the first row that is not finite, else the largest
        i = int(np.argmax(np.abs(jacobian).max(axis=1)))
        where = "--rates" if args.rates else f"users[{i}].theta"
        raise CliError(f"{where}: row {i} of the Jacobian at rates {rates!r} is not finite,"
                       " or its spectral radius overflows")
    out = {
        "rates": rates,
        "theta": thetas,
        "n_users": n,
        "jacobian": jacobian.tolist(),
        "eigenvalues": [[z.real, z.imag] for z in report.eigenvalues],
        "spectral_radius": report.spectral_radius,
        "verdict": report.verdict,
    }
    if _identical_pair(sc, bufs) and bufs[0].b_curr == bufs[0].b_ref and len(set(rates)) == 1:
        out["closed_form_conditions"] = None
        if _pair_coefficients(sc, bufs, bw):
            flags, _ = stability_conditions_identical_2user(
                params, models[0], thetas[0], rates[0], bw)
            out["closed_form_conditions"] = {"upper": flags[0], "lower": flags[1]}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _one_of(choices: dict):
    """A reader of a choice's text as its value; argparse reports any other text."""
    def read(text: str):
        if text not in choices:
            raise argparse.ArgumentTypeError(
                f"invalid choice: {text!r} (choose from {', '.join(choices)})")
        return choices[text]
    return read


# Every flag that adds to a command's override list: the dotted key it sets
# (``--param`` names its own) and the reader of its value.
_OVERRIDE_FLAGS = {
    "--param": (None, _parse_value),
    "--seed": ("sim.seed", int),
    "--mode": ("sim.quantize", _one_of({"continuous": False, "quantized": True})),
    "--theta": ("users.*.theta", float),
    "--policy": ("users.*.policy", _one_of(dict(zip(POLICIES, POLICIES)))),
    "--segments": ("sim.total_segments", int),
}


def _override_type(key: str | None, read, axis: bool):
    """The argparse type of an override flag, (key, value); an axis reads a comma list."""
    def parse(text: str) -> tuple[str, object]:
        if key is None and "=" not in text:
            raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
        name, raw = text.split("=", 1) if key is None else (key, text)
        return name, [read(v) for v in raw.split(",")] if axis else read(raw)
    parse.__name__ = read.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def _add_scenario_flags(sub, presets: list, overrides=("--param",), axes=()) -> None:
    """A preset or a file, then the flags of ``overrides`` (into ``args.overrides``)
    and of sweep ``axes`` (into ``args.grid``), each list in command-line order."""
    sub.add_argument("--preset", choices=presets, default=None)
    sub.add_argument("--scenario", default=None, help="scenario or run-manifest JSON file")
    for flag in (*overrides, *axes):
        key, read = _OVERRIDE_FLAGS[flag]
        axis = flag in axes
        metavar = (flag[2:].upper() if key else "KEY=VALUE") + ",..." * axis
        sub.add_argument(flag, dest="grid" if axis else "overrides", action="append",
                         type=_override_type(key, read, axis), metavar=metavar,
                         help=f"alias of --param {key}=..." if key
                         else "override of a dotted scenario path, e.g. users.*.b_ref")


def _add_analysis_flags(sub, presets: list) -> None:
    _add_scenario_flags(sub, presets)
    sub.add_argument("--t", type=float, default=0.0, help="time (s) of the bandwidth and caps used")
    sub.add_argument("--b-curr", dest="b_curr", type=float, help="every user's buffer (default b_ref)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dashgame",
        description="Multi-user DASH rate adaptation: game solvers, stability analysis, and a fluid bottleneck simulator.",
    )
    parser.add_argument("--version", action="version", version=f"dashgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    presets = list_presets()
    sim = sub.add_parser("simulate", help="run one scenario or preset")
    _add_scenario_flags(sim, presets, overrides=list(_OVERRIDE_FLAGS))
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--calibrate-nu", action="store_true",
                     help="recompute nu with netsim.calibrate_nu from the first user's curve"
                     " and the equal split export_bw/N at t=0 before running; caps are"
                     " ignored")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="run a parameter grid and aggregate a comparison table")
    _add_scenario_flags(sw, presets, overrides=("--seed", "--mode", "--segments"),
                        axes=("--param", "--theta", "--policy"))
    sw.add_argument("--out", default="sweep_out")
    sw.set_defaults(func=cmd_sweep)

    eq = sub.add_parser("equilibrium", help="solve a scenario's static equilibrium")
    _add_analysis_flags(eq, presets)
    eq.set_defaults(func=cmd_equilibrium)

    st = sub.add_parser("stability", help="Jacobian spectrum and stability verdict of a scenario")
    _add_analysis_flags(st, presets)
    st.add_argument("--rates", default=None, help="comma list of operating rates (default: solve)")
    st.set_defaults(func=cmd_stability)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a word such as "-1,1" for a flag; after stability's --rates it is the value
    for i in reversed(range(len(argv) - 1) if argv[:1] == ["stability"] else ()):
        if argv[i] == "--rates" and argv[i + 1][:1] == "-" and argv[i + 1][1:2] in set("0123456789."):
            argv[i:i + 2] = [f"--rates={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        return _fail(str(exc), exc.code)
    except (ValueError, KeyError) as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    except SimulationError as exc:
        return _fail(str(exc), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
