"""Command-line entry point: simulate / equilibrium / stability / sweep.

Exit codes: 0 success, 2 validation error, 3 runtime failure.  Errors are
printed to stderr as one JSON object so wrappers can parse them.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

from . import __version__
from .game import closed_form_identical_2user, foc_coefficients, solve_equilibrium
from .metrics import QoeMetricParams, _stall_penalty, qoe1, qoe2, summarize
from .model import BufferView
from .netsim import SessionTrace, SimulationError, bandwidth_at, run_scenario
from .scenarios import (
    Scenario,
    ScenarioError,
    apply_override,
    list_presets,
    load_preset,
    load_scenario,
    recalibrate_nu,
    scenario_from_dict,
    scenario_to_dict,
)
from .stability import (
    build_report,
    jacobian_2user,
    jacobian_numeric,
    stability_conditions_identical_2user,
)

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
# columns are the fields of a TraceRecord, in order, so a record (a named
# tuple) formats as a row by itself.
_TRACE_HEADER = (
    "k,t_start,t_end,requested_rate,quantized_rate,download_time,buffer,stall_seconds,quality\r\n"
)
_TRACE_ROW = "%d" + ",%.10g" * 8 + "\r\n"


def write_trace_csv(path: Path, trace: SessionTrace) -> None:
    rows = "".join([_TRACE_ROW % rec for rec in trace.records])
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER + rows)


def _resolve_scenario(args, default_preset: str | None = None) -> dict:
    if args.preset and args.scenario:
        raise CliError("--preset and --scenario are mutually exclusive")
    if args.scenario:
        return scenario_to_dict(load_scenario(args.scenario))
    preset = args.preset or default_preset
    if not preset:
        raise CliError("one of --preset or --scenario is required")
    doc = scenario_to_dict(load_preset(preset))
    doc["name"] = preset
    return doc


def _apply_common_overrides(doc: dict, args) -> None:
    if getattr(args, "seed", None) is not None:
        apply_override(doc, "sim.seed", args.seed)
    if getattr(args, "mode", None):
        apply_override(doc, "sim.quantize", args.mode == "quantized")
    if getattr(args, "policy", None):
        apply_override(doc, "users.*.policy", args.policy)
    if getattr(args, "segments", None) is not None:
        apply_override(doc, "sim.total_segments", args.segments)


def _run_one(sc: Scenario, out_dir: Path, scenario_doc: dict, source: str) -> tuple[dict, str]:
    """Run one scenario, write its outputs; return the summary and its JSON text."""
    out_dir.mkdir(parents=True, exist_ok=True)
    traces = run_scenario(sc)
    qoe_params = QoeMetricParams(b_ref=sc.users[0].b_ref)
    trace_paths = []
    per_user = []
    for trace in traces:
        path = out_dir / f"user{trace.user_id}.csv"
        write_trace_csv(path, trace)
        trace_paths.append(str(path))
        stats = summarize(trace)
        stall = _stall_penalty(trace)
        per_user.append({
            "user": trace.user_id,
            **stats.to_dict(),
            "qoe1": qoe1(trace, qoe_params, _stall=stall),
            "qoe2": qoe2(trace, qoe_params, _stall=stall),
        })
    summary = {"scenario": sc.name, "users": per_user}
    summary_json = json.dumps(summary, indent=2)
    (out_dir / "summary.json").write_text(summary_json + "\n", encoding="utf-8")
    manifest = {
        "tool_version": __version__,
        "source": source,
        "seed": sc.sim.rng_seed,
        "output_dir": str(out_dir),
        "trace_files": trace_paths,
        "scenario": scenario_doc,
    }
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return summary, summary_json


def cmd_simulate(args) -> int:
    doc = _resolve_scenario(args)
    _apply_common_overrides(doc, args)
    if args.theta is not None:
        apply_override(doc, "users.*.theta", args.theta)
    for key, value in args.param or []:
        apply_override(doc, key, value)
    sc = scenario_from_dict(doc, name=doc.get("name", "scenario"))
    if args.calibrate_nu:
        sc = recalibrate_nu(sc)
        doc["params"]["nu"] = sc.params.nu
    _, summary_json = _run_one(sc, Path(args.out), doc, source=args.preset or args.scenario)
    print(summary_json)
    return EXIT_OK


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    return key, _parse_value(raw)


def _parse_param_list(text: str) -> tuple[str, list]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=V1,V2,..., got {text!r}")
    key, raw = text.split("=", 1)
    return key, [_parse_value(v) for v in raw.split(",")]


def cmd_sweep(args) -> int:
    doc = _resolve_scenario(args)
    _apply_common_overrides(doc, args)
    grid: list[tuple[str, list]] = []
    if args.theta:
        grid.append(("users.*.theta", [float(v) for v in args.theta.split(",")]))
    if args.policy_list:
        grid.append(("users.*.policy", args.policy_list.split(",")))
    for key, values in args.param or []:
        grid.append((key, values))
    if not grid:
        raise CliError("sweep requires a parameter grid (--theta, --policy, or --param)")
    keys = [k for k, _ in grid]
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    for combo in itertools.product(*(values for _, values in grid)):
        run_doc = json.loads(json.dumps(doc))
        label_parts = []
        for key, value in zip(keys, combo):
            apply_override(run_doc, key, value)
            label_parts.append(f"{key.split('.')[-1]}={value}")
        label = "_".join(label_parts).replace("/", "-")
        sc = scenario_from_dict(run_doc, name=f"{doc.get('name', 'scenario')}[{label}]")
        summary, _ = _run_one(sc, out_root / label, run_doc, source=label)
        for user_row in summary["users"]:
            rows.append({"run": label, **{k.split(".")[-1]: v for k, v in zip(keys, combo)}, **user_row})
    table = out_root / "sweep.csv"
    with table.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {table} ({len(rows)} rows)")
    return EXIT_OK


def _analysis_input(args):
    """The scenario, its videos and buffers, the bandwidth at ``--t``, and r_max.

    Every user must play the game and share one effective ``r_max``, the box
    of the static game.  Caps are not applied.
    """
    if not 0 <= args.t < math.inf:
        raise CliError(f"--t: must be finite and >= 0, got {args.t!r}")
    doc = _resolve_scenario(args, default_preset="case1-uncalibrated")
    for key, value in args.param or []:
        apply_override(doc, key, value)
    sc = scenario_from_dict(doc, name=doc.get("name", "scenario"))
    r_max = sc.users[0].adapt_config().r_max
    for i, u in enumerate(sc.users):
        if u.policy != "game":
            raise CliError(f"users[{i}].policy: the analysis models game users only, got {u.policy!r}")
        if u.adapt_config().r_max != r_max:
            raise CliError(f"users[{i}].r_max: {u.adapt_config().r_max!r} differs from users[0]'s"
                           f" {r_max!r}; the analysis solves one box [0, r_max] for every user")
    bufs = [BufferView(b_curr=u.b_ref if args.b_curr is None else args.b_curr, b_ref=u.b_ref)
            for u in sc.users]
    return sc, [u.video for u in sc.users], bufs, bandwidth_at(sc.server, args.t), r_max


def _identical_pair(sc: Scenario, bufs) -> bool:
    return len(sc.users) == 2 and sc.users[0] == sc.users[1] and bufs[0] == bufs[1]


def cmd_equilibrium(args) -> int:
    sc, models, bufs, bw, r_max = _analysis_input(args)
    result = solve_equilibrium(sc.params, models, bufs, bw, r_max=r_max)
    out = {
        "rates": result.rates,
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if _identical_pair(sc, bufs):
        z = foc_coefficients(sc.params, models[0], bufs[0], bw)
        out["closed_form_identical"] = closed_form_identical_2user(z, models[0].beta)
    print(json.dumps(out, indent=2))
    return EXIT_OK if result.converged else EXIT_RUNTIME


def cmd_stability(args) -> int:
    sc, models, bufs, bw, r_max = _analysis_input(args)
    params, n = sc.params, len(models)
    if args.rates:
        rates = [float(v) for v in args.rates.split(",")]
        if len(rates) != n:
            raise CliError(f"--rates needs {n} values")
    else:
        eq = solve_equilibrium(params, models, bufs, bw, r_max=r_max)
        if not eq.converged:
            raise CliError("equilibrium solve failed; pass --rates explicitly", EXIT_RUNTIME)
        rates = eq.rates
    thetas = [u.theta for u in sc.users]
    out = {"rates": rates, "theta": thetas, "n_users": n}
    if n == 2:
        jac = jacobian_2user(params, models, bufs, bw, rates, thetas)
        out["jacobian_source"] = "analytic-2user"
    else:
        jac = jacobian_numeric(params, models, bufs, bw, rates, thetas)
        out["jacobian_source"] = "numeric-central-difference"
    report = build_report(jac)
    out.update({
        "jacobian": [list(map(float, row)) for row in report.jacobian],
        "eigenvalues": [[z.real, z.imag] for z in report.eigenvalues],
        "spectral_radius": report.spectral_radius,
        "verdict": report.verdict,
    })
    if _identical_pair(sc, bufs) and bufs[0].b_curr == bufs[0].b_ref and len(set(rates)) == 1:
        flags, _ = stability_conditions_identical_2user(params, models[0], thetas[0], rates[0], bw)
        out["closed_form_conditions"] = {"upper": flags[0], "lower": flags[1]}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _add_scenario_flags(sub, presets: list, param=_parse_param, metavar="KEY=VALUE") -> None:
    """The scenario input every command reads: a preset or a file, then overrides."""
    sub.add_argument("--preset", choices=presets, default=None)
    sub.add_argument("--scenario", default=None, help="scenario or run-manifest JSON file")
    sub.add_argument("--param", action="append", type=param, metavar=metavar,
                     help="override of a dotted scenario path, e.g. users.*.b_ref")


def _add_analysis_flags(sub, presets: list) -> None:
    _add_scenario_flags(sub, presets)
    sub.add_argument("--t", type=float, default=0.0, help="time (s) of the server bandwidth used")
    sub.add_argument("--b-curr", dest="b_curr", type=float, help="every user's buffer (default b_ref)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dashgame",
        description="Multi-user DASH rate adaptation: game solvers, stability analysis, and a fluid bottleneck simulator.",
    )
    parser.add_argument("--version", action="version", version=f"dashgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    presets = list_presets()
    sim = sub.add_parser("simulate", help="run one scenario or preset")
    _add_scenario_flags(sim, presets)
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--mode", choices=["continuous", "quantized"], default=None)
    sim.add_argument("--theta", type=float, default=None, help="override all users' learning rate")
    sim.add_argument("--policy", choices=["game", "qf", "bf"], default=None)
    sim.add_argument("--segments", type=int, default=None, help="override total segments")
    sim.add_argument("--calibrate-nu", action="store_true",
                     help="recompute nu from the calibration helper before running")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="run a parameter grid and aggregate a comparison table")
    _add_scenario_flags(sw, presets, param=_parse_param_list, metavar="KEY=V1,V2")
    sw.add_argument("--out", default="sweep_out")
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--mode", choices=["continuous", "quantized"], default=None)
    sw.add_argument("--segments", type=int, default=None)
    sw.add_argument("--theta", default=None, help="comma list, e.g. 50,100,150,200")
    sw.add_argument("--policy", dest="policy_list", default=None, help="comma list, e.g. game,qf,bf")
    sw.set_defaults(func=cmd_sweep, policy=None)

    eq = sub.add_parser("equilibrium", help="solve a scenario's static equilibrium")
    _add_analysis_flags(eq, presets)
    eq.set_defaults(func=cmd_equilibrium)

    st = sub.add_parser("stability", help="Jacobian spectrum and stability verdict of a scenario")
    _add_analysis_flags(st, presets)
    st.add_argument("--rates", default=None, help="comma list of operating rates (default: solve)")
    st.set_defaults(func=cmd_stability)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        return _fail(str(exc), exc.code)
    except ScenarioError as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    except (ValueError, KeyError) as exc:
        return _fail(str(exc), EXIT_VALIDATION)
    except SimulationError as exc:
        return _fail(str(exc), EXIT_RUNTIME)


if __name__ == "__main__":
    sys.exit(main())
