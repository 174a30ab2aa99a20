"""Command-line entry point: simulate / equilibrium / stability / sweep.

Exit codes: 0 success, 2 validation error, 3 runtime failure.  Errors are
printed to stderr as one JSON object so wrappers can parse them.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path

from . import __version__
from .game import closed_form_identical_2user, foc_coefficients, solve_equilibrium
from .metrics import QoeMetricParams, _stall_penalty, qoe1, qoe2, summarize
from .model import BufferView, GameParams, VideoQualityModel
from .netsim import SessionTrace, SimulationError, run_scenario
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


def _resolve_scenario(args) -> dict:
    if args.preset and args.scenario:
        raise CliError("--preset and --scenario are mutually exclusive")
    if args.preset:
        doc = scenario_to_dict(load_preset(args.preset))
        doc["name"] = args.preset
    elif args.scenario:
        doc = scenario_to_dict(load_scenario(args.scenario))
    else:
        raise CliError("one of --preset or --scenario is required")
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


def _params_from_args(args) -> tuple[GameParams, VideoQualityModel, BufferView]:
    params = GameParams(mu=args.mu, nu=args.nu, p=args.p, segment_duration=args.T)
    ladder = tuple(float(v) for v in args.ladder.split(",")) if args.ladder else (args.r_max,)
    model = VideoQualityModel(alpha=args.alpha, beta=args.beta, ladder=ladder)
    buf = BufferView(b_curr=args.b_curr, b_ref=args.b_ref)
    return params, model, buf


def _add_param_flags(sub, theta_default=None):
    sub.add_argument("--alpha", type=float, default=2.15)
    sub.add_argument("--beta", type=float, default=0.0827)
    sub.add_argument("--mu", type=float, default=0.003)
    sub.add_argument("--nu", type=float, default=0.0041)
    sub.add_argument("--p", type=float, default=0.1)
    sub.add_argument("--T", type=float, default=2.0, help="segment duration (s)")
    sub.add_argument("--bw", type=float, default=6.0, help="server export bandwidth (Mbps)")
    sub.add_argument("--b-curr", dest="b_curr", type=float, default=15.0)
    sub.add_argument("--b-ref", dest="b_ref", type=float, default=15.0)
    sub.add_argument("--r-max", dest="r_max", type=float, default=60.0)
    sub.add_argument("--ladder", default=None, help="comma-separated bitrates")
    sub.add_argument("--n-users", dest="n_users", type=int, default=2)
    if theta_default is not None:
        sub.add_argument("--theta", type=float, default=theta_default)


def cmd_equilibrium(args) -> int:
    params, model, buf = _params_from_args(args)
    n = args.n_users
    result = solve_equilibrium(
        params, [model] * n, [buf] * n, args.bw, r_max=args.r_max
    )
    out = {
        "rates": result.rates,
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
    }
    if n == 2:
        z = foc_coefficients(params, model, buf, args.bw)
        out["closed_form_identical"] = closed_form_identical_2user(z, model.beta)
    print(json.dumps(out, indent=2))
    return EXIT_OK if result.converged else EXIT_RUNTIME


def cmd_stability(args) -> int:
    params, model, buf = _params_from_args(args)
    n = args.n_users
    if args.rates:
        rates = [float(v) for v in args.rates.split(",")]
        if len(rates) != n:
            raise CliError(f"--rates needs {n} values")
    else:
        eq = solve_equilibrium(params, [model] * n, [buf] * n, args.bw, r_max=args.r_max)
        if not eq.converged:
            raise CliError("equilibrium solve failed; pass --rates explicitly", EXIT_RUNTIME)
        rates = eq.rates
    thetas = [args.theta] * n
    out = {"rates": rates, "theta": args.theta, "n_users": n}
    if n == 2:
        jac = jacobian_2user(params, [model] * n, [buf] * n, args.bw, rates, thetas)
        out["jacobian_source"] = "analytic-2user"
    else:
        jac = jacobian_numeric(params, [model] * n, [buf] * n, args.bw, rates, thetas)
        out["jacobian_source"] = "numeric-central-difference"
    report = build_report(jac)
    out.update({
        "jacobian": [list(map(float, row)) for row in report.jacobian],
        "eigenvalues": [[z.real, z.imag] for z in report.eigenvalues],
        "spectral_radius": report.spectral_radius,
        "verdict": report.verdict,
    })
    if n == 2 and args.b_curr == args.b_ref and len(set(rates)) == 1:
        flags, _ = stability_conditions_identical_2user(
            params, model, args.theta, rates[0], args.bw
        )
        out["closed_form_conditions"] = {"upper": flags[0], "lower": flags[1]}
    print(json.dumps(out, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dashgame",
        description="Multi-user DASH rate adaptation: game solvers, stability analysis, and a fluid bottleneck simulator.",
    )
    parser.add_argument("--version", action="version", version=f"dashgame {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario or preset")
    sim.add_argument("--preset", choices=list_presets(), default=None)
    sim.add_argument("--scenario", default=None, help="scenario or run-manifest JSON file")
    sim.add_argument("--out", default="out", help="output directory")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--mode", choices=["continuous", "quantized"], default=None)
    sim.add_argument("--theta", type=float, default=None, help="override all users' learning rate")
    sim.add_argument("--policy", choices=["game", "qf", "bf"], default=None)
    sim.add_argument("--segments", type=int, default=None, help="override total segments")
    sim.add_argument("--param", action="append", type=_parse_param, metavar="KEY=VALUE",
                     help="dotted-path override, e.g. users.*.b_ref=10")
    sim.add_argument("--calibrate-nu", action="store_true",
                     help="recompute nu from the calibration helper before running")
    sim.set_defaults(func=cmd_simulate)

    sw = sub.add_parser("sweep", help="run a parameter grid and aggregate a comparison table")
    sw.add_argument("--preset", choices=list_presets(), default=None)
    sw.add_argument("--scenario", default=None)
    sw.add_argument("--out", default="sweep_out")
    sw.add_argument("--seed", type=int, default=None)
    sw.add_argument("--mode", choices=["continuous", "quantized"], default=None)
    sw.add_argument("--segments", type=int, default=None)
    sw.add_argument("--theta", default=None, help="comma list, e.g. 50,100,150,200")
    sw.add_argument("--policy", dest="policy_list", default=None, help="comma list, e.g. game,qf,bf")
    sw.add_argument("--param", action="append", type=_parse_param_list, metavar="KEY=V1,V2")
    sw.set_defaults(func=cmd_sweep, policy=None)

    eq = sub.add_parser("equilibrium", help="solve the static equilibrium for given constants")
    _add_param_flags(eq)
    eq.set_defaults(func=cmd_equilibrium)

    st = sub.add_parser("stability", help="Jacobian spectrum and stability verdict")
    _add_param_flags(st, theta_default=100.0)
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
