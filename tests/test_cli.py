"""End-to-end CLI runs: files, exit codes, reproducibility."""

import json
import math
import warnings

import numpy as np
import pytest

import dashgame.cli
from dashgame.cli import _TRACE_HEADER, main
from dashgame.model import BufferView
from dashgame.netsim import Link, run_scenario
from dashgame.scenarios import list_presets, load_preset, scenario_to_dict
from dashgame.stability import jacobian_analytic, jacobian_numeric


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_preset_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--preset", "case1-fixed", "--segments", "30",
        "--out", str(out),
    )
    assert code == 0
    assert (out / "user0.csv").exists()
    assert (out / "user1.csv").exists()
    assert (out / "summary.json").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["scenario"]["sim"]["total_segments"] == 30
    summary = json.loads(stdout)
    assert len(summary["users"]) == 2
    header = (out / "user0.csv").read_text().splitlines()[0]
    assert header == "k,t_start,t_end,requested_rate,quantized_rate,download_time,buffer,stall_seconds,quality"


def test_simulate_rerun_from_manifest_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "a"
    code, _, _ = run_cli(
        capsys, "simulate", "--preset", "case4-fixed", "--segments", "60",
        "--out", str(first),
    )
    assert code == 0
    second = tmp_path / "b"
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", str(first / "run_manifest.json"),
        "--out", str(second),
    )
    assert code == 0
    for name in ("user0.csv", "user1.csv", "user2.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_simulate_validation_error_exit_2(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "simulate", "--preset", "case1-fixed",
        "--param", "users.*.theta=-5", "--out", str(tmp_path / "x"),
    )
    assert code == 2
    err = json.loads(stderr)
    assert "theta" in err["error"]["message"]


def _valid_doc():
    return {
        "params": {"mu": 0.003, "nu": 0.0041, "p": 0.1},
        "users": [{"video": {"alpha": 2.15, "beta": 0.0827, "ladder": [1.0, 2.0, 3.0]},
                   "theta": 100.0, "b_ref": 15.0}],
        "server": {"kind": "fixed", "base": 6.0},
        "sim": {"segment_duration": 2.0, "total_segments": 10},
    }


# (path of the value to set, value, field the error must name)
MALFORMED = [
    (("sim", "quantize"), "false", "sim.quantize"),
    (("users", 0, "video", "ladder"), "123", "users[0].video.ladder"),
    (("sim", "total_segments"), 2.7, "sim.total_segments"),
    (("sim", "total_segments"), True, "sim.total_segments"),
    (("users", 0, "cap_profile"), True, "users[0].cap_profile"),
    (("params", "mu"), "0.003", "params.mu"),
    (("users", 0, "thetta"), 100.0, "users[0].thetta"),
    (("users", 0), "user", "users[0]"),
    (("sim", "seed"), None, "sim.seed"),
    (("server",), {"kind": "custom", "breakpoints": [[0, math.nan]]}, "server.breakpoints[0][1]"),
    (("server",), {"kind": "custom", "breakpoints": [[0, math.inf]]}, "server.breakpoints"),
    (("server", "base"), math.inf, "server.base"),
    (("sim", "initial_buffer"), math.nan, "sim.initial_buffer"),
    (("sim", "initial_buffer"), math.inf, "sim.initial_buffer"),
    # a key that sim no longer has is unknown, whatever its value
    (("sim", "exchange_latency"), math.nan, "sim.exchange_latency"),
    (("sim", "exchange_latency"), math.inf, "sim.exchange_latency"),
    (("users", 0, "cap_profile"), {"kind": "random", "lo": 1.0, "hi": math.inf},
     "users[0].cap_profile.hi"),
    (("users", 0, "cap_profile"), {"kind": "random", "dwell": math.nan},
     "users[0].cap_profile.dwell"),
    (("users", 0, "cap_profile"), {"kind": "fixed", "cap": 2.0, "lo": 1.0},
     "users[0].cap_profile.lo"),
    (("server",), {"kind": "custom", "base": 9.0, "breakpoints": [[0, 6.0]]}, "server.base"),
    # and so is a key that users no longer have: these three are constants
    (("users", 0, "estimator_weight"), 0.0, "users[0].estimator_weight"),
    (("users", 0, "epsilon"), 1e-3, "users[0].epsilon"),
    (("users", 0, "r_min"), 0.1, "users[0].r_min"),
]


@pytest.mark.parametrize("path, value, fieldname", MALFORMED)
def test_malformed_scenario_exits_2_naming_the_field(tmp_path, capsys, path, value, fieldname):
    doc = _valid_doc()
    *head, leaf = path
    target = doc
    for part in head:
        target = target[part]
    target[leaf] = value
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))  # NaN and Infinity as JSON extensions
    code, _, stderr = run_cli(
        capsys, "simulate", "--scenario", str(scenario), "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith(fieldname + ":")


@pytest.mark.parametrize("key, value", [("resume_policy", "next-segment"), ("exchange_latency", 0.0)])
def test_manifest_with_a_removed_sim_key_exits_2(tmp_path, capsys, key, value):
    code, _, _ = run_cli(
        capsys, "simulate", "--preset", "case1-fixed", "--segments", "5",
        "--out", str(tmp_path / "run"),
    )
    assert code == 0
    manifest = tmp_path / "run" / "run_manifest.json"
    doc = json.loads(manifest.read_text())
    doc["scenario"]["sim"][key] = value
    manifest.write_text(json.dumps(doc))
    code, _, stderr = run_cli(
        capsys, "simulate", "--scenario", str(manifest), "--out", str(tmp_path / "rerun"),
    )
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith(f"sim.{key}: unknown field")


def test_summary_stall_total_is_a_float_without_stalls(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate", "--preset", "case1-fixed", "--out", str(tmp_path / "run"),
    )
    assert code == 0
    for text in (stdout, (tmp_path / "run" / "summary.json").read_text()):
        users = json.loads(text)["users"]
        assert [u["stall_count"] for u in users] == [0, 0]
        assert all(type(u["stall_total"]) is float for u in users)


def test_summary_scores_each_user_against_its_own_b_ref(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys, "simulate", "--preset", "case1-fixed", "--param", "users.1.b_ref=25",
        "--segments", "60", "--out", str(tmp_path / "run"),
    )
    assert code == 0
    users = json.loads(stdout)["users"]
    # scored against user 0's b_ref of 15, user 1's qoe2 read 1.0467
    assert users[1]["qoe2"] == pytest.approx(-0.2616, abs=1e-4)
    assert users[0]["qoe2"] != users[1]["qoe2"]


@pytest.mark.parametrize("param, fieldname", [
    ("sim.quantize=False", "sim.quantize"),
    ("server.base=9", "server.base"),
])
def test_param_override_the_run_would_ignore_exits_2(tmp_path, capsys, param, fieldname):
    code, _, stderr = run_cli(
        capsys, "simulate", "--preset", "case1-fixed", "--param", param,
        "--out", str(tmp_path / "x"),
    )
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith(fieldname + ":")


@pytest.mark.parametrize("argv, fieldname", [
    # the horizon total_segments*T*20+1000 overflows
    (["--preset", "case1-fixed", "--param", "sim.segment_duration=1e308"], "sim.segment_duration"),
    # T*r_max*N overflows, though the horizon of one segment does not
    (["--preset", "case1-uncalibrated", "--param", "sim.segment_duration=5e306",
      "--param", "sim.total_segments=1"], "sim.segment_duration"),
    # 1.1e7 random cap slots per user, about 5 GB, are refused before any is drawn
    (["--preset", "case4-fixed", "--param", "users.*.cap_profile.dwell=0.001"],
     "users[0].cap_profile.dwell"),
    # a segment count above the largest float: the horizon cannot be computed
    (["--preset", "case1-fixed", "--param", f"sim.total_segments={10**400}"], "sim.total_segments"),
])
@pytest.mark.parametrize("command", ["simulate", "equilibrium"])
def test_time_scale_the_run_cannot_hold_exits_2(tmp_path, capsys, command, argv, fieldname):
    if command == "simulate":
        argv = [*argv, "--out", str(tmp_path / "x")]
    code, _, stderr = run_cli(capsys, command, *argv)
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith(fieldname + ":")
    assert not (tmp_path / "x").exists()


def test_segments_flag_above_the_largest_float_exits_2(tmp_path, capsys):
    # the shorthand for the last case above; equilibrium has no --segments
    code, _, stderr = run_cli(capsys, "simulate", "--preset", "case1-fixed", "--segments",
                              str(10**400), "--out", str(tmp_path / "x"))
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith("sim.total_segments:")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("param, fieldname", [
    # the summary's quality spread squared qualities of about 1e300: an OverflowError
    ("users.0.video.alpha=1e300", "users[0].video.alpha"),
    # the payoff gradient's step is a constant now, so the key is unknown; a
    # step of 1e300 made the gradient's plus leg -inf at segment 1
    ("users.*.epsilon=1e300", "users[0].epsilon"),
    # qoe2's buffer shortfall squared a gap of about 1e300: an OverflowError
    ("users.0.b_ref=1e300", "users[0].b_ref"),
])
def test_huge_finite_input_exits_2_naming_the_field(tmp_path, capsys, param, fieldname):
    code, _, stderr = run_cli(capsys, "simulate", "--preset", "case1-fixed", "--segments", "40",
                              "--param", param, "--out", str(tmp_path / "x"))
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith(fieldname + ":")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("param, t", [
    # one segment downloads at the cap and ends past the horizon
    ("users.0.cap_profile=1e-300", "2e+299"),
    ("users.0.cap_profile=1e-6", "200000"),
    # a bandwidth step past the horizon, with both first segments still downloading
    ('server={"kind": "custom", "breakpoints": [[0, 1e-6], [5000, 6]]}', "5000"),
])
def test_segment_past_the_horizon_exits_3_naming_the_user_and_segment(tmp_path, capsys, param, t):
    code, _, stderr = run_cli(capsys, "simulate", "--preset", "case1-fixed", "--segments", "40",
                              "--param", param, "--out", str(tmp_path / "x"))
    assert code == 3
    assert json.loads(stderr)["error"]["message"] == (
        f"simulated time exceeded the horizon of 2600s at t={t}s: segment 0 of user 0 started at t=0s")
    # the run failed before it wrote anything, so it leaves no --out directory
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("param, code, message", [
    # the payoff server's step EPSILON must move a rate no further than the
    # box, and not round away in it (a step under the ulp was a ZeroDivisionError)
    ("users.0.r_max=9e-5", 2, "users[0].r_max: AdaptConfig.r_max must be >= EPSILON = 0.0001 and"
     " have ulp(r_max) <= EPSILON, got r_max=9e-05"),
    ("users.0.r_max=1e12", 2, "users[0].r_max: AdaptConfig.r_max must be >= EPSILON = 0.0001 and"
     " have ulp(r_max) <= EPSILON, got r_max=1000000000000.0"),
    # the summary's mean buffer was Infinity, with exit 0
    ("sim.initial_buffer=1.7e308", 2, "sim.initial_buffer: 1.7e+308 makes the summary's buffer sum"
     " of 40 segments infinite"),
    # the two errors below named no segment, and the first no user
    ("users.0.cap_profile=5e-324", 3, "no next event; simulation wedged at t=51.1185s: segment 0"
     " of user 0 cannot finish at a share of 4.94066e-324 Mbps"),
    ('server={"kind": "custom", "breakpoints": [[0, 5e-324]]}', 3,
     "user 0 starved of bandwidth at t=0.000s in segment 0"),
])
def test_extreme_input_exits_with_a_message_naming_it(tmp_path, capsys, param, code, message):
    got, _, stderr = run_cli(capsys, "simulate", "--preset", "case1-fixed", "--segments", "40",
                             "--param", param, "--out", str(tmp_path / "x"))
    assert (got, json.loads(stderr)["error"]["message"]) == (code, message)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv, segment", [
    (["simulate", "--policy", "qf", "--param", "server.breakpoints.1.1=1e300", "--segments", "60"], 56),
    (["simulate", "--policy", "bf", "--param", "server.breakpoints.1.1=1e300", "--segments", "60"], 58),
    (["sweep", "--policy", "game,qf,bf", "--param", "server.breakpoints.1.1=1e20"], 56),
])
def test_segment_downloaded_in_no_time_exits_3_naming_the_user_and_segment(tmp_path, capsys, argv, segment):
    # past the step at t=100 a segment ends at the t it started: its QF or BF
    # throughput sample was a ZeroDivisionError
    code, _, stderr = run_cli(capsys, argv[0], "--preset", "case2-persistent", *argv[1:],
                              "--out", str(tmp_path / "x"))
    assert (code, json.loads(stderr)["error"]["message"]) == (3, (
        f"policy failure for user 0 at segment {segment}:"
        " throughput sample must be finite and > 0, got inf"))


# "{file}" is an existing file, "{dir}" an existing directory and "{text}" a
# file that is not JSON; before this table, each case ended in a traceback
# with exit 1, or, for "{text}", named no flag
@pytest.mark.parametrize("argv, message", [
    (["simulate", "--scenario", "{dir}/missing.json"],
     "--scenario: [Errno 2] No such file or directory: '{dir}/missing.json'"),
    (["simulate", "--scenario", "{dir}"], "--scenario: [Errno 21] Is a directory: '{dir}'"),
    (["simulate", "--scenario", "{text}"], "--scenario: Expecting value: line 1 column 1 (char 0)"),
    # simulate used to run the whole simulation first
    (["simulate", "--preset", "case1-fixed", "--out", "{file}"],
     "--out: {file} exists and is not a directory"),
    (["simulate", "--preset", "case1-fixed", "--out", "{file}/sub"],
     "--out: {file} exists and is not a directory"),
    (["sweep", "--preset", "case1-fixed", "--theta", "50,60", "--out", "{file}"],
     "--out: {file} exists and is not a directory"),
    (["sweep", "--preset", "case1-fixed", "--theta", "50,60", "--out", "{file}/sub"],
     "--out: {file} exists and is not a directory"),
])
def test_path_flag_that_cannot_be_used_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, message):
    paths = {"file": tmp_path / "file", "dir": tmp_path / "dir", "text": tmp_path / "text.json"}
    paths["file"].write_text("kept")
    paths["dir"].mkdir()
    paths["text"].write_text("not json")

    def no_run(scenario):
        raise AssertionError("a path flag must be checked before any run")

    monkeypatch.setattr(dashgame.cli, "run_scenario", no_run)
    code, _, stderr = run_cli(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, json.loads(stderr)["error"]["message"]) == (2, message.format(**paths))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file", "text.json"]
    assert paths["file"].read_text() == "kept"


# a sweep that fails at its qf point, after its game point wrote its outputs
FAILING_SWEEP = ["sweep", "--preset", "case2-persistent", "--policy", "game,qf,bf",
                 "--param", "server.breakpoints.1.1=1e20"]


def test_failed_sweep_leaves_no_out_tree_it_made(tmp_path, capsys):
    # it left new/sw/policy=game_1=1e+20/ with both traces, summary and manifest
    code, _, _ = run_cli(capsys, *FAILING_SWEEP, "--out", str(tmp_path / "new" / "sw"))
    assert code == 3
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    FAILING_SWEEP,
    ["simulate", "--preset", "case2-persistent", "--policy", "qf",
     "--param", "server.breakpoints.1.1=1e300", "--segments", "60"],
])
def test_failed_run_leaves_an_existing_out_as_it_was(tmp_path, capsys, argv):
    # the cleanup above removes only what the command made, never what it found
    out = tmp_path / "out"
    (out / "earlier").mkdir(parents=True)
    (out / "earlier" / "sentinel").write_text("kept")
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 3
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == ["earlier", "earlier/sentinel"]
    assert (out / "earlier" / "sentinel").read_text() == "kept"


def test_failed_sweep_leaves_an_earlier_sweep_byte_for_byte(tmp_path, capsys):
    # its game point overwrote the earlier sweep's policy=game/ before its qf
    # point failed, and sweep.csv stayed the earlier sweep's
    out = tmp_path / "sw"
    code, _, _ = run_cli(capsys, "sweep", "--preset", "case2-persistent", "--policy", "game,qf",
                         "--segments", "40", "--out", str(out))
    assert code == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    doc = scenario_to_dict(load_preset("case2-persistent"))
    doc["server"]["breakpoints"][1][1] = 1e20
    source = tmp_path / "scenario.json"
    source.write_text(json.dumps(doc), encoding="utf-8")
    code, _, _ = run_cli(capsys, "sweep", "--scenario", str(source), "--policy", "game,qf",
                         "--segments", "60", "--out", str(out))
    assert code == 3
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_alpha_just_below_the_quality_bound_runs_finite(tmp_path, capsys):
    # 40 squares of the top quality, about 2e153, stay finite: the bound is near 5.26e153
    out = tmp_path / "x"
    code, stdout, _ = run_cli(capsys, "simulate", "--preset", "case1-fixed", "--segments", "40",
                              "--param", "users.*.video.alpha=5e153", "--out", str(out))
    assert code == 0
    for user in json.loads(stdout)["users"]:
        assert all(math.isfinite(v) for v in user.values())
    for u in (0, 1):
        rows = (out / f"user{u}.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


@pytest.mark.parametrize("first, second, theta", [
    (["--theta", "50"], ["--param", "users.*.theta=7"], 7.0),
    (["--param", "users.*.theta=7"], ["--theta", "50"], 50.0),
])
def test_shorthand_flags_and_params_apply_in_command_line_order(tmp_path, capsys, first, second, theta):
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "simulate", "--preset", "case1-fixed", "--segments", "5",
                         *first, *second, "--out", str(out))
    assert code == 0
    users = json.loads((out / "run_manifest.json").read_text())["scenario"]["users"]
    # the manifest is the scenario that ran, so an int override reads as a float
    assert [type(u["theta"]) for u in users] == [float, float]
    assert [u["theta"] for u in users] == [theta, theta]


def test_simulate_requires_a_source(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "simulate", "--out", str(tmp_path / "x"))
    assert code == 2


def test_simulate_calibrate_nu_flag(tmp_path, capsys):
    out = tmp_path / "cal"
    code, _, _ = run_cli(
        capsys, "simulate", "--preset", "case1-uncalibrated", "--segments", "10",
        "--calibrate-nu", "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["scenario"]["params"]["nu"] == pytest.approx(0.07423027001041584)


def _identical_users_file(tmp_path, n):
    """case1-uncalibrated with its first user repeated ``n`` times."""
    doc = scenario_to_dict(load_preset("case1-uncalibrated"))
    doc["users"] = [doc["users"][0]] * n
    path = tmp_path / f"identical-{n}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_equilibrium_command_cross_check(capsys):
    code, stdout, _ = run_cli(capsys, "equilibrium")
    assert code == 0
    out = json.loads(stdout)
    assert out["converged"]
    assert out["rates"][0] == pytest.approx(out["closed_form_identical"], abs=1e-6)
    assert out["closed_form_identical"] == pytest.approx(23.993192638983356, rel=1e-9)


def test_equilibrium_single_user(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "equilibrium", "--scenario", _identical_users_file(tmp_path, 1))
    assert code == 0
    out = json.loads(stdout)
    assert len(out["rates"]) == 1 and out["converged"]


def test_equilibrium_reports_the_capped_shares(capsys):
    # case3 caps each of its three users at 1.5 Mbps on a 6 Mbps link
    code, stdout, _ = run_cli(capsys, "equilibrium", "--preset", "case3")
    assert code == 0
    assert json.loads(stdout)["shares"] == [1.5, 1.5, 1.5]


def test_equilibrium_shares_at_t_are_those_the_run_uses(capsys):
    # case4-fixed redraws every cap each 30 s; a segment after 100 s that ends by its link's
    # next step, with every user still downloading, runs at the share reported then
    sc = load_preset("case4-fixed")
    traces = run_scenario(sc)
    link = Link(sc)
    all_active = min(trace.records[-1].t_end for trace in traces)
    T = sc.params.segment_duration
    for i, trace in enumerate(traces):
        rec = next(r for r in trace.records
                   if r.t_start >= 100.0 and r.t_end <= min(link.at(r.t_start)[0], all_active))
        code, stdout, _ = run_cli(capsys, "equilibrium", "--preset", "case4-fixed",
                                  "--t", str((rec.t_start + rec.t_end) / 2))
        assert code == 0
        share = json.loads(stdout)["shares"][i]
        assert rec.download_time == pytest.approx(T * rec.quantized_rate / share, rel=1e-9)


def test_equilibrium_invalid_params_exit_2(capsys):
    code, _, stderr = run_cli(capsys, "equilibrium", "--param", "params.nu=-0.1")
    assert code == 2
    assert "nu" in json.loads(stderr)["error"]["message"]


def test_stability_marginal_at_vanishing_theta(capsys):
    code, stdout, _ = run_cli(
        capsys, "stability", "--param", "users.*.theta=1e-9", "--rates", "3,3",
    )
    assert code == 0
    out = json.loads(stdout)
    assert out["spectral_radius"] == pytest.approx(1.0, abs=1e-6)
    assert out["verdict"] == "marginal"


def test_stability_three_users(capsys):
    # case3's three users have different videos; one of them sits at rate 0
    code, stdout, _ = run_cli(capsys, "stability", "--preset", "case3", "--rates", "0,1.5,2.5")
    assert code == 0
    out = json.loads(stdout)
    assert "jacobian_source" not in out
    assert len(out["eigenvalues"]) == 3
    sc = load_preset("case3")
    game = (
        sc.params, [u.video for u in sc.users],
        [BufferView(b_curr=u.b_ref, b_ref=u.b_ref) for u in sc.users],
        Link(sc).at(0.0)[1], [0.0, 1.5, 2.5], [u.theta for u in sc.users],
    )
    assert out["jacobian"] == jacobian_analytic(*game).tolist()
    assert np.abs(np.array(out["jacobian"]) - jacobian_numeric(*game)).max() <= 1e-6


def test_stability_many_users(tmp_path, capsys):
    # above 64 users the spectrum used to be rejected
    code, stdout, _ = run_cli(
        capsys, "stability", "--scenario", _identical_users_file(tmp_path, 100),
        "--param", "users.*.theta=5",
    )
    assert code == 0
    out = json.loads(stdout)
    assert len(out["eigenvalues"]) == 100
    ref = np.abs(np.linalg.eigvals(np.array(out["jacobian"]))).max()
    assert out["spectral_radius"] == pytest.approx(ref, rel=1e-9)


def test_stability_theta_sweep_finds_boundary(capsys):
    # scan theta for the calibrated pair: verdict must flip exactly once
    verdicts = []
    for theta in (5, 20, 80, 320, 1280):
        code, stdout, _ = run_cli(
            capsys, "stability",
            "--param", "params.nu=0.07423027001041584",
            "--param", f"users.*.theta={theta}", "--rates", "3,3",
        )
        assert code == 0
        verdicts.append(json.loads(stdout)["verdict"])
    assert verdicts[0] == "stable"
    assert verdicts[-1] == "unstable"
    flips = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
    assert flips == 1


@pytest.mark.parametrize("preset", list_presets())
def test_every_preset_gets_an_equilibrium_and_a_verdict(capsys, preset):
    code, stdout, _ = run_cli(capsys, "equilibrium", "--preset", preset)
    assert code == 0
    eq = json.loads(stdout)
    assert eq["converged"]
    n = len(load_preset(preset).users)
    assert len(eq["rates"]) == n
    code, stdout, _ = run_cli(capsys, "stability", "--preset", preset)
    assert code == 0
    out = json.loads(stdout)
    assert out["rates"] == eq["rates"]
    assert out["theta"] == [u.theta for u in load_preset(preset).users]
    # every shipped preset is stable at its equilibrium but the uncalibrated pair
    assert out["verdict"] == ("unstable" if preset == "case1-uncalibrated" else "stable")
    assert [len(row) for row in out["jacobian"]] == [n] * n
    if preset == "case1-fixed":
        assert out["closed_form_conditions"] == {"upper": True, "lower": True}


def test_stability_reads_the_bandwidth_at_t(capsys):
    # case2-persistent runs at 1.5 x 6 Mbps from 100 s to 200 s
    code, stdout, _ = run_cli(capsys, "stability", "--preset", "case2-persistent", "--t", "150")
    assert code == 0
    out = json.loads(stdout)
    assert out["rates"] == pytest.approx([4.217, 4.217], abs=1e-3)
    code, stdout, _ = run_cli(
        capsys, "stability", "--preset", "case2-persistent", "--param", "server.kind=fixed",
        "--param", "server.base=9.0", "--param", "server.breakpoints=null",
    )
    assert code == 0
    assert json.loads(stdout)["rates"] == out["rates"]


@pytest.mark.parametrize("command", ["equilibrium", "stability"])
@pytest.mark.parametrize("argv, fieldname", [
    (["--t", "nan"], "--t"),
    (["--t", "inf"], "--t"),
    (["--t", "-1"], "--t"),
    (["--param", "users.0.policy=qf"], "users[0].policy"),
    (["--param", "users.0.r_max=2"], "users[1].r_max"),
    (["--preset", "case3", "--scenario", "x.json"], "--preset"),
])
def test_analysis_input_the_game_does_not_model_exits_2(capsys, command, argv, fieldname):
    code, _, stderr = run_cli(capsys, command, *argv)
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith(fieldname)


@pytest.mark.parametrize("command", ["equilibrium", "stability"])
def test_b_curr_that_is_not_a_buffer_exits_2(capsys, command):
    code, _, stderr = run_cli(capsys, command, "--b-curr", "nan")
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith("--b-curr:")


# "--rates -1,1": the word after --rates is its value, though argparse reads "-1,1" as a flag
@pytest.mark.parametrize("rates", ["--rates=1,x", "--rates=nan,1", "--rates=-1,1", "--rates=3",
                                   "--rates -1,1"])
def test_rates_that_are_not_an_operating_point_exit_2(capsys, rates):
    code, _, stderr = run_cli(capsys, "stability", *rates.split(" "))
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith("--rates:")


def test_huge_rate_runs_with_warnings_as_errors(capsys):
    # (1 + beta*r)**2 overflowed to inf in jacobian_analytic, with a numpy
    # RuntimeWarning, though its term 1/inf = 0 is the limit and every
    # printed number is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(capsys, "stability", "--preset", "case1-fixed",
                                       "--rates", "1e200,1")
    assert (code, stderr) == (0, "")
    out = json.loads(stdout)
    assert all(math.isfinite(v) for row in out["jacobian"] for v in row)
    assert math.isfinite(out["spectral_radius"])


@pytest.mark.parametrize("argv, code, named", [
    # (1 + beta*r)**2 raised OverflowError in the closed-form conditions
    (["stability", "--preset", "case1-fixed", "--rates=1e160,1e160"], 0, None),
    # r*z1*beta overflowed, and inf/inf printed NaN warnings; the term tends to alpha/r
    (["stability", "--preset", "case1-fixed", "--param", "users.0.video.beta=1e300"], 0, None),
    # the load sum overflows: no Jacobian at these rates is finite
    (["stability", "--preset", "case1-fixed", "--rates=1e308,1e308"], 2, "--rates"),
    (["stability", "--preset", "case3", "--rates=1.7e308,1,1.7e308"], 2, "--rates"),
    # nor with an infinite buffer slope mu*T*A_f, whose field is named
    (["stability", "--preset", "case1-fixed", "--param", "params.mu=1.7e308", "--rates=3,3"],
     2, "params.mu"),
    # the load slope nu*T/export_bw underflows to 0: the solver divided by it
    (["equilibrium", "--preset", "case3", "--param", "params.nu=5e-324"], 2, "params.nu"),
    # the identical pair's closed form overflowed (a traceback) or printed Infinity
    (["equilibrium", "--preset", "case1-fixed", "--param", "params.mu=1.7e308"], 0, None),
    # at given rates, an infinite load slope nu*T/export_bw or quality slope alpha*beta
    (["stability", "--preset", "case1-fixed", "--param", "params.nu=1.7e308", "--rates=3,3"],
     2, "params.nu"),
    (["stability", "--preset", "case1-fixed", "--param", "users.0.video.alpha=1.8e8",
      "--param", "users.0.video.beta=1e300", "--rates=3,3"], 2, "users[0].video.alpha"),
    # the solver ran with an infinite load slope: equilibrium printed Infinity
    # with every rate at r_max, and stability named no field
    (["equilibrium", "--preset", "case1-fixed", "--param", "params.nu=1.7e308"], 2, "params.nu"),
    (["equilibrium", "--preset", "case3", "--param", "params.nu=1.7e308"], 2, "params.nu"),
    (["stability", "--preset", "case1-fixed", "--param", "params.nu=1.7e308"], 2, "params.nu"),
])
def test_extreme_analysis_input_exits_0_or_names_it(capsys, argv, code, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, stdout, stderr = run_cli(capsys, *argv)
    assert got == code
    if named:
        assert json.loads(stderr)["error"]["message"].startswith(named + ": ")
        return
    assert stderr == ""
    out = json.loads(stdout)
    if argv[0] == "equilibrium":
        # the buffer term outweighs any load: both users at r_max, with no finite closed form
        assert out["rates"] == [6.0, 6.0] and out["closed_form_identical"] is None
    elif "--rates=1e160,1e160" in argv:
        # both eigenvalues tend to -inf: below 1, but not above -1
        assert out["closed_form_conditions"] == {"upper": True, "lower": False}
        assert out["verdict"] == "unstable"
    else:
        assert all(math.isfinite(v) for row in out["jacobian"] for v in row)


def test_rates_before_a_flag_leaves_the_flag_to_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stability", "--rates", "--help"])
    assert exc.value.code == 2
    assert "--rates: expected one argument" in capsys.readouterr().err


def test_sweep_theta_grid(tmp_path, capsys):
    out = tmp_path / "sweep"
    code, stdout, _ = run_cli(
        capsys, "sweep", "--preset", "case1-fixed", "--segments", "40",
        "--mode", "quantized", "--theta", "50,100", "--out", str(out),
    )
    assert code == 0
    table = (out / "sweep.csv").read_text().splitlines()
    assert len(table) == 1 + 4  # header + 2 thetas * 2 users
    assert (out / "theta=50.0" / "user0.csv").exists()


def test_sweep_empty_grid_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "sweep", "--preset", "case1-fixed", "--out", str(tmp_path / "x"),
    )
    assert code == 2


def test_sweep_policy_grid(tmp_path, capsys, monkeypatch):
    loads = []

    def counted_load_preset(name):
        loads.append(name)
        return load_preset(name)

    monkeypatch.setattr(dashgame.cli, "load_preset", counted_load_preset)
    out = tmp_path / "pol"
    code, _, _ = run_cli(
        capsys, "sweep", "--preset", "case4-fixed", "--segments", "40",
        "--policy", "game,qf,bf", "--out", str(out),
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 9  # 3 policies * 3 users
    assert loads == ["case4-fixed"]  # the source is loaded once, not once per run


def test_sweep_labels_follow_command_line_order(tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _, _ = run_cli(
        capsys, "sweep", "--preset", "case1-fixed", "--segments", "5",
        "--policy", "game,qf", "--theta", "50,100", "--out", str(out),
    )
    assert code == 0
    header, first = (out / "sweep.csv").read_text().splitlines()[:2]
    assert header.startswith("run,policy,theta,user,")
    assert first.startswith("policy=game_theta=50.0,game,50.0,0,")
    assert (out / "policy=qf_theta=100.0" / "user1.csv").exists()


@pytest.mark.parametrize("argv, message", [
    # the --param axis used to override every --theta run, under --theta's labels
    (["--theta", "50,100", "--param", "users.*.theta=1,2"], "users.*.theta: given twice"),
    (["--param", "sim.seed=1,2", "--param", "sim.seed=3"], "sim.seed: given twice"),
    # both used to land in one sweep.csv column
    (["--param", "users.0.theta=1,2", "--param", "users.1.theta=3,4"],
     "users.1.theta: shares the sweep.csv column 'theta' with users.0.theta"),
    # the axis used to override --segments without a word
    (["--param", "sim.total_segments=6,7"], "sim.total_segments: given both as a grid axis"),
    # a repeated run used to run twice into one directory, or under two labels
    (["--theta", "50,50"], "theta=50.0: the sweep grid gives this run twice"),
    (["--param", "users.*.theta=50,50.0"],
     "theta=50.0: the sweep grid gives this run twice, also as theta=50"),
])
def test_sweep_grid_that_repeats_a_key_or_column_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "sweep"
    code, _, stderr = run_cli(capsys, "sweep", "--preset", "case1-fixed", "--segments", "5",
                              *argv, "--out", str(out))
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith(message)
    assert not out.exists()


def test_sweep_checks_every_point_before_the_first_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _, stderr = run_cli(capsys, "sweep", "--preset", "case1-fixed", "--segments", "5",
                              "--param", "users.*.theta=50,-1", "--out", str(out))
    assert code == 2
    assert json.loads(stderr)["error"]["message"].startswith("users[0].theta:")
    assert not out.exists()


def test_sweep_policy_axis_is_checked_by_the_parser(tmp_path, capsys):
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "case1-fixed", "--policy", "game,bogus", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --policy: invalid choice: 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_trace_header_lists_record_fields_in_order():
    # the header is built from the TraceRecord fields: renaming one renames a CSV column
    assert _TRACE_HEADER == (
        "k,t_start,t_end,requested_rate,quantized_rate,download_time,buffer,stall_seconds,quality\r\n"
    )


def test_parser_is_built_once_per_process():
    assert dashgame.cli.build_parser() is dashgame.cli.build_parser()


def test_override_does_not_leak_into_the_next_call(tmp_path, capsys):
    # the parser is shared by every call: a --param list lives in that call's namespace only
    preset_theta = load_preset("case1-fixed").users[0].theta
    assert preset_theta != 30.0
    runs = {"with": ["--param", "users.*.theta=30"], "without": []}
    for label, extra in runs.items():
        code, _, _ = run_cli(capsys, "simulate", "--preset", "case1-fixed", "--segments", "5",
                             *extra, "--out", str(tmp_path / label))
        assert code == 0
    thetas = {label: [u["theta"] for u in json.loads(
        (tmp_path / label / "run_manifest.json").read_text())["scenario"]["users"]]
        for label in runs}
    assert thetas == {"with": [30.0, 30.0], "without": [preset_theta, preset_theta]}


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_a_call_that_exits_early_does_not_change_the_next(tmp_path, capsys, flag):
    argv = ["simulate", "--preset", "case3", "--segments", "5"]
    before = run_cli(capsys, *argv, "--out", str(tmp_path / "before"))
    with pytest.raises(SystemExit) as exc:
        main([flag] if flag == "--version" else ["simulate", flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out
    after = run_cli(capsys, *argv, "--out", str(tmp_path / "after"))
    assert after == before
    for name in ("user0.csv", "user1.csv", "summary.json"):
        assert (tmp_path / "after" / name).read_bytes() == (tmp_path / "before" / name).read_bytes()
    # the rewrite of a negative --rates word still reaches the range check
    code, _, stderr = run_cli(capsys, "stability", "--preset", "case1-fixed", "--rates", "-1,1")
    assert code == 2
    assert "--rates" in stderr
