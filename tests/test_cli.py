"""End-to-end CLI runs: files, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from dashgame.cli import main


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


def test_equilibrium_command_cross_check(capsys):
    code, stdout, _ = run_cli(capsys, "equilibrium", "--n-users", "2")
    assert code == 0
    out = json.loads(stdout)
    assert out["converged"]
    assert out["rates"][0] == pytest.approx(out["closed_form_identical"], abs=1e-6)
    assert out["closed_form_identical"] == pytest.approx(23.993192638983356, rel=1e-9)


def test_equilibrium_single_user(capsys):
    code, stdout, _ = run_cli(capsys, "equilibrium", "--n-users", "1")
    assert code == 0
    out = json.loads(stdout)
    assert len(out["rates"]) == 1 and out["converged"]


def test_equilibrium_invalid_params_exit_2(capsys):
    code, _, stderr = run_cli(capsys, "equilibrium", "--nu", "-0.1")
    assert code == 2
    assert "nu" in json.loads(stderr)["error"]["message"]


def test_stability_marginal_at_vanishing_theta(capsys):
    code, stdout, _ = run_cli(capsys, "stability", "--theta", "1e-9", "--rates", "3,3")
    assert code == 0
    out = json.loads(stdout)
    assert out["spectral_radius"] == pytest.approx(1.0, abs=1e-6)
    assert out["verdict"] == "marginal"


def test_stability_three_users_numeric_path(capsys):
    code, stdout, _ = run_cli(
        capsys, "stability", "--n-users", "3", "--theta", "5", "--rates", "2,2,2",
    )
    assert code == 0
    out = json.loads(stdout)
    assert out["jacobian_source"] == "numeric-central-difference"
    assert len(out["eigenvalues"]) == 3


def test_stability_many_users(capsys):
    # above 64 users the spectrum used to be rejected
    code, stdout, _ = run_cli(capsys, "stability", "--n-users", "100", "--theta", "5")
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
            "--alpha", "2.15", "--beta", "0.0827",
            "--mu", "0.003", "--nu", "0.07423027001041584",
            "--theta", str(theta), "--rates", "3,3",
        )
        assert code == 0
        verdicts.append(json.loads(stdout)["verdict"])
    assert verdicts[0] == "stable"
    assert verdicts[-1] == "unstable"
    flips = sum(a != b for a, b in zip(verdicts, verdicts[1:]))
    assert flips == 1


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


def test_sweep_policy_grid(tmp_path, capsys):
    out = tmp_path / "pol"
    code, _, _ = run_cli(
        capsys, "sweep", "--preset", "case4-fixed", "--segments", "40",
        "--policy", "game,bf", "--out", str(out),
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 6  # 2 policies * 3 users
