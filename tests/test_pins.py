"""Byte pins of the program's outputs: one table, one check, one regeneration.

``PINS`` maps each file under ``data/`` to its labels and the rule that
computes a label's value; ``value_test(file)`` compares each with the pinned
one, and ``coverage_test(file)`` checks that the file pins every label:

- ``preset_trace_sha256.json`` and ``preset_summary_sha256.json``: the sha256
  of the trace CSVs, and of ``summary.json`` and ``sweep.csv``, that every
  shipped preset and the three-policy sweep of ``case4-fixed`` (so QF/BF are
  covered) write through the CLI; each run is made once and feeds both;
- ``scenario_sha256.json``: of ``json.dumps(scenario_to_dict(
  scenario_from_dict(doc)), indent=2)``, the text a run manifest embeds, for
  every preset and hand-written documents (integer-valued numbers, every cap
  and server kind);
- ``solver_sha256.json``: of ``repr((rates, residual, iterations,
  converged))`` of ``solve_equilibrium`` for N in {1, 2, 8, 64, 512}, boxes
  from tight (users pinned at ``r_max``) to loose (starved users at 0), and
  runs stopped short of convergence;
- ``oracle_sha256.json``: the same for the Newton solver kept in
  ``solver_oracle.py``, through either path, at its digests as
  ``solve_equilibrium``.  It is frozen, so the oracle stays the solver it was;
- ``preset_horizon.json``: each preset's horizon, the first segment ``k`` at
  which some user's trace record differs by more than 1e-6 (relative) once
  every payoff gradient is multiplied by 1 + 1e-15, or null.  No bound on a
  rounding-level change can hold for a preset's records past its horizon.

After an intentional change to an output (name the drift in CHANGES.md),
``python tests/test_pins.py`` rewrites every file except the oracle's.

The solver sums with numpy only, never with the builtin ``sum`` (which is
compensated from CPython 3.12 on), so its pin depends on numpy's summation
order, not on the CPython version.
"""

import contextlib
import functools
import hashlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import dashgame.game as game
from dashgame.adapt import PayoffServer
from dashgame.cli import main
from dashgame.game import solve_equilibrium
from dashgame.model import BufferView, GameParams, VideoQualityModel
from dashgame.netsim import run_scenario
from dashgame.scenarios import list_presets, load_preset, scenario_from_dict, scenario_to_dict
from solver_oracle import oracle_solve

DATA = Path(__file__).resolve().parent / "data"
FROZEN = "oracle_sha256.json"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


RUNS = {
    **{f"simulate {name}": ("simulate", "--preset", name) for name in list_presets()},
    "sweep case4-fixed": ("sweep", "--preset", "case4-fixed", "--policy", "game,qf,bf"),
}
# the pinned outputs of one run: its trace CSVs, and its summaries and sweep table
TRACES = ("user*.csv",)
SUMMARIES = ("summary.json", "sweep.csv")


@functools.cache
def run_digests(argv: tuple) -> dict:
    """{relative path: sha256} of every output of one CLI run, made once per process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", str(out)])
        assert code == 0
        return {
            path.relative_to(out).as_posix(): sha256(path.read_bytes())
            for path in sorted(out.rglob("*")) if path.is_file()
        }


def outputs(argv: tuple, patterns) -> dict:
    """The digests of the run's outputs whose file name matches one of ``patterns``."""
    got = {rel: d for rel, d in run_digests(argv).items() if any(Path(rel).match(p) for p in patterns)}
    assert got, (argv, patterns)
    return got


VIDEO = {"alpha": 2, "beta": 1, "ladder": [1, 2, 3, 5]}
USER = {"video": VIDEO, "theta": 100, "b_ref": 15}
SIM = {"segment_duration": 2, "total_segments": 10}

HAND_WRITTEN = {
    "every-user-field-as-integers": {
        "name": "integers",
        "params": {"mu": 1, "nu": 2, "p": 1},
        "users": [{
            "video": {**VIDEO, "metric_label": "index"}, "theta": 100, "b_ref": 15,
            "policy": "bf", "cap_profile": 2, "r_init": 1, "r_max": 4, "max_step_fraction": 1,
            "qf_startup": 3, "bf_gain": 2,
        }],
        "server": {"kind": "fixed", "base": 6},
        "sim": {"segment_duration": 2, "total_segments": 10, "initial_buffer": 0,
                "quantize": True, "seed": 3},
    },
    "every-cap-kind": {
        "params": {"mu": 0.001, "nu": 0.004, "p": 1},
        "users": [
            {**USER, "cap_profile": None},
            {**USER, "cap_profile": {"kind": "none"}},
            {**USER, "cap_profile": {"kind": "fixed", "cap": 3}},
            {**USER, "cap_profile": {"kind": "random", "lo": 1, "hi": 2, "dwell": 30}},
            {**USER, "cap_profile": {"kind": "random", "choices": [1, 2.5], "dwell": 40}},
            {**USER, "cap_profile": {"kind": "breakpoints", "breakpoints": [[0, 2], [50, 1]]}},
        ],
        "server": {"kind": "persistent", "base": 8},
        "sim": SIM,
    },
    **{
        f"server-{kind}": {
            "params": {"mu": 0.001, "nu": 0.004, "p": 1},
            "users": [USER],
            "server": {"kind": kind, "base": 5},
            "sim": {**SIM, "seed": 9},
        }
        for kind in ("staged", "short_term")
    },
    "server-custom": {
        "name": "custom",
        "params": {"mu": 0.001, "nu": 0.004, "p": 1},
        "users": [USER, {**USER, "policy": "qf"}],
        "server": {"kind": "custom", "breakpoints": [[0, 6], [100, 9], [200.5, 4]]},
        "sim": {**SIM, "quantize": False, "initial_buffer": 1},
    },
}
# label -> (default name, document); a preset's document is read from the package
DOCUMENTS = {
    **{f"preset {name}": (name, None) for name in list_presets()},
    **{f"hand-written {label}": (label, doc) for label, doc in HAND_WRITTEN.items()},
}


def scenario_digest(case: tuple) -> str:
    name, doc = case
    if doc is None:
        doc = json.loads(resources.files("dashgame.presets").joinpath(f"{name}.json").read_text("utf-8"))
    return sha256(json.dumps(scenario_to_dict(scenario_from_dict(doc, name=name)), indent=2).encode())


SIZES = (1, 2, 8, 64, 512)
R_MAXES = (0.5, 8.0, 60.0)
METHODS = ("newton", "best_response")
# label -> (n, r_max, max_iter); stopped early, a non-converged result is pinned too
CASES = {f"n{n} r_max={r_max}": (n, r_max, 10000) for n in SIZES for r_max in R_MAXES}
CASES.update({f"n{n} r_max=60.0 max_iter=2": (n, 60.0, 2) for n in (8, 64, 512)})
# label -> (n, r_max, max_iter, method)
ORACLE_CASES = {
    f"n{n} r_max={r_max} {method}": (n, r_max, 10000, method)
    for n in SIZES
    for r_max in R_MAXES
    for method in METHODS
}
ORACLE_CASES.update(
    {f"n{n} r_max=60.0 newton max_iter=3": (n, 60.0, 3, "newton") for n in (8, 64, 512)}
)


# built here, not by ``conftest.random_instance``, so the pin does not move when that helper does
def instance(n: int, r_max: float):
    """Heterogeneous game of ``n`` users, seeded by its size and box."""
    rng = np.random.default_rng([n, int(r_max * 10)])
    params = GameParams(
        mu=float(rng.uniform(1e-4, 0.01)),
        nu=float(rng.uniform(1e-3, 0.1)),
        p=float(rng.uniform(0.05, 1.0)),
        segment_duration=float(rng.uniform(1.0, 4.0)),
    )
    videos = [
        VideoQualityModel(alpha=float(a), beta=float(b), ladder=(1.0,))
        for a, b in zip(rng.uniform(0.02, 3.0, n), rng.uniform(0.05, 1.5, n))
    ]
    bufs = [
        BufferView(b_curr=float(c), b_ref=float(r))
        for c, r in zip(rng.uniform(0.0, 40.0, n), rng.uniform(5.0, 25.0, n))
    ]
    export_bw = float(rng.uniform(2.0, 20.0)) * max(1.0, n / 8)
    return params, videos, bufs, export_bw


def result_digest(res) -> str:
    return sha256(repr((res.rates, res.residual, res.iterations, res.converged)).encode())


def solver_digest(n: int, r_max: float, max_iter: int) -> str:
    """``solve_equilibrium``'s digest, with ``game.MAX_ITER`` set to ``max_iter`` for the call."""
    saved, game.MAX_ITER = game.MAX_ITER, max_iter
    try:
        return result_digest(solve_equilibrium(*instance(n, r_max), r_max=r_max))
    finally:
        game.MAX_ITER = saved


def oracle_digest(n: int, r_max: float, max_iter: int, method: str) -> str:
    res = oracle_solve(*instance(n, r_max), r_max=r_max, max_iter=max_iter, method=method)
    return result_digest(res)


NUDGE = 1.0 + 1e-15


def horizon(name: str):
    """The preset's horizon (see above), or None."""
    scenario = load_preset(name)
    plain = run_scenario(scenario)
    gradient = PayoffServer.gradient
    PayoffServer.gradient = lambda server, *args: gradient(server, *args) * NUDGE
    try:
        nudged = run_scenario(scenario)
    finally:
        PayoffServer.gradient = gradient
    return min((
        a.k
        for plain_trace, nudged_trace in zip(plain, nudged)
        for a, b in zip(plain_trace.records, nudged_trace.records)
        if any(abs(x - y) > 1e-6 * max(abs(x), abs(y), 1e-12) for x, y in zip(a, b))
    ), default=None)


# file -> ({label: case}, rule): a label's pinned value is rule(case)
PINS = {
    "preset_trace_sha256.json": (RUNS, lambda argv: outputs(argv, TRACES)),
    "preset_summary_sha256.json": (RUNS, lambda argv: outputs(argv, SUMMARIES)),
    "scenario_sha256.json": (DOCUMENTS, scenario_digest),
    "solver_sha256.json": (CASES, lambda case: solver_digest(*case)),
    FROZEN: (ORACLE_CASES, lambda case: oracle_digest(*case)),
    "preset_horizon.json": ({name: name for name in list_presets()}, horizon),
}


def pinned(file: str) -> dict:
    return json.loads((DATA / file).read_text(encoding="utf-8"))


def coverage_test(*files):
    """A test that ``files`` pin every label of their rows, and no other."""
    def test():
        for file in files:
            assert sorted(pinned(file)) == sorted(PINS[file][0]), file
    return test


def value_test(*files):
    """A test with one case per label of ``files`` (disjoint), checking its pinned value."""
    where = {label: file for file in files for label in PINS[file][0]}
    assert len(where) == sum(len(PINS[file][0]) for file in files), files

    @pytest.mark.parametrize("label", sorted(where))
    def test(label):
        cases, rule = PINS[where[label]]
        assert rule(cases[label]) == pinned(where[label])[label]
    return test


# The other rows' tests keep the names they had before the table was one:
# test_trace_digests.py, test_scenario_digests.py and test_solver_pin.py
# take theirs from here.
def test_the_table_covers_every_pin_file():
    assert sorted(PINS) == sorted(path.name for path in DATA.glob("*.json"))


test_every_horizon_is_pinned = coverage_test("preset_horizon.json")
test_horizon_matches_pin = value_test("preset_horizon.json")


if __name__ == "__main__":
    for file, (cases, rule) in PINS.items():
        if file != FROZEN:
            table = {label: rule(case) for label, case in sorted(cases.items())}
            text = json.dumps(table, indent=1, sort_keys=True) + "\n"
            (DATA / file).write_text(text, encoding="utf-8")
