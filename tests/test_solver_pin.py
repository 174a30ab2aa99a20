"""Bit-for-bit pin of ``solve_equilibrium`` and of its oracle on fixed instances.

For every case the sha256 of ``repr((rates, residual, iterations,
converged))`` must match ``data/solver_sha256.json``, so any change to the
solver's arithmetic or step count shows here.  The cases cover N in
{1, 2, 8, 64, 512} and box sizes from tight (users pinned at ``r_max``) to
loose (starved users pinned at 0), plus runs stopped one step short of
convergence.  The instances are built here, not from
``conftest.random_instance``, so the pin does not move when that helper
does.

The cases that name a method pin the N-dimensional Newton solver kept in
``solver_oracle.py``, through either of its paths, to the digests it had
as ``solve_equilibrium``, in ``data/oracle_sha256.json``; so the oracle the
other tests compare against stays the solver it was.

To regenerate the solver's file after an intentional change (name the drift
in CHANGES.md), run ``python tests/test_solver_pin.py``; the oracle's file
is never regenerated.

The solver sums with numpy only, never with the builtin ``sum`` (which is
compensated from CPython 3.12 on and moves the trace digests), so the pin
depends on numpy's summation order, not on the CPython version.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from dashgame.game import solve_equilibrium
from dashgame.model import BufferView, GameParams, VideoQualityModel
from solver_oracle import oracle_solve

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "solver_sha256.json"
ORACLE_DIGESTS = DATA / "oracle_sha256.json"
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


def digest(res) -> str:
    text = repr((res.rates, res.residual, res.iterations, res.converged))
    return hashlib.sha256(text.encode()).hexdigest()


def solve_digest(n: int, r_max: float, max_iter: int) -> str:
    params, videos, bufs, export_bw = instance(n, r_max)
    return digest(solve_equilibrium(params, videos, bufs, export_bw, r_max=r_max, max_iter=max_iter))


def oracle_digest(n: int, r_max: float, max_iter: int, method: str) -> str:
    params, videos, bufs, export_bw = instance(n, r_max)
    return digest(
        oracle_solve(params, videos, bufs, export_bw, r_max=r_max, max_iter=max_iter, method=method)
    )


def pinned(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_case_is_pinned():
    assert sorted(pinned(DIGESTS)) == sorted(CASES)
    assert sorted(pinned(ORACLE_DIGESTS)) == sorted(ORACLE_CASES)


@pytest.mark.parametrize("label", sorted(CASES) + sorted(ORACLE_CASES))
def test_solver_matches_pinned_digest(label):
    if label in CASES:
        assert solve_digest(*CASES[label]) == pinned(DIGESTS)[label]
    else:
        assert oracle_digest(*ORACLE_CASES[label]) == pinned(ORACLE_DIGESTS)[label]


if __name__ == "__main__":
    table = {label: solve_digest(*case) for label, case in sorted(CASES.items())}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
