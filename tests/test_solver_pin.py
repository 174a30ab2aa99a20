"""Bit-for-bit pin of ``solve_equilibrium`` on fixed seeded instances.

For every case the sha256 of ``repr((rates, residual, iterations,
converged))`` must match ``data/solver_sha256.json``, so any change to the
solver's arithmetic, iteration count or fallback shows here.  The cases
cover N in {1, 2, 8, 64, 512}, both methods, and box sizes from tight
(users pinned at ``r_max``) to loose (starved users pinned at 0).  The
instances are built here, not from ``conftest.random_instance``, so the pin
does not move when that helper does.  To regenerate the file after an
intentional change (name the drift in CHANGES.md), run
``python tests/test_solver_pin.py``.

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

DIGESTS = Path(__file__).resolve().parent / "data" / "solver_sha256.json"
SIZES = (1, 2, 8, 64, 512)
R_MAXES = (0.5, 8.0, 60.0)
METHODS = ("newton", "best_response")
CASES = {
    f"n{n} r_max={r_max} {method}": (n, r_max, method, 10000)
    for n in SIZES
    for r_max in R_MAXES
    for method in METHODS
}
# stopped early: the non-converged result is pinned too
CASES.update(
    {f"n{n} r_max=60.0 newton max_iter=3": (n, 60.0, "newton", 3) for n in (8, 64, 512)}
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


def solve_digest(n: int, r_max: float, method: str, max_iter: int) -> str:
    params, videos, bufs, export_bw = instance(n, r_max)
    res = solve_equilibrium(
        params, videos, bufs, export_bw, r_max=r_max, max_iter=max_iter, method=method
    )
    text = repr((res.rates, res.residual, res.iterations, res.converged))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_case_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_solver_matches_pinned_digest(label):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[label]
    assert solve_digest(*CASES[label]) == pinned


if __name__ == "__main__":
    table = {label: solve_digest(*case) for label, case in sorted(CASES.items())}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
