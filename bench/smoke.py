"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 bench/smoke.py

Runs every workload briefly (also ``crowd``, which BENCHMARK.json leaves out),
untraced and traced, and checks that the result line has exactly the keys of
the contract, that every metric BENCHMARK.json names appears with its unit,
that every detail metric appears or is marked absent, and that the outputs
are correct.  Runs each traced workload twice with one seed and requires the
exact counts to repeat.  Finally runs the benchmark in a directory holding
only BENCHMARK.json and bench/, where it must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ("presets", "crowd", "analysis")
EXACT_SUFFIXES = (".calls", ".segments", ".iterations", ".nonconverged", ".failures",
                  ".trace_digest_mismatches", ".events_per_segment")


def bench(cwd: Path, workload: str, trace: int, seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def parse(proc: subprocess.CompletedProcess, expected: list[dict]) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], sorted(result)
    assert result["correct"] is True, detail.get("wrong_outputs")
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got)
    for name, m in result["metrics"].items():
        assert sorted(m) == ["unit", "value"] and isinstance(m["value"], (int, float)), (name, m)
    return detail, result


def main() -> int:
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS), SPEC["workloads"]
    for workload in WORKLOADS:
        detail, _ = parse(bench(ROOT, workload, 0), SPEC["end_to_end"])
        shown = set(detail["detail"]) | set(detail["absent_metrics"])
        assert shown == {"segments_per_s", "op_p90_ms", "failed_frac", "boundary_defect_frac"}, shown
        for key in ("python", "numpy", "blas", "nproc", "commit", "loadavg_at_start"):
            assert key in detail["env"], key

        runs = [parse(bench(ROOT, workload, 1), SPEC["per_layer"]) for _ in range(2)]
        (d1, r1), (_, r2) = runs
        exact = [n for n in r1["metrics"] if n.endswith(EXACT_SUFFIXES)]
        drift = [n for n in exact if r1["metrics"][n]["value"] != r2["metrics"][n]["value"]]
        assert not drift, f"{workload}: counts differ between two runs of one seed: {drift}"
        assert not d1["count_drift_passes"], d1["count_drift_passes"]
        print(f"ok {workload}: {len(exact)} exact counts repeat; absent: {d1['absent_metrics']}")

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print("ok: fails without a result where the program is missing")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
