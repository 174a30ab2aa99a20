"""Regenerate reference/presets.json from the dashgame in this checkout.

Run from the repository root:  python3 bench/make_reference.py

The reference pins each presets op's summary.json values (compared within a
relative tolerance) and the sha256 of every CSV it writes (mismatches are
only counted).  Regenerate it only when a change to the program's output is
intended, and name that change where the change is recorded.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".bench_out"))
    try:
        wl = workloads.Presets(seed=0, workdir=workdir)
        ops = {}
        for k in range(wl.cycle):
            inp = wl.prepare(k)
            if wl.execute(inp) != 0:
                sys.exit(f"{inp[0]} failed")
            got = workloads.collect_outputs(inp[2])
            ops[inp[0]] = {"summaries": got["summaries"], "csv_sha256": got["csv_sha256"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"ops": ops}
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {workloads.REFERENCE} ({len(ops)} ops)")


if __name__ == "__main__":
    main()
