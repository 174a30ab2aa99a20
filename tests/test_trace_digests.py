"""Byte-for-byte pin of the outputs of every shipped preset.

Each run writes its per-user CSVs, its ``summary.json`` and, for a sweep, its
``sweep.csv`` through the CLI.  The sha256 digests of the CSVs must match
``data/preset_trace_sha256.json``, and those of the summaries and sweep
tables ``data/preset_summary_sha256.json``.  The three-policy sweep of
``case4-fixed`` is pinned too, so the QF/BF baselines are covered.  To
regenerate both files after an intentional change to the outputs (name the
drift in CHANGES.md), run ``python tests/test_trace_digests.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from dashgame.cli import main
from dashgame.scenarios import list_presets

DATA = Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "preset_trace_sha256.json"
SUMMARY_DIGESTS = DATA / "preset_summary_sha256.json"
RUNS = {
    **{f"simulate {name}": ["simulate", "--preset", name] for name in list_presets()},
    "sweep case4-fixed": ["sweep", "--preset", "case4-fixed", "--policy", "game,qf,bf"],
}
# the pinned outputs of one run: its trace CSVs, and its summaries and sweep table
TRACES = ("user*.csv",)
SUMMARIES = ("summary.json", "sweep.csv")


def run_digests(argv: list, out: Path) -> dict:
    """Run the CLI into ``out`` and return {relative path: sha256} of every output."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    assert code == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def select(digests: dict, patterns) -> dict:
    """The entries of ``digests`` whose file name matches one of ``patterns``."""
    return {rel: d for rel, d in digests.items() if any(Path(rel).match(p) for p in patterns)}


def test_every_preset_is_pinned():
    for path in (DIGESTS, SUMMARY_DIGESTS):
        assert sorted(json.loads(path.read_text(encoding="utf-8"))) == sorted(RUNS), path.name


@pytest.mark.parametrize("label", sorted(RUNS))
def test_trace_csvs_match_pinned_digests(label, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[label]
    assert select(run_digests(RUNS[label], tmp_path / "run"), TRACES) == pinned


@pytest.mark.parametrize("label", sorted(RUNS))
def test_summaries_match_pinned_digests(label, tmp_path):
    pinned = json.loads(SUMMARY_DIGESTS.read_text(encoding="utf-8"))[label]
    got = select(run_digests(RUNS[label], tmp_path / "run"), SUMMARIES)
    assert got and got == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = {
            label: run_digests(argv, Path(tmp) / str(i))
            for i, (label, argv) in enumerate(sorted(RUNS.items()))
        }
    for path, patterns in ((DIGESTS, TRACES), (SUMMARY_DIGESTS, SUMMARIES)):
        table = {label: select(digests, patterns) for label, digests in runs.items()}
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
