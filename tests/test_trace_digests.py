"""Byte-for-byte pin of the trace CSVs of every shipped preset.

Each run writes its per-user CSVs through the CLI; their sha256 digests must
match ``data/preset_trace_sha256.json``.  The three-policy sweep of
``case4-fixed`` is pinned too, so the QF/BF baselines are covered.  To
regenerate the file after an intentional change to the traces (name the
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

DIGESTS = Path(__file__).resolve().parent / "data" / "preset_trace_sha256.json"
RUNS = {
    **{f"simulate {name}": ["simulate", "--preset", name] for name in list_presets()},
    "sweep case4-fixed": ["sweep", "--preset", "case4-fixed", "--policy", "game,qf,bf"],
}


def trace_digests(argv: list, out: Path) -> dict:
    """Run the CLI into ``out`` and return {relative CSV path: sha256}."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    assert code == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("user*.csv"))
    }


def test_every_preset_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(RUNS)


@pytest.mark.parametrize("label", sorted(RUNS))
def test_trace_csvs_match_pinned_digests(label, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[label]
    assert trace_digests(RUNS[label], tmp_path / "run") == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {
            label: trace_digests(argv, Path(tmp) / str(i))
            for i, (label, argv) in enumerate(sorted(RUNS.items()))
        }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
