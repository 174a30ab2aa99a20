"""Byte-for-byte pin of the serialised form of scenario documents.

For every shipped preset and a set of hand-written documents, the sha256 of
``json.dumps(scenario_to_dict(scenario_from_dict(doc)), indent=2)`` must
match ``data/scenario_sha256.json``.  The hand-written documents use
integer-valued numbers, which are stored and written as floats, every cap
kind and every server kind.  A run manifest embeds this text, so a change
here changes every manifest.  To regenerate the file after an intentional
change to the document form (name it in CHANGES.md), run
``python tests/test_scenario_digests.py``.
"""

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from dashgame.scenarios import list_presets, scenario_from_dict, scenario_to_dict

DIGESTS = Path(__file__).resolve().parent / "data" / "scenario_sha256.json"

VIDEO = {"alpha": 2, "beta": 1, "ladder": [1, 2, 3, 5]}
USER = {"video": VIDEO, "theta": 100, "b_ref": 15}
SIM = {"segment_duration": 2, "total_segments": 10}

HAND_WRITTEN = {
    "every-user-field-as-integers": {
        "name": "integers",
        "params": {"mu": 1, "nu": 2, "p": 1},
        "users": [{
            "video": {**VIDEO, "metric_label": "index"}, "theta": 100, "b_ref": 15,
            "policy": "bf", "cap_profile": 2, "r_init": 1, "r_min": 1, "r_max": 4,
            "max_step_fraction": 1, "epsilon": 1, "estimator_weight": 1, "qf_startup": 3,
            "bf_gain": 2,
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


def documents() -> dict:
    """{label: (document, default name)} for every pinned document."""
    presets = resources.files("dashgame.presets")
    docs = {
        f"preset {name}": (json.loads(presets.joinpath(f"{name}.json").read_text("utf-8")), name)
        for name in list_presets()
    }
    docs.update({f"hand-written {label}": (doc, label) for label, doc in HAND_WRITTEN.items()})
    return docs


def digest(doc: dict, name: str) -> str:
    text = json.dumps(scenario_to_dict(scenario_from_dict(doc, name=name)), indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_document_is_pinned():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(documents())


@pytest.mark.parametrize("label", sorted(documents()))
def test_serialised_document_matches_pinned_digest(label):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))[label]
    assert digest(*documents()[label]) == pinned


if __name__ == "__main__":
    table = {label: digest(doc, name) for label, (doc, name) in documents().items()}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
