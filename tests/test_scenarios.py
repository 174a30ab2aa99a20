"""Scenario documents: validation messages, round trips, presets, overrides."""

import json
import math
from dataclasses import replace

import pytest

from dashgame.adapt import AdaptConfig
from dashgame.netsim import calibrate_nu, make_profile, run_scenario
from dashgame.scenarios import (
    ScenarioError,
    apply_override,
    list_presets,
    load_preset,
    load_scenario,
    recalibrate_nu,
    scenario_from_dict,
    scenario_to_dict,
)

EXPECTED_PRESETS = {
    "case1-fixed", "case1-buffer-sweep", "case1-uncalibrated",
    "case2-persistent", "case2-staged", "case2-short",
    "case3",
    "case4-fixed", "case4-persistent", "case4-staged", "case4-short",
    "realistic-6user",
}


def minimal_doc():
    return {
        "params": {"mu": 0.003, "nu": 0.0041, "p": 0.1},
        "users": [
            {"video": {"alpha": 2.15, "beta": 0.0827, "ladder": [1.0, 2.0, 3.0]},
             "theta": 100.0, "b_ref": 15.0},
        ],
        "server": {"kind": "fixed", "base": 6.0},
        "sim": {"segment_duration": 2.0, "total_segments": 10},
    }


def test_every_preset_ships_and_validates():
    assert set(list_presets()) == EXPECTED_PRESETS
    for name in list_presets():
        sc = load_preset(name)
        assert sc.users and sc.sim.total_segments >= 1


def test_presets_round_trip_through_the_validator():
    for name in list_presets():
        sc = load_preset(name)
        again = scenario_from_dict(scenario_to_dict(sc), name=name)
        assert again.params == sc.params
        assert again.users == sc.users
        assert again.server.breakpoints == sc.server.breakpoints
        assert again.sim == sc.sim


# the rate each calibrated preset's nu targets (None: the equal split);
# the case4-* presets reuse case3's nu, whatever their caps
NU_TARGETS = {
    **dict.fromkeys(["case1-fixed", "case1-buffer-sweep", "case2-persistent", "case2-staged",
                     "case2-short", "realistic-6user"]),
    **dict.fromkeys(["case3", "case4-fixed", "case4-persistent", "case4-staged", "case4-short"], 1.5),
}


def test_calibrated_presets_carry_helper_nu():
    """The list in README's Presets section: calibrate_nu from the first
    user's curve and the bandwidth at t=0, at each preset's target."""
    assert set(NU_TARGETS) == EXPECTED_PRESETS - {"case1-uncalibrated"}
    for name, r_target in NU_TARGETS.items():
        sc = load_preset(name)
        v = sc.users[0].video
        expected = calibrate_nu(v.alpha, v.beta, sc.params.mu, sc.params.segment_duration,
                                sc.server.breakpoints[0][1], len(sc.users), r_target=r_target)
        assert sc.params.nu == pytest.approx(expected, rel=1e-12), name


def test_uncalibrated_preset_keeps_reference_constants():
    sc = load_preset("case1-uncalibrated")
    assert sc.params.mu == 0.003
    assert sc.params.nu == 0.0041
    assert sc.users[0].video.alpha == 2.15
    assert sc.users[0].video.beta == 0.0827


def test_validation_error_names_the_field():
    doc = minimal_doc()
    doc["users"][0]["theta"] = -5.0
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "users[0].theta" in str(err.value)


def test_validation_missing_block():
    doc = minimal_doc()
    del doc["server"]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "server" in str(err.value)


def test_validation_bad_cap_profile():
    doc = minimal_doc()
    doc["users"][0]["cap_profile"] = {"kind": "wavelet"}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "cap_profile" in str(err.value)


def test_validation_bad_ladder():
    doc = minimal_doc()
    doc["users"][0]["video"]["ladder"] = [3.0, 2.0]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "video" in str(err.value)


def test_user_defaults_are_the_adaptation_defaults():
    user = scenario_from_dict(minimal_doc()).users[0]
    assert user.adapt_config() == AdaptConfig(theta=100.0, r_max=3.0)


def test_numbers_are_stored_as_floats_and_integers_stay_integers():
    doc = minimal_doc()
    doc["users"][0]["theta"] = 100
    doc["sim"].update(seed=3, initial_buffer=0)
    written = scenario_to_dict(scenario_from_dict(doc))
    assert type(written["users"][0]["theta"]) is float
    assert type(written["sim"]["initial_buffer"]) is float
    assert type(written["sim"]["seed"]) is int


@pytest.mark.parametrize("path, value, fieldname", [
    (("sim", "quantize"), 1, "sim.quantize"),
    (("sim", "seed"), 3.0, "sim.seed"),
    (("name",), 5, "name"),
    (("users", 0, "policy"), None, "users[0].policy"),
    (("users", 0, "r_max"), "4", "users[0].r_max"),
    (("users", 0, "video", "ladder"), [1.0, "2"], "users[0].video.ladder[1]"),
    (("users", 0, "video", "alpha"), 10**400, "users[0].video.alpha"),
    (("users", 0, "video", "beta"), -1.0, "users[0].video.beta"),
    (("users", 0, "r_init"), 0.01, "users[0].r_init"),
    (("users", 0, "bf_gain"), math.inf, "users[0].bf_gain"),
    (("users", 0, "policy"), "greedy", "users[0].policy"),
    (("users", 0, "cap_profile"), {"lo": 1.0}, "users[0].cap_profile.kind"),
    (("users", 0, "cap_profile"), -1.0, "users[0].cap_profile"),
    (("server",), {"kind": "fixed", "breakpoints": [[0, 6.0]]}, "server.breakpoints"),
    (("server",), {"kind": "custom", "breakpoints": [[0, 6.0, 1.0]]}, "server.breakpoints[0]"),
    (("server",), {"kind": "custom"}, "server.breakpoints"),
    (("sim", "resume_policy"), "restart", "sim.resume_policy"),  # no longer a sim key
    (("users",), [], "users"),
    (("params",), [], "params"),
])
def test_typed_readers_name_the_field(path, value, fieldname):
    doc = minimal_doc()
    *head, leaf = path
    target = doc
    for part in head:
        target = target[part]
    target[leaf] = value
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert err.value.fieldname == fieldname


def test_scenario_rejects_two_segment_durations():
    sc = scenario_from_dict(minimal_doc())
    with pytest.raises(ValueError, match="sim.segment_duration"):
        replace(sc, sim=replace(sc.sim, segment_duration=4.0))


def test_keys_outside_the_kind_may_be_null():
    doc = minimal_doc()
    doc["server"] = {"kind": "staged", "base": 6.0, "breakpoints": None}
    doc["users"][0]["cap_profile"] = {"kind": "fixed", "cap": 2.0, "choices": None}
    sc = scenario_from_dict(doc)
    assert sc.server == make_profile("staged", 6.0) and sc.users[0].cap.cap == 2.0


def test_load_scenario_file_and_manifest(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_doc()))
    sc = load_scenario(str(path))
    assert len(sc.users) == 1
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(json.dumps({"tool_version": "x", "scenario": minimal_doc()}))
    sc2 = load_scenario(str(manifest))
    assert sc2.users == sc.users


def test_apply_override_paths():
    doc = minimal_doc()
    doc["users"].append(json.loads(json.dumps(doc["users"][0])))
    apply_override(doc, "sim.seed", 42)
    apply_override(doc, "users.*.theta", 55.0)
    apply_override(doc, "users.1.b_ref", 20.0)
    assert doc["sim"]["seed"] == 42
    assert [u["theta"] for u in doc["users"]] == [55.0, 55.0]
    assert doc["users"][1]["b_ref"] == 20.0
    with pytest.raises(ScenarioError):
        apply_override(doc, "params.*.bad", 1)


def test_recalibrate_nu_helper():
    sc = load_preset("case1-uncalibrated")
    cal = recalibrate_nu(sc)
    assert cal.params.nu == pytest.approx(0.07423027001041584, rel=1e-12)
    # equilibrium of the recalibrated scenario sits at an equal split
    from dashgame.game import foc_coefficients, closed_form_identical_2user
    from dashgame.model import BufferView
    z = foc_coefficients(cal.params, cal.users[0].video, BufferView(b_curr=15, b_ref=15), 6.0)
    assert closed_form_identical_2user(z, cal.users[0].video.beta) == pytest.approx(3.0, abs=1e-9)


def test_random_cap_scenario_runs_deterministically():
    sc = load_preset("case4-fixed")
    t1 = run_scenario(sc)
    t2 = run_scenario(sc)
    assert [t.records for t in t1] == [t.records for t in t2]
