"""Declarative scenario files and the shipped presets.

A scenario document has four blocks::

    {"name": "...",
     "params": {"mu": ..., "nu": ..., "p": ...},
     "users": [{"video": {"alpha": ..., "beta": ..., "ladder": [...]},
                "theta": ..., "b_ref": ..., "policy": "game",
                "cap_profile": null | 1.5 | {"kind": "random", "lo": .., "hi": .., "dwell": ..}
                               | {"kind": "breakpoints", "breakpoints": [[t, cap], ...]},
                ... optional adaptation overrides ...}, ...],
     "server": {"kind": "fixed|persistent|staged|short_term", "base": 6.0}
               | {"kind": "custom", "breakpoints": [[t, bw], ...]},
     "sim": {"segment_duration": 2, "total_segments": ..., "initial_buffer": 2,
             "quantize": false, "seed": 0}}

Each block is parsed and serialised through one table of its keys, in
document order, with a typed reader each.  A number is a JSON int or float
(never a bool or NaN) stored as a float, an integer an int, a flag a bool, a
text a string; null is accepted only for optional fields.  Unknown keys, and
keys that the block's ``kind`` does not use, are rejected.  Defaults live on
the dataclasses, range checks in their ``__post_init__``; every error names
the offending field.  Presets for the experimental cases load by name.
"""

from __future__ import annotations

import inspect
import json
import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Callable, Optional

from .adapt import AdaptConfig
from .model import GameParams, VideoQualityModel, log_quality
from .netsim import PROFILE_KINDS, BandwidthProfile, CapSpec, SimConfig, calibrate_nu, make_profile

__all__ = [
    "ScenarioError", "UserSpec", "Scenario", "scenario_from_dict", "scenario_to_dict",
    "load_scenario", "list_presets", "load_preset", "apply_override",
]

POLICIES = ("game", "qf", "bf")

# a random cap's schedule costs about 150 MB per 10^6 slots
MAX_CAP_SLOTS = 10**6


class ScenarioError(ValueError):
    """Scenario validation failure, pointing at the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        self.message = message
        super().__init__(f"{fieldname}: {message}")

    def within(self, key: str) -> "ScenarioError":
        """The same failure, seen from the block or list that holds ``key``."""
        sub = self.fieldname
        return ScenarioError(key + ("." + sub if sub and sub[0] != "[" else sub), self.message)


@dataclass(frozen=True)
class UserSpec:
    """One user's video, adaptation settings, policy, and channel cap."""

    video: VideoQualityModel
    theta: float
    b_ref: float
    policy: str = "game"
    cap: CapSpec = field(default_factory=CapSpec)
    r_init: float = AdaptConfig.r_init
    r_max: Optional[float] = None
    max_step_fraction: float = AdaptConfig.max_step_fraction
    qf_startup: float = 10.0
    bf_gain: float = 0.5

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"UserSpec.policy must be one of {POLICIES}, got {self.policy!r}")
        if not (math.isfinite(self.b_ref) and self.b_ref > 0):
            raise ValueError(f"UserSpec.b_ref must be finite and > 0, got {self.b_ref!r}")
        if not math.isfinite(self.bf_gain):
            raise ValueError(f"UserSpec.bf_gain must be finite, got {self.bf_gain!r}")
        self.adapt_config()

    def adapt_config(self) -> AdaptConfig:
        r_max = self.r_max if self.r_max is not None else self.video.ladder[-1]
        return AdaptConfig(theta=self.theta, r_max=r_max, r_init=self.r_init,
                           max_step_fraction=self.max_step_fraction)


@dataclass(frozen=True)
class Scenario:
    name: str
    params: GameParams
    users: tuple[UserSpec, ...]
    server: BandwidthProfile
    sim: SimConfig

    def __post_init__(self) -> None:
        sim = self.sim
        # the run uses params.segment_duration, but a manifest records sim's
        if sim.segment_duration != self.params.segment_duration:
            raise ValueError(
                f"sim.segment_duration {sim.segment_duration!r} differs from "
                f"params.segment_duration {self.params.segment_duration!r}"
            )
        # the run's horizon and the payoff gradient's T*r terms must be finite
        r_max = max((u.adapt_config().r_max for u in self.users), default=0.0)
        if not math.isfinite(sim.horizon + sim.segment_duration * r_max * len(self.users)):
            raise ScenarioError("sim.segment_duration", f"{sim.segment_duration!r} s makes the"
                                " run's horizon or T*r_max*N infinite")
        # the summary's mean buffer adds total_segments buffers, each at most
        # initial_buffer + total_segments*T; the larger term is named
        n_seg, T = float(sim.total_segments), sim.segment_duration
        if not math.isfinite(n_seg * (sim.initial_buffer + n_seg * T)):
            key = "initial_buffer" if sim.initial_buffer > n_seg * T else "total_segments"
            raise ScenarioError(f"sim.{key}", f"{getattr(sim, key)!r} makes the summary's buffer"
                                f" sum of {sim.total_segments} segments infinite")
        for i, u in enumerate(self.users):
            # a segment's quality is at most that of the user's top rate; the
            # summary's quality spread adds total_segments squares of it
            video = u.video
            r_top = max(u.adapt_config().r_max, video.ladder[-1])
            q_top = log_quality(video.alpha, video.beta, r_top)
            if not math.isfinite(sim.total_segments * q_top * q_top):
                raise ScenarioError(f"users[{i}].video.alpha", f"{video.alpha!r} makes the quality"
                                    f" scores of {sim.total_segments} segments infinite")
            # qoe2 adds total_segments squares of a buffer shortfall of at most b_ref
            if not math.isfinite(sim.total_segments * u.b_ref * u.b_ref):
                raise ScenarioError(f"users[{i}].b_ref", f"{u.b_ref!r} makes the qoe2 buffer"
                                    f" shortfall of {sim.total_segments} segments infinite")
            # CapSpec.materialize draws ceil(horizon/dwell) + 1 slots for a random cap
            if u.cap.kind == "random" and sim.horizon > u.cap.dwell * (MAX_CAP_SLOTS - 1):
                raise ScenarioError(f"users[{i}].cap_profile.dwell", f"{u.cap.dwell!r} s makes more"
                                    f" than {MAX_CAP_SLOTS} random cap slots in {sim.horizon:g} s")


# Typed readers, document value -> attribute value.  A reader raises ScenarioError
# with a path relative to its value; each block or list that holds the value
# prefixes its key on the way out, so paths are built only for a failure.
def _number(value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value == value:
        try:
            return float(value)
        except OverflowError:
            pass
    raise ScenarioError("", f"must be a number, got {value!r}")


def _typed(ok: Callable, what: str) -> Callable:
    def read(value):
        if ok(value):
            return value
        raise ScenarioError("", f"must be {what}, got {value!r}")
    return read


_integer = _typed(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
_flag = _typed(lambda v: isinstance(v, bool), "true or false")
_text = _typed(lambda v: isinstance(v, str), "a string")


def _optional(read: Callable) -> Callable:
    return lambda value: None if value is None else read(value)


def _list_of(read: Callable, what: str = "a list", size_ok: Callable = lambda n: True) -> Callable:
    def read_list(value) -> tuple:
        if not (isinstance(value, list) and size_ok(len(value))):
            raise ScenarioError("", f"must be {what}, got {value!r}")
        try:
            return tuple(map(read, value))
        except ScenarioError:
            for i, item in enumerate(value):  # the failing item, for the path
                try:
                    read(item)
                except ScenarioError as exc:
                    raise exc.within(f"[{i}]") from None
            raise
    return read_list


_numbers = _list_of(_number)
_pairs = _list_of(_list_of(_number, "a [time, value] pair", lambda n: n == 2))


class _Table:
    """One block: its document keys in order, and the callable that builds it.

    Each key maps to its reader, or to a (reader, writer) pair for a nested
    block.  A key names the builder's keyword and the built object's attribute
    unless ``renamed`` maps it to another, and is required when that keyword
    has no default.  With ``kinds``, each kind uses only the keys listed.
    """

    def __init__(self, build: Callable, renamed=None, kinds=None, **fields):
        self.build = build
        self.kinds = kinds
        self.fields = {
            key: ((renamed or {}).get(key, key), *(f if isinstance(f, tuple) else (f, None)))
            for key, f in fields.items()
        }
        keywords = inspect.signature(build).parameters
        self.required = [
            (key, attr) for key, (attr, _, _) in self.fields.items()
            if keywords[attr].default is inspect.Parameter.empty
        ]

    def read(self, raw, given: dict) -> dict:
        """The builder's keywords: ``given`` plus the fields of object ``raw``."""
        if not isinstance(raw, dict):
            raise ScenarioError("", f"must be an object, got {raw!r}")
        fields = self.fields
        for key, value in raw.items():
            if key not in fields:
                raise ScenarioError(key, f"unknown field; expected one of {list(fields)}")
            attr, read, _ = fields[key]
            try:
                given[attr] = read(value)
            except ScenarioError as exc:
                raise exc.within(key) from None
        for key, attr in self.required:
            if attr not in given:
                raise ScenarioError(key, "missing required field")
        if self.kinds:
            kind = given.get("kind")
            if kind not in self.kinds:
                raise ScenarioError("kind", "missing required field" if kind is None
                                    else f"must be one of {tuple(self.kinds)}, got {kind!r}")
            for key, value in raw.items():
                if value is not None and key != "kind" and key not in self.kinds[kind]:
                    raise ScenarioError(key, f"not used by kind {kind!r}")
        return given

    def make(self, kwargs: dict):
        """Build the block; a range error is reported at the first field it names."""
        try:
            return self.build(**kwargs)
        except ValueError as exc:
            keys = {attr: key for key, (attr, _, _) in self.fields.items()}
            named = re.search(r"\b(%s)\b" % "|".join(keys), str(exc))
            raise ScenarioError(keys[named[1]] if named else "", str(exc)) from None

    def read_block(self, raw):
        return self.make(self.read(raw, {}))

    def write(self, obj, kind: Optional[str] = None) -> dict:
        """The block's document (with a kind: the kind and the set keys it uses).

        A value without a writer is written as stored, a tuple as a list."""
        doc = {} if kind is None else {"kind": kind}
        for key in self.fields if kind is None else self.kinds[kind]:
            attr, _, write = self.fields[key]
            value = getattr(obj, attr)
            if write is not None:
                doc[key] = write(value)
            elif isinstance(value, tuple):
                doc[key] = [list(v) if isinstance(v, tuple) else v for v in value]
            elif value is not None or kind is None:
                doc[key] = value
        return doc


_VIDEO = _Table(VideoQualityModel, alpha=_number, beta=_number, ladder=_numbers, metric_label=_text)

_CAP = _Table(
    CapSpec,
    kinds={"none": (), "fixed": ("cap",), "random": ("lo", "hi", "dwell", "choices"),
           "breakpoints": ("breakpoints",)},
    kind=_text, cap=_optional(_number), lo=_number, hi=_number, dwell=_number,
    choices=_optional(_numbers), breakpoints=_optional(_pairs),
)


def _read_cap(raw) -> CapSpec:
    """``cap_profile``: null (no cap), a number (a fixed cap) or an object with a kind."""
    if raw is None:
        return CapSpec()
    if isinstance(raw, dict):
        return _CAP.read_block(raw)
    try:
        return _CAP.make({"kind": "fixed", "cap": _number(raw)})
    except ScenarioError as exc:  # reported at cap_profile itself
        raise ScenarioError("", exc.message) from None


_USER = _Table(
    UserSpec,
    renamed={"cap_profile": "cap"},
    video=(_VIDEO.read_block, _VIDEO.write),
    theta=_number, b_ref=_number, policy=_text,
    cap_profile=(_read_cap, lambda cap: None if cap.kind == "none" else _CAP.write(cap, cap.kind)),
    r_init=_number, r_max=_optional(_number), max_step_fraction=_number, qf_startup=_number,
    bf_gain=_number,
)

# built with the run's segment duration once ``sim`` is read
_PARAMS = _Table(GameParams, mu=_number, nu=_number, p=_number)

_SERVER = _Table(
    make_profile,
    kinds={**dict.fromkeys(PROFILE_KINDS, ("base",)), "custom": ("breakpoints",)},
    kind=_text, base=_number, breakpoints=_optional(_pairs),
)

_SIM = _Table(
    SimConfig,
    renamed={"seed": "rng_seed"},
    segment_duration=_number, total_segments=_integer, initial_buffer=_number, quantize=_flag,
    seed=_integer,
)

_SCENARIO = _Table(
    Scenario,
    name=_text,
    params=(lambda raw: _PARAMS.read(raw, {}), _PARAMS.write),
    users=(_list_of(_USER.read_block, "a nonempty list", lambda n: n > 0),
           lambda users: [_USER.write(u) for u in users]),
    # a resolved server is written as its explicit schedule
    server=(_SERVER.read_block, lambda server: _SERVER.write(server, "custom")),
    sim=(_SIM.read_block, _SIM.write),
)


def scenario_from_dict(doc: dict, name: str = "") -> Scenario:
    """Validate a scenario document and resolve it into typed objects."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario", "document must be a JSON object")
    kwargs = _SCENARIO.read(doc, {"name": name})
    segment_duration = kwargs["sim"].segment_duration
    try:
        kwargs["params"] = _PARAMS.make({**kwargs["params"], "segment_duration": segment_duration})
    except ScenarioError as exc:
        raise exc.within("params") from None
    return Scenario(**kwargs)


def scenario_to_dict(sc: Scenario) -> dict:
    """Serialise a resolved scenario back into its document form."""
    return _SCENARIO.write(sc)


def load_scenario(path: str) -> Scenario:
    """Load a scenario (or run-manifest, which embeds one) from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "scenario" in doc and "users" not in doc:
        doc = doc["scenario"]  # run manifests embed the resolved scenario
    return scenario_from_dict(doc, name=path)


def list_presets() -> list[str]:
    entries = resources.files("dashgame.presets").iterdir()
    return sorted(e.name[:-5] for e in entries if e.name.endswith(".json"))


def load_preset(name: str) -> Scenario:
    ref = resources.files("dashgame.presets").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ScenarioError("preset", f"unknown preset {name!r}; available: {list_presets()}")
    doc = json.loads(ref.read_text(encoding="utf-8"))
    return scenario_from_dict(doc, name=name)


def recalibrate_nu(sc: Scenario) -> Scenario:
    """Return the scenario with nu recomputed from the calibration helper.

    Uses the first user's video curve and the profile's initial bandwidth,
    and targets an equal split of that bandwidth.
    """
    video = sc.users[0].video
    bw0 = sc.server.breakpoints[0][1]
    nu = calibrate_nu(
        alpha=video.alpha, beta=video.beta, mu=sc.params.mu,
        segment_duration=sc.params.segment_duration, export_bw=bw0,
        n_users=len(sc.users),
    )
    return replace(sc, params=replace(sc.params, nu=nu))


def apply_override(doc: dict, dotted_key: str, value) -> None:
    """Set ``dotted_key`` (e.g. ``sim.seed`` or ``users.*.theta``) in a document.

    A ``*`` component fans out over every element of a list.  Used by the
    CLI for sweep grids and one-off overrides.
    """
    def index(tgt, part: str) -> int:
        if not isinstance(tgt, list):
            raise ScenarioError(dotted_key, f"cannot index a {type(tgt).__name__} with {part!r}")
        try:
            return range(len(tgt))[int(part)]
        except (ValueError, IndexError):
            raise ScenarioError(dotted_key, f"bad list index {part!r}") from None

    *path, leaf = dotted_key.split(".")
    targets = [doc]
    for part in path:
        spread = []
        for tgt in targets:
            if part == "*":
                if not isinstance(tgt, list):
                    raise ScenarioError(dotted_key, f"cannot fan out over non-list at {part!r}")
                spread.extend(tgt)
            elif isinstance(tgt, dict):
                spread.append(tgt.setdefault(part, {}))
            else:
                spread.append(tgt[index(tgt, part)])
        targets = spread
    for tgt in targets:
        if isinstance(tgt, dict):
            tgt[leaf] = value
        else:
            tgt[index(tgt, leaf)] = value
