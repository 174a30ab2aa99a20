"""No scenario input reaches a traceback: properties over preset documents.

Each example of the first property takes a preset's resolved document, sets
every user's policy to ``game``, ``qf`` or ``bf``, replaces one to three of
its numeric (or null) leaves with extreme finite values, and runs ``dashgame
simulate`` on it.  Every run must end in one of three ways: exit 0 with every
trace and summary value finite; exit 2 with a message that names the field;
or exit 3 with a message that names the user and the segment.  The second
runs ``dashgame equilibrium`` and ``dashgame stability`` on a preset with
extreme ``--param`` leaves, ``--rates``, ``--b-curr`` and ``--t``, with
warnings turned into errors: exit 0 with every JSON number finite, exit 2
naming the flag or the field, or exit 3; whatever a run prints is strict JSON.
"""

import copy
import csv
import json
import math
import re
import warnings

from hypothesis import HealthCheck, example, given, settings, strategies as st

from dashgame.cli import main
from dashgame.scenarios import POLICIES, apply_override, list_presets, load_preset, scenario_to_dict

PRESETS = list_presets()
EXTREMES = [0, 5e-324, 1e-300, 1e300, 1.7e308]
# a validation error starts with the path of the field it names
FIELD_PATH = re.compile(r"(name|params|users|server|sim)(\.\w+|\[\d+\])*: ")
FLAG_OR_FIELD = re.compile(rf"--[a-z][\w-]*: |{FIELD_PATH.pattern}")
USER_AND_SEGMENT = re.compile(r"\buser \d+\b.*\bsegment \d+\b|\bsegment \d+ of user \d+\b")


def _leaves(doc, prefix=""):
    """Dotted keys of the document's numeric and null leaves.  Of a ladder
    only the ends are kept: its middle rungs would outnumber every other
    field."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    if prefix.endswith(".ladder"):
        items = [(0, doc[0]), (len(doc) - 1, doc[-1])]
    for key, value in items:
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path)
        elif value is None or (isinstance(value, (int, float)) and not isinstance(value, bool)):
            yield path


DOCS = {name: scenario_to_dict(load_preset(name)) for name in PRESETS}
LEAVES = {name: sorted(set(_leaves(doc))) for name, doc in DOCS.items()}


VALUES = st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, 1e308), st.integers(0, 10))


@st.composite
def _replacements(draw):
    """A preset, every user's policy (every preset is game-only) and one to
    three extreme leaves."""
    preset = draw(st.sampled_from(PRESETS))
    policy = ("users.*.policy", draw(st.sampled_from(POLICIES)))
    keys = draw(st.lists(st.sampled_from(LEAVES[preset]), min_size=1, max_size=3, unique=True))
    return preset, [policy] + [(key, draw(VALUES)) for key in keys]


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _strict_json(text):
    """``text`` parsed as JSON, which has no NaN or Infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _check_run(tmp_path, capsys, preset, replacements, segments):
    doc = copy.deepcopy(DOCS[preset])
    for key, value in replacements:
        apply_override(doc, key, value)
    run_dir = tmp_path / f"run{len(list(tmp_path.iterdir()))}"
    run_dir.mkdir()
    source = run_dir / "scenario.json"
    source.write_text(json.dumps(doc), encoding="utf-8")
    out = run_dir / "out"
    code = main(["simulate", "--scenario", str(source), "--segments", str(segments),
                 "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    if code == 0:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert _all_finite(summary), summary
        assert json.loads(stdout) == summary
        for trace in sorted(out.glob("user*.csv")):
            with trace.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == segments
            assert all(math.isfinite(float(v)) for row in rows for v in row), trace
        return
    message = json.loads(stderr)["error"]["message"]
    assert code in (2, 3), (code, message)
    if code == 2:
        assert FIELD_PATH.match(message), message
    else:
        assert USER_AND_SEGMENT.search(message), message
    assert not out.exists()


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_replacements(), segments=st.integers(1, 12))
# the huge and tiny values found one at a time before this property
@example(case=("case1-fixed", [("users.0.video.alpha", 1e300)]), segments=40)
@example(case=("case1-fixed", [("users.0.b_ref", 1e300)]), segments=40)
@example(case=("case1-fixed", [("users.0.cap_profile", 1e-300)]), segments=40)
# the bounds on r_max that the payoff server's constant step sets
@example(case=("case1-fixed", [("users.*.r_max", 1e300)]), segments=40)
@example(case=("case1-fixed", [("users.0.r_max", 1e-300)]), segments=40)
# and those the property found: an infinite mean buffer, a wedge and a
# starved user, the last two with no segment named
@example(case=("case1-fixed", [("sim.initial_buffer", 1.7e308)]), segments=40)
@example(case=("case1-fixed", [("users.0.cap_profile", 5e-324)]), segments=40)
@example(case=("case1-fixed", [("server.breakpoints.0.1", 5e-324)]), segments=40)
# a QF user whose segment took no simulated time
@example(case=("case2-persistent", [("users.*.policy", "qf"), ("server.breakpoints.1.1", 1e300)]),
         segments=60)
def test_extreme_leaves_exit_0_2_or_3_never_a_traceback(tmp_path, capsys, case, segments):
    preset, replacements = case
    _check_run(tmp_path, capsys, preset, replacements, segments)


@st.composite
def _analysis_argv(draw):
    """An ``equilibrium`` or ``stability`` command line: a preset, up to two
    ``--param`` leaves and, each at random, ``--rates``, ``--b-curr`` and ``--t``."""
    preset = draw(st.sampled_from(PRESETS))
    command = draw(st.sampled_from(["equilibrium", "stability"]))
    argv = [command, "--preset", preset]
    for key in draw(st.lists(st.sampled_from(LEAVES[preset]), max_size=2, unique=True)):
        argv.append(f"--param={key}={json.dumps(draw(VALUES))}")
    flags = ["--b-curr", "--t"] + ["--rates"] * (command == "stability")
    for flag in draw(st.lists(st.sampled_from(flags), unique=True)):
        count = len(DOCS[preset]["users"]) if flag == "--rates" else 1
        argv.append(f"{flag}=" + ",".join(repr(float(draw(VALUES))) for _ in range(count)))
    return argv


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_analysis_argv())
# a huge operating rate overflowed the closed-form conditions, the load sum or
# beta*r; a huge beta overflowed r*z1*beta, whose quotient tends to alpha/r
@example(argv=["stability", "--preset", "case1-fixed", "--rates=1e160,1e160"])
@example(argv=["stability", "--preset", "case1-fixed", "--rates=1e308,1e308"])
@example(argv=["stability", "--preset", "case3", "--rates=1.7e308,1,1.7e308"])
@example(argv=["stability", "--preset", "case1-fixed", "--param=users.0.video.beta=1e300"])
# an infinite load slope printed an Infinity residual
@example(argv=["equilibrium", "--preset", "case1-fixed", "--param=params.nu=1.7e308"])
def test_extreme_analysis_inputs_exit_0_2_or_3_never_a_traceback(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    stdout, stderr = capsys.readouterr()
    out = _strict_json(stdout) if stdout else None
    if code == 0:
        assert stderr == ""
        assert _all_finite(out), stdout
    elif code == 2:
        message = json.loads(stderr)["error"]["message"]
        assert FLAG_OR_FIELD.match(message), message
    else:
        assert code == 3, (code, stderr)
