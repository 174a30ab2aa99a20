"""Span tracer that wraps dashgame's public functions from outside the package.

Each layer is wrapped at every name its callers look up (``cli`` calls
``dashgame.cli.run_scenario``, the event loop calls
``dashgame.netsim.allocate_shares``, ...), so nothing inside ``src/dashgame``
changes.  Closed spans are folded into a call tree keyed by the path of
layer names from the op that caused them: a node holds the call count and
inclusive seconds of its spans, and its self time is that minus the time of
its wrapped children.  The tree stays bounded however many spans a run makes,
lives in memory, and is written out once at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# layer name -> the (module, attribute) names through which callers reach it
LAYERS = {
    "cli.main": [("dashgame.cli", "main")],
    "cli.write_trace_csv": [("dashgame.cli", "write_trace_csv")],
    "scenarios.load_preset": [("dashgame.cli", "load_preset")],
    "scenarios.scenario_from_dict": [("dashgame.cli", "scenario_from_dict")],
    "metrics.summarize": [("dashgame.cli", "summarize")],
    "metrics.qoe": [("dashgame.cli", "qoe1"), ("dashgame.cli", "qoe2")],
    "netsim.run_scenario": [("dashgame.cli", "run_scenario"), ("dashgame.netsim", "run_scenario")],
    "netsim.cap_at": [("dashgame.netsim", "cap_at")],
    "netsim.allocate_shares": [("dashgame.netsim", "allocate_shares")],
    "netsim.bandwidth_at": [("dashgame.netsim", "bandwidth_at")],
    "netsim.quantize_rate": [("dashgame.netsim", "quantize_rate")],
    "adapt.handle_query": [("dashgame.adapt", "PayoffServer.handle_query")],
    "adapt.payoff_gradient_server": [("dashgame.adapt", "payoff_gradient_server")],
    "adapt.update_rate": [("dashgame.netsim", "update_rate")],
    "adapt.note_request": [("dashgame.adapt", "PayoffServer.note_request")],
    "model.utility": [("dashgame.adapt", "utility")],
    "model.quality": [("dashgame.model", "quality"), ("dashgame.netsim", "quality")],
    "baselines.qf_decide": [("dashgame.netsim", "qf_decide")],
    "baselines.bf_decide": [("dashgame.netsim", "bf_decide")],
    "game.solve_equilibrium": [("dashgame.game", "solve_equilibrium")],
    "stability.jacobian_2user": [("dashgame.stability", "jacobian_2user")],
    "stability.jacobian_numeric": [("dashgame.stability", "jacobian_numeric")],
    "stability.build_report": [("dashgame.stability", "build_report")],
}


class Node:
    __slots__ = ("name", "calls", "busy", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.busy = 0.0
        self.children: dict[str, Node] = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def self_time(self) -> float:
        return self.busy - sum(c.busy for c in self.children.values())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "busy_s": self.busy,
            "self_s": self.self_time(),
            "children": [c.to_dict() for c in self.children.values()],
        }


def _resolve(module: str, attr: str):
    """(owner, attribute name) of a dotted attribute, or None when it is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, leaf, None)):
        return None
    return owner, leaf


class Tracer:
    """Installs wrappers on enable(), removes them on disable().

    ``absent`` lists the layers none of whose names exist in the program, so
    their metrics are reported as absent instead of failing the run.
    """

    def __init__(self) -> None:
        self.root = Node("root")
        self._stack = [self.root]
        self._saved: list[tuple[object, str, object]] = []
        self.absent = sorted(
            layer for layer, targets in LAYERS.items()
            if not any(_resolve(m, a) for m, a in targets)
        )

    def reset(self) -> None:
        self.root = Node("root")
        self._stack[:] = [self.root]

    def enable(self) -> None:
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                found = _resolve(module, attr)
                if found is None:
                    continue
                owner, leaf = found
                original = getattr(owner, leaf)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(layer, original))

    def disable(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = stack[-1].child(layer)
            stack.append(node)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                node.busy += perf_counter() - t0
                node.calls += 1
                stack.pop()

        return wrapper

    def op(self, tag: str) -> "_OpSpan":
        """Span of one benchmark op; its tag (e.g. ``n64``) groups layers by op kind."""
        return _OpSpan(self._stack, self.root.child("op." + tag))

    def totals(self, tag: str | None = None) -> dict[str, list]:
        """layer -> [calls, busy_s, self_s] summed over the tree (or one op tag)."""
        out: dict[str, list] = {}
        roots = self.root.children.values()
        if tag is not None:
            roots = [n for n in roots if n.name == "op." + tag]
        for op_node in roots:
            for child in op_node.children.values():
                _accumulate(child, out, ())
        return out

    def write(self, path) -> None:
        path.write_text(json.dumps(self.root.to_dict(), indent=1) + "\n", encoding="utf-8")


def _accumulate(node: Node, out: dict, open_layers: tuple) -> None:
    row = out.setdefault(node.name, [0, 0.0, 0.0])
    row[0] += node.calls
    row[2] += node.self_time()
    if node.name not in open_layers:  # a layer nested in itself counts once
        row[1] += node.busy
    for child in node.children.values():
        _accumulate(child, out, open_layers + (node.name,))


class _OpSpan:
    def __init__(self, stack: list, node: Node) -> None:
        self._stack = stack
        self._node = node

    def __enter__(self):
        self._stack.append(self._node)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._node.busy += perf_counter() - self._t0
        self._node.calls += 1
        self._stack.pop()
