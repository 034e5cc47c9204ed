"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` replaces the public functions behind the per-layer
metrics with timing wrappers.  ``cli``, ``converse``, ``synthesis`` and
``oracle`` bind these names when they are imported, so a function is
replaced in every ``stagecraft`` module that holds it, not only where it
is defined.  The class methods behind the algebra and the policy oracle
are replaced on their classes.  ``uninstall`` puts every original back.

Each span records its name, start, end, parent span and item id.  Spans
are kept in memory while ``keep_spans`` is set and written out by the
caller when the run ends.  Aggregates per span name (calls, points,
inclusive time, self time) and a few work counters are kept for every
call.  Inclusive time counts only the outermost span of a name, so a
function that re-enters itself is not counted twice; self time is the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

# span name -> (module, function) for module-level functions
FUNCTIONS = {
    "cli.main": ("stagecraft.cli", "main"),
    "library.build": ("stagecraft.library", "build_builtin"),
    "cmpfn.decompose": ("stagecraft.cmpfn", "kl_decompose"),
    "system.rollout": ("stagecraft.system", "rollout"),
    "system.stage_costs": ("stagecraft.system", "stage_costs"),
    "certificates.verify": ("stagecraft.certificates", "verify"),
    "certificates.uvc_to_ubgec": ("stagecraft.certificates", "uvc_to_ubgec"),
    "synthesis.synthesize": ("stagecraft.synthesis", "synthesize"),
    "synthesis.certify": ("stagecraft.synthesis", "certify_ucc"),
    "converse.pipeline": ("stagecraft.converse", "converse_pipeline"),
    "converse.settle_horizon": ("stagecraft.converse", "settle_horizon"),
    "converse.stitch": ("stagecraft.converse", "stitch_controls"),
    "converse.schedule": ("stagecraft.converse", "settling_schedule"),
    "converse.assemble": ("stagecraft.converse", "assemble_state_bound"),
    "oracle.value_iterate": ("stagecraft.oracle", "value_iterate"),
    "oracle.core": ("stagecraft.oracle", "zero_cost_core"),
    "oracle.reach": ("stagecraft.oracle", "reaches_core"),
    "oracle.extract_ucc": ("stagecraft.oracle", "extract_ucc"),
    "oracle.discretize": ("stagecraft.oracle", "discretize_scalar"),
}

# span name -> (module, class, method names); __call__ is an alias of eval
METHODS = {
    "cmpfn.eval": ("stagecraft.cmpfn", "NonnegFn", ("eval", "__call__")),
    "cmpfn.invert": ("stagecraft.cmpfn", "KInfFn", ("invert",)),
    "cmpfn.kl_eval": ("stagecraft.cmpfn", "SeparableKL", ("eval", "__call__")),
    "cmpfn.kl_eval.sampled": ("stagecraft.cmpfn", "SampledKL", ("eval", "__call__")),
    "certificates.policy_controls": ("stagecraft.certificates", "PolicyOracle", ("controls",)),
}

# per-layer metric -> unit; every value is per item unless the unit says otherwise
LAYER_UNITS = {
    "cmpfn.eval_calls": "calls/item",
    "cmpfn.eval_points": "points/item",
    "cmpfn.eval_s": "s/item",
    "cmpfn.kl_eval_calls": "calls/item",
    "cmpfn.kl_eval_points": "points/item",
    "cmpfn.kl_eval_s": "s/item",
    "cmpfn.invert_calls": "calls/item",
    "cmpfn.invert_points": "points/item",
    "cmpfn.invert_s": "s/item",
    "cmpfn.points_per_call": "points/call",
    "cmpfn.decompose_calls": "calls/item",
    "cmpfn.decompose_s": "s/item",
    "cmpfn.decompose_shortcut_frac": "fraction",
    "system.rollout_calls": "calls/item",
    "system.rollout_steps": "steps/item",
    "system.rollout_s": "s/item",
    "system.stage_costs_s": "s/item",
    "certificates.verify_calls": "calls/item",
    "certificates.verify_s": "s/item",
    "certificates.verify_self_s": "s/item",
    "certificates.sample_steps": "steps/item",
    "certificates.us_per_sample_step": "us/step",
    "certificates.policy_controls_calls": "calls/item",
    "certificates.policy_controls_s": "s/item",
    "synthesis.synthesize_s": "s/item",
    "synthesis.synthesize_self_s": "s/item",
    "synthesis.certify_s": "s/item",
    "converse.pipeline_s": "s/item",
    "converse.settle_horizon_calls": "calls/item",
    "converse.stitch_calls": "calls/item",
    "converse.stitch_s": "s/item",
    "converse.assemble_s": "s/item",
    "converse.schedule_calls": "calls/item",
    "converse.schedule_s": "s/item",
    "converse.schedules_per_radius": "calls/radius",
    "oracle.value_iterate_s": "s/item",
    "oracle.vi_sweeps": "sweeps/item",
    "oracle.states": "states/item",
    "oracle.core_s": "s/item",
    "oracle.reach_s": "s/item",
    "library.build_calls": "calls/item",
    "library.build_s": "s/item",
    "cli.main_s": "s/item",
    "cli.self_s": "s/item",
    "bench.trace_overhead_frac": "fraction",
}

# metrics that count work; a fixed pool gives the same values on every run
COUNT_METRICS = tuple(
    name for name, unit in LAYER_UNITS.items()
    if unit.split("/")[0] in ("calls", "points", "steps", "sweeps", "states")
) + ("cmpfn.decompose_shortcut_frac",)


def _size(x) -> int:
    if type(x) is np.ndarray:
        return x.size
    if isinstance(x, (list, tuple)):
        return len(x)
    return 1


def _bound_args(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments


class Tracer:
    """Span recorder; create one, ``install`` it, run items, ``uninstall``."""

    def __init__(self):
        self.names = list(FUNCTIONS) + list(METHODS)
        self.item = -1
        self.keep_spans = True
        self.spans = []  # (span id, name index, start, end, parent id, item)
        self._stack = []  # open spans: [span id, child time]
        self._next_id = 0
        self._active = dict.fromkeys(self.names, 0)
        self._radii = set()
        self._patched = []
        self.stats = {name: [0, 0, 0.0, 0.0] for name in self.names}  # calls, points, total, self
        self.counters = dict.fromkeys(
            ("rollout_steps", "sample_steps", "vi_sweeps", "states", "decompose_shortcuts",
             "distinct_radii", "items"), 0)

    def snapshot(self) -> tuple:
        return copy.deepcopy(self.stats), dict(self.counters)

    def begin_item(self, index: int) -> None:
        self.item = index
        self._radii = set()
        self.counters["items"] += 1

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, points=None, after=None):
        name_index = self.names.index(name)
        stat = self.stats[name]
        active = self._active
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            outer = active[name] == 0
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[name] -= 1
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[1] += points(args) if points is not None else 1
                if outer:
                    stat[2] += duration
                stat[3] += duration - frame[1]
                if tracer.keep_spans:
                    tracer.spans.append((span_id, name_index, start, end, parent, tracer.item))
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name, fn):
        """Point counters and work counters for the spans that have them."""
        counters = self.counters
        if name in ("cmpfn.eval", "cmpfn.invert"):
            return (lambda args: _size(args[1])), None
        if name.startswith("cmpfn.kl_eval"):
            return (lambda args: max(_size(args[1]), _size(args[2]))), None
        if name == "system.rollout":
            def after(args, kwargs, traj):
                counters["rollout_steps"] += len(traj)
            return None, after
        if name == "certificates.verify":
            bind = _bound_args(fn)

            def after(args, kwargs, report):
                bound = bind(args, kwargs)
                counters["sample_steps"] += len(bound["samples"]) * int(bound["horizon"])
            return None, after
        if name == "oracle.value_iterate":
            def after(args, kwargs, table):
                counters["vi_sweeps"] += table.iterations
                counters["states"] += int(table.values.shape[0])
            return None, after
        if name == "cmpfn.decompose":
            bind = _bound_args(fn)

            def after(args, kwargs, result):
                if result is bind(args, kwargs)["beta"]:
                    counters["decompose_shortcuts"] += 1
            return None, after
        if name == "converse.schedule":
            bind = _bound_args(fn)
            tracer = self

            def after(args, kwargs, schedule):
                radius = float(bind(args, kwargs)["radius"])
                if radius not in tracer._radii:
                    tracer._radii.add(radius)
                    counters["distinct_radii"] += 1
            return None, after
        return None, None

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "stagecraft" or key.startswith("stagecraft.")]
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(module_name), attr)
            points, after = self._hooks(name, original)
            wrapper = self._wrap(name, original, points, after)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        for name, (module_name, cls_name, methods) in METHODS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[methods[0]]
            points, after = self._hooks(name, original)
            wrapper = self._wrap(name, original, points, after)
            for method in methods:
                self._patched.append((cls, method, vars(cls)[method]))
                setattr(cls, method, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []


def layer_metrics(stats: dict, counters: dict, overhead_frac: float) -> dict:
    """Per-item metrics from aggregates taken over whole passes of the pool."""
    items = max(counters["items"], 1)

    def calls(name):
        return stats[name][0]

    def points(name):
        return stats[name][1]

    def total(name):
        return stats[name][2]

    def self_time(name):
        return stats[name][3]

    kl_names = ("cmpfn.kl_eval", "cmpfn.kl_eval.sampled")
    kl_calls = sum(calls(n) for n in kl_names)
    kl_points = sum(points(n) for n in kl_names)
    kl_total = sum(total(n) for n in kl_names)
    algebra_calls = calls("cmpfn.eval") + calls("cmpfn.invert") + kl_calls
    algebra_points = points("cmpfn.eval") + points("cmpfn.invert") + kl_points
    decompositions = calls("cmpfn.decompose")
    sample_steps = counters["sample_steps"]
    values = {
        "cmpfn.eval_calls": calls("cmpfn.eval") / items,
        "cmpfn.eval_points": points("cmpfn.eval") / items,
        "cmpfn.eval_s": total("cmpfn.eval") / items,
        "cmpfn.kl_eval_calls": kl_calls / items,
        "cmpfn.kl_eval_points": kl_points / items,
        "cmpfn.kl_eval_s": kl_total / items,
        "cmpfn.invert_calls": calls("cmpfn.invert") / items,
        "cmpfn.invert_points": points("cmpfn.invert") / items,
        "cmpfn.invert_s": total("cmpfn.invert") / items,
        "cmpfn.points_per_call": algebra_points / algebra_calls if algebra_calls else 0.0,
        "cmpfn.decompose_calls": decompositions / items,
        "cmpfn.decompose_s": total("cmpfn.decompose") / items,
        "cmpfn.decompose_shortcut_frac":
            counters["decompose_shortcuts"] / decompositions if decompositions else 0.0,
        "system.rollout_calls": calls("system.rollout") / items,
        "system.rollout_steps": counters["rollout_steps"] / items,
        "system.rollout_s": total("system.rollout") / items,
        "system.stage_costs_s": total("system.stage_costs") / items,
        "certificates.verify_calls": calls("certificates.verify") / items,
        "certificates.verify_s": total("certificates.verify") / items,
        "certificates.verify_self_s": self_time("certificates.verify") / items,
        "certificates.sample_steps": sample_steps / items,
        "certificates.us_per_sample_step":
            1e6 * total("certificates.verify") / sample_steps if sample_steps else 0.0,
        "certificates.policy_controls_calls": calls("certificates.policy_controls") / items,
        "certificates.policy_controls_s": total("certificates.policy_controls") / items,
        "synthesis.synthesize_s": total("synthesis.synthesize") / items,
        "synthesis.synthesize_self_s": self_time("synthesis.synthesize") / items,
        "synthesis.certify_s": total("synthesis.certify") / items,
        "converse.pipeline_s": total("converse.pipeline") / items,
        "converse.settle_horizon_calls": calls("converse.settle_horizon") / items,
        "converse.stitch_calls": calls("converse.stitch") / items,
        "converse.stitch_s": total("converse.stitch") / items,
        "converse.assemble_s": total("converse.assemble") / items,
        "converse.schedule_calls": calls("converse.schedule") / items,
        "converse.schedule_s": total("converse.schedule") / items,
        "converse.schedules_per_radius":
            calls("converse.schedule") / counters["distinct_radii"]
            if counters["distinct_radii"] else 0.0,
        "oracle.value_iterate_s": total("oracle.value_iterate") / items,
        "oracle.vi_sweeps": counters["vi_sweeps"] / items,
        "oracle.states": counters["states"] / items,
        "oracle.core_s": total("oracle.core") / items,
        "oracle.reach_s": total("oracle.reach") / items,
        "library.build_calls": calls("library.build") / items,
        "library.build_s": total("library.build") / items,
        "cli.main_s": total("cli.main") / items,
        "cli.self_s": self_time("cli.main") / items,
        "bench.trace_overhead_frac": overhead_frac,
    }
    return values


def shares(stats: dict) -> dict:
    """Inclusive time of each span name as a share of all ``cli.main`` time."""
    whole = stats["cli.main"][2]
    return {name: stat[2] / whole for name, stat in stats.items() if whole and stat[0]}
