"""Call tracing for one splitkit process, installed from outside the package.

``install`` wraps the public functions of the layer modules, and a few
methods, in the running interpreter and rebinds every reference to them
inside the package, so calls between modules go through the wrappers too.
Nothing under ``src/`` is edited.

Every wrapped call updates (calls, total time, self time) for its name; self
time is the call's duration minus the time of the wrapped calls made inside
it.  Coarse calls are also kept as spans (id, parent, name, start, end) that
share the run id.  Hot per-point calls (map steps, frame coefficients,
pullbacks) are only counted, since a span for each would cost more than the
call.  ``layer_metrics`` turns a written trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("dynamics", "splitting", "frames", "bracket", "surface", "uniqueness", "cli", "report", "config")

METHODS = (
    ("dynamics", "Diffeo", "apply"),
    ("dynamics", "Diffeo", "apply_inverse"),
    ("dynamics", "Diffeo", "differential"),
    ("dynamics", "Diffeo", "differential_inverse"),
    ("frames", "PullbackFrame", "coefficients"),
    ("config", "ExperimentConfig", "from_file"),
    ("config", "ExperimentConfig", "build_diffeo"),
    ("report", "RunTimer", "write_sidecar"),
)

COUNTED_ONLY = {
    "dynamics.Diffeo.apply",
    "dynamics.Diffeo.apply_inverse",
    "dynamics.Diffeo.differential",
    "dynamics.Diffeo.differential_inverse",
    "dynamics.orbit",
    "frames.PullbackFrame.coefficients",
    "frames.pullback_plane_at",
    "frames.adapted_coefficients",
    "frames.plane_from_coefficients",
    "report.format_cell",
    "report.jsonable",
}

MAX_SPANS = 200_000  # spans past this are counted, not kept
DEEP_PULLBACK = 100  # pullbacks at least this deep are also timed apart

COEFFICIENTS = "frames.PullbackFrame.coefficients"
PULLBACK = "frames.pullback_plane_at"


def _pullback_hook(tracer, args, kwargs, result, frame, parent):
    k = int(kwargs.get("k", args[3] if len(args) > 3 else 1))
    tracer.counters["pullback_steps"] += k
    if k >= DEEP_PULLBACK:
        tracer.counters["deep_pullback_s"] += frame[4]
    parent[3] += 1  # a coefficients call that pulls back missed the cache


def _coefficients_hook(tracer, args, kwargs, result, frame, parent):
    if frame[3] == 0:
        tracer.counters["coefficient_hits"] += 1


def _bound_curve_hook(tracer, args, kwargs, result, frame, parent):
    tracer.outcome("bracket.bound_curve", sum(e.resolved for e in result.entries), len(result.entries))


def _transport_hook(tracer, args, kwargs, result, frame, parent):
    tracer.outcome("surface.pushforward_vector", int(result.resolved), 1)


HOOKS = {
    PULLBACK: _pullback_hook,
    COEFFICIENTS: _coefficients_hook,
    "bracket.bound_curve": _bound_curve_hook,
    "surface.pushforward_vector": _transport_hook,
}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = {"pullback_steps": 0, "coefficient_hits": 0, "deep_pullback_s": 0.0}
        self.outcomes = {}  # name -> [useful, attempts]
        self.spans = []
        self.spans_dropped = 0
        # frame: [child time, span id or -1, name, pullbacks made inside, duration]
        self.stack = [[0.0, -1, "", 0, 0.0]]

    def outcome(self, name, useful, attempts):
        o = self.outcomes.setdefault(name, [0, 0])
        o[0] += useful
        o[1] += attempts

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        spans = self.spans
        keep_span = name not in COUNTED_ONLY
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1]
            span_id = -1
            if keep_span:
                if len(spans) < MAX_SPANS:
                    span_id = len(spans)
                    spans.append(None)  # reserve the id; filled in on return
                else:
                    tracer.spans_dropped += 1
            frame = [0.0, span_id, name, 0, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = frame[4] = t1 - t0
                stats[0] += 1
                stats[1] += d
                stats[2] += d - frame[0]
                parent[0] += d
                if span_id >= 0:
                    spans[span_id] = (span_id, parent[1], name, t0, t1)
            if hook is not None:
                hook(tracer, args, kwargs, result, frame, parent)
            return result

        return wrapped

    def write(self, path):
        trace = {
            "run_id": self.run_id,
            "clock": "time.perf_counter, seconds",
            "stats": {
                n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in sorted(self.stats.items()) if c
            },
            "counters": self.counters,
            "outcomes": {n: {"useful": u, "attempts": a} for n, (u, a) in self.outcomes.items()},
            "spans_dropped": self.spans_dropped,
            "spans": [
                {"run": self.run_id, "id": i, "parent": p, "name": n, "start": a, "end": b}
                for i, p, n, a, b in filter(None, self.spans)
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)


def install(run_id) -> Tracer:
    """Wrap the layer modules of the imported splitkit package."""
    tracer = Tracer(run_id)
    modules = {short: importlib.import_module(f"splitkit.{short}") for short in LAYERS}
    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrapped[obj] = tracer.wrap(f"{short}.{attr}", obj)
    for short, cls_name, meth in METHODS:
        cls = getattr(modules[short], cls_name)
        raw = cls.__dict__[meth]
        name = f"{short}.{cls_name}.{meth}"
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(cls, meth, tracer.wrap(name, raw))
    # modules bind imported functions under their own names, so rebind them all
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "splitkit" and not mod_name.startswith("splitkit."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    return tracer


# (metric, unit, better): the per-layer metrics, in the order they are reported
PER_LAYER = (
    ("dynamics.apply.calls", "count", "lower"),
    ("dynamics.apply.us", "us", "lower"),
    ("dynamics.differential.calls", "count", "lower"),
    ("dynamics.differential.us", "us", "lower"),
    ("dynamics.self_share", "ratio", "lower"),
    ("splitting.swept_growth.self_s", "s", "lower"),
    ("splitting.compute_fast_line.self_s", "s", "lower"),
    ("splitting.splitting_sample.calls", "count", "lower"),
    ("frames.pullback.calls", "count", "lower"),
    ("frames.pullback.steps", "count", "lower"),
    ("frames.pullback.us_per_step", "us", "lower"),
    ("frames.pullback.s", "s", "lower"),
    ("frames.deep_pullback.s", "s", "lower"),
    ("frames.coefficients.calls", "count", "lower"),
    ("frames.cache_hit_ratio", "ratio", "higher"),
    ("bracket.samples", "count", "higher"),
    ("bracket.sample_ms", "ms", "lower"),
    ("bracket.resolved_ratio", "ratio", "higher"),
    ("bracket.bound_curve.s", "s", "lower"),
    ("bracket.invariance.s", "s", "lower"),
    ("surface.identity.s", "s", "lower"),
    ("surface.transport.calls", "count", "lower"),
    ("surface.transport.s", "s", "lower"),
    ("surface.transport.resolved_ratio", "ratio", "higher"),
    ("surface.tangency.s", "s", "lower"),
    ("surface.patch.calls", "count", "lower"),
    ("surface.patch.s", "s", "lower"),
    ("uniqueness.hartman.s", "s", "lower"),
    ("uniqueness.leaf.s", "s", "lower"),
    ("config.load.s", "s", "lower"),
    ("cli.cmd.s", "s", "lower"),
    ("report.write.s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(trace) -> dict:
    """Per-layer metric values of one traced call, except the overhead ratio.

    A layer that did not run reports 0 for every metric of it.
    """
    stats = trace["stats"]

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    def total(*names):
        return sum(get(n, "total_s") for n in names)

    def outcome_ratio(name):
        o = trace["outcomes"].get(name, {})
        return _ratio(o.get("useful", 0), o.get("attempts", 0))

    dynamics_self = sum(s["self_s"] for n, s in stats.items() if n.startswith("dynamics."))
    steps = trace["counters"]["pullback_steps"]
    coef_calls = get(COEFFICIENTS, "calls")
    samples = get("bracket.bound_curve", "calls")
    cmds = [n for n in stats if n.startswith("cli.cmd_")]
    return {
        "dynamics.apply.calls": get("dynamics.Diffeo.apply", "calls"),
        "dynamics.apply.us": 1e6 * _ratio(total("dynamics.Diffeo.apply"), get("dynamics.Diffeo.apply", "calls")),
        "dynamics.differential.calls": get("dynamics.Diffeo.differential", "calls"),
        "dynamics.differential.us": 1e6
        * _ratio(total("dynamics.Diffeo.differential"), get("dynamics.Diffeo.differential", "calls")),
        "dynamics.self_share": _ratio(dynamics_self, total("cli.main")),
        "splitting.swept_growth.self_s": get("splitting.swept_growth", "self_s"),
        "splitting.compute_fast_line.self_s": get("splitting.compute_fast_line", "self_s"),
        "splitting.splitting_sample.calls": get("splitting.splitting_sample", "calls"),
        "frames.pullback.calls": get(PULLBACK, "calls"),
        "frames.pullback.steps": steps,
        "frames.pullback.us_per_step": 1e6 * _ratio(get(PULLBACK, "self_s"), steps),
        "frames.pullback.s": total(PULLBACK),
        "frames.deep_pullback.s": trace["counters"]["deep_pullback_s"],
        "frames.coefficients.calls": coef_calls,
        "frames.cache_hit_ratio": _ratio(trace["counters"]["coefficient_hits"], coef_calls),
        "bracket.samples": samples,
        "bracket.sample_ms": 1e3
        * _ratio(total("bracket.bound_curve", "bracket.invariance_identity_residual"), samples),
        "bracket.resolved_ratio": outcome_ratio("bracket.bound_curve"),
        "bracket.bound_curve.s": total("bracket.bound_curve"),
        "bracket.invariance.s": total("bracket.invariance_identity_residual"),
        "surface.identity.s": total("surface.pushforward_norm_identity"),
        "surface.transport.calls": get("surface.pushforward_vector", "calls"),
        "surface.transport.s": total("surface.pushforward_vector"),
        "surface.transport.resolved_ratio": outcome_ratio("surface.pushforward_vector"),
        "surface.tangency.s": total("surface.tangency_report"),
        "surface.patch.calls": get("surface.build_patch", "calls"),
        "surface.patch.s": total("surface.build_patch"),
        "uniqueness.hartman.s": total("uniqueness.pullback_hartman_report"),
        "uniqueness.leaf.s": total("uniqueness.leaf_divergence"),
        "config.load.s": total("config.ExperimentConfig.from_file"),
        "cli.cmd.s": total(*cmds),
        "report.write.s": total("report.write_csv", "report.write_json", "report.RunTimer.write_sidecar"),
    }
