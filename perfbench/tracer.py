"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each graphboost module
with wrappers that record a span (layer, start, end, parent, size) per call.
Modules import names by value (``boost`` binds ``forward``, ``cli`` binds
``load_planetoid``), so a function is replaced in every graphboost module
that holds it; ``PropagationMatrix`` methods are replaced on the class.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

# layer -> (module, attribute) pairs; a dotted attribute names a method
LAYERS = {
    "graph.apply": [("graph", "PropagationMatrix.apply"),
                    ("graph", "PropagationMatrix.apply_transpose")],
    "graph.operator_norm": [("graph", "operator_norm")],
    "graph.eigendecompose": [("graph", "eigendecompose")],
    "aggregate.fit_kta": [("aggregate", "fit_kta")],
    "mlp.fit": [("mlp", "fit_classifier"), ("mlp", "fit_to_gradient")],
    "mlp.forward": [("mlp", "forward")],
    "mlp.backward": [("mlp", "backward")],
    "losses.errors": [("losses", "errors")],
    "boost.wlc_fit": [("boost", "wlc_fit")],
    "boost.stage_representations": [("boost", "stage_representations")],
    "boost.save_model": [("boost", "save_model")],
    "boost.load_model": [("boost", "load_model")],
    "theory.build_theory_report": [("theory", "build_theory_report")],
    "theory.smoothing_report": [("theory", "smoothing_report")],
    "data.load_planetoid": [("data", "load_planetoid")],
}

# work counted per call, from the array argument after the first
SIZES = {
    "graph.apply": lambda args: (np.shape(args[1]) + (1,))[1],
    "mlp.forward": lambda args: np.shape(args[1])[0],
}

# per-layer metric -> (layer, statistic); every metric is a per-round value
METRICS = {
    "graph.apply_calls": ("graph.apply", "calls"),
    "graph.apply_cols": ("graph.apply", "size"),
    "graph.apply_s": ("graph.apply", "busy"),
    "graph.operator_norm_calls": ("graph.operator_norm", "calls"),
    "graph.operator_norm_s": ("graph.operator_norm", "busy"),
    "graph.eigendecompose_s": ("graph.eigendecompose", "busy"),
    "aggregate.fit_kta_calls": ("aggregate.fit_kta", "calls"),
    "aggregate.fit_kta_s": ("aggregate.fit_kta", "busy"),
    "mlp.fit_calls": ("mlp.fit", "calls"),
    "mlp.fit_s": ("mlp.fit", "busy"),
    "mlp.backward_s": ("mlp.backward", "busy"),
    "mlp.forward_rows": ("mlp.forward", "size"),
    "mlp.forward_s": ("mlp.forward", "busy"),
    "losses.errors_s": ("losses.errors", "busy"),
    "boost.wlc_fit_s": ("boost.wlc_fit", "busy"),
    "boost.stage_representations_calls":
        ("boost.stage_representations", "calls"),
    "boost.stage_representations_s": ("boost.stage_representations", "busy"),
    "boost.save_model_s": ("boost.save_model", "busy"),
    "boost.load_model_s": ("boost.load_model", "busy"),
    "theory.build_theory_report_s": ("theory.build_theory_report", "busy"),
    "theory.smoothing_report_s": ("theory.smoothing_report", "busy"),
    "data.load_planetoid_calls": ("data.load_planetoid", "calls"),
    "data.load_planetoid_s": ("data.load_planetoid", "busy"),
}


class Tracer:
    """Span recorder. ``spans`` holds [id, layer, parent, start, end, size,
    round] lists; round is None outside ``begin_round``/``end_round``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._round = None

    def span(self, layer, size=0):
        return _Span(self, layer, size)

    def _wrap(self, layer, fn):
        size_of = SIZES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer, size_of(args) if size_of else 0):
                return fn(*args, **kwargs)
        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "graphboost" or name.startswith("graphboost.")]
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                owner = sys.modules[f"graphboost.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self._wrap(layer, getattr(cls, meth)))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(layer, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)

    def begin_round(self, index):
        self._round = index

    def end_round(self):
        self._round = None

    def per_round(self):
        """{round: {layer: {"calls", "size", "busy", "self"}}}."""
        child_time = {}
        for sid, _, parent, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        out = {}
        for sid, layer, _, start, end, size, rnd in self.spans:
            if rnd is None:
                continue
            st = out.setdefault(rnd, {}).setdefault(
                layer, {"calls": 0, "size": 0, "busy": 0.0, "self": 0.0})
            st["calls"] += 1
            st["size"] += size
            st["busy"] += end - start
            st["self"] += end - start - child_time.get(sid, 0.0)
        return out

    def metrics(self):
        """Median over rounds of every per-layer metric (0 if never called)."""
        rounds = list(self.per_round().values())
        empty = {"calls": 0, "size": 0, "busy": 0.0}
        out = {}
        for name, (layer, stat) in METRICS.items():
            vals = [r.get(layer, empty)[stat] for r in rounds] or [0]
            if stat == "busy":
                out[name] = {"value": statistics.median(vals), "unit": "s"}
            else:
                out[name] = {"value": round(statistics.median(vals)),
                             "unit": "count"}
        return out


class _Span:
    def __init__(self, tracer, layer, size):
        self.tracer, self.layer, self.size = tracer, layer, size

    def __enter__(self):
        tr = self.tracer
        self.record = [len(tr.spans), self.layer,
                       tr._stack[-1][0] if tr._stack else None,
                       time.perf_counter(), None, self.size, tr._round]
        tr.spans.append(self.record)
        tr._stack.append(self.record)
        return self

    def __exit__(self, *exc):
        self.record[4] = time.perf_counter()
        self.tracer._stack.pop()
        return False
