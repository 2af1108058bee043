"""Span tracing of blc_lab's public functions, installed from the benchmark.

``Tracer.install`` replaces every public function of the modules ``core``,
``certify``, ``isoperimetry``, ``convolution``, ``multivariate`` and ``cli``
by a wrapper, in every ``blc_lab`` namespace that holds it, so calls the
library makes to itself are traced too.  A wrapper records one span (name,
tag, start, end, parent span, operation) and keeps running totals from
which self time (duration minus the time of child spans) follows.

Densities the benchmark itself materializes (top-level ``materialize``
calls) get counting pdf/cdf/dpdf callables, which give the number of points
at which a factor's functions are evaluated inside ``certify_blc`` and
``convolve`` spans.
"""
from __future__ import annotations

import dataclasses
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("core", "certify", "isoperimetry", "convolution", "multivariate", "cli")
ISOPERIMETRY = ("bobkov_houdre_constant", "blc_isoperimetric_constant",
                "concentration_check", "iso_profile", "halfspace_profile_1d")
CLI_SUBCOMMANDS = ("certify", "iso", "convolve", "criterion", "smooth", "project", "scan-nd")
MAX_SPANS = 200_000


def _uniform(xs) -> bool:
    h = np.diff(xs)
    return bool(h.max() - h.min() <= 1e-9 * h.mean())


def _tag(name: str, args) -> str:
    """Sub-kind of a span, read from its arguments."""
    if not args:
        return ""
    if name == "certify.certify_blc":
        g = args[0]
        if g.label.startswith("conv["):
            return "convolved"
        return "tabulated" if g.dpdf_fn is None else "analytic"
    if name == "convolution.convolve":
        gX, gY = args[0], args[1]
        if gX.uniform_bounds is not None or gY.uniform_bounds is not None:
            return "box"
        return "grid" if _uniform(gY.xs) else "tabulated"
    if name == "cli.main":
        return str(args[0][0]) if args[0] else ""
    return ""


class Tracer:
    def __init__(self, blc):
        self.blc = blc
        self.spans = []          # [op, parent, name, tag, t0, t1]
        self.stack = []          # [span index, name, tag, child seconds]
        self.op = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self):
        import importlib
        mods = {m: importlib.import_module(f"{self.blc.__name__}.{m}") for m in MODULES}
        originals = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for ns in [self.blc, *mods.values()]:
            for attr, val in list(vars(ns).items()):
                if id(val) in originals and originals[id(val)][0] is val:
                    self._patched.append((ns, attr, val))
                    setattr(ns, attr, originals[id(val)][1])

    def uninstall(self):
        for ns, attr, val in reversed(self._patched):
            setattr(ns, attr, val)
        self._patched.clear()

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tag = _tag(name, args)
            idx = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [idx, name, tag, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                tracer._close(name, tag, parent, frame[3], t0, t1)
            if name == "core.materialize" and parent == -1:
                result = tracer._counting(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, name, tag, parent, child_s, t0, t1):
        dur = t1 - t0
        if self.stack:
            self.stack[-1][3] += dur
        self.calls[name] += 1
        self.incl_s[name] += dur
        self.self_s[name] += dur - child_s
        if tag:
            self.calls[(name, tag)] += 1
            self.incl_s[(name, tag)] += dur
            self.self_s[(name, tag)] += dur - child_s
        if len(self.spans) < MAX_SPANS:
            self.spans.append([self.op, parent, name, tag, t0, t1])

    # -- counting density callables -----------------------------------------

    def _counting(self, g):
        def counted(fn):
            if fn is None:
                return None

            def call(x):
                self._count_points(int(np.size(x)))
                return fn(x)
            return call
        return dataclasses.replace(g, pdf_fn=counted(g.pdf_fn), cdf_fn=counted(g.cdf_fn),
                                   dpdf_fn=counted(g.dpdf_fn))

    def _count_points(self, n: int):
        in_certify = in_conv = False
        for _, name, tag, _ in self.stack:
            if name == "certify.certify_blc":
                in_certify = True
                in_conv = in_conv or tag == "convolved"
            elif name == "convolution.convolve":
                in_conv = True
        if in_certify:
            self.counts["certify.dpdf_points"] += n
        if in_conv:
            self.counts["convolution.x_evals"] += n

    def count(self, name: str, n: int):
        self.counts[name] += n

    # -- results --------------------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        """Per-layer figures; see the README for each one's definition."""
        def per_op(x):
            return x / n_ops

        def mean_ms(key, table):
            return 1e3 * table[key] / self.calls[key] if self.calls[key] else 0.0

        out = {}
        for name in ("core.materialize", "core.quadrature_weights",
                     "convolution.convolve", "multivariate.project_to_line"):
            out[f"{name}.calls"] = (per_op(self.calls[name]), "count")
        for name in ("core.materialize", "core.quadrature_weights", "convolution.convolve",
                     "convolution.covariance_criterion", "convolution.smooth_sequence",
                     "multivariate.project_to_line", "multivariate.weak_star_check",
                     "multivariate.halfspace_profile_nd"):
            out[f"{name}.self_ms"] = (1e3 * per_op(self.self_s[name]), "ms")
        for kind in ("analytic", "tabulated", "convolved"):
            key = ("certify.certify_blc", kind)
            out[f"certify.certify_blc.{kind}_ms"] = (mean_ms(key, self.incl_s), "ms")
        for kind in ("grid", "box", "tabulated"):
            key = ("convolution.convolve", kind)
            out[f"convolution.convolve.{kind}_ms"] = (mean_ms(key, self.self_s), "ms")
        iso = [f"isoperimetry.{f}" for f in ISOPERIMETRY]
        out["isoperimetry.calls"] = (per_op(sum(self.calls[k] for k in iso)), "count")
        out["isoperimetry.self_ms"] = (1e3 * per_op(sum(self.self_s[k] for k in iso)), "ms")
        out["certify.dpdf_points"] = (per_op(self.counts["certify.dpdf_points"]), "count")
        n_conv = self.calls["convolution.convolve"]
        out["convolution.x_evals"] = (
            self.counts["convolution.x_evals"] / n_conv if n_conv else 0.0, "count")
        for sub in CLI_SUBCOMMANDS:
            out[f"cli.main.{sub}_ms"] = (mean_ms(("cli.main", sub), self.incl_s), "ms")
        n_main = self.calls["cli.main"]
        out["cli.emit_bytes"] = (self.counts["cli.emit_bytes"] / n_main if n_main else 0.0,
                                 "bytes")
        return out

    def dump(self, path):
        """Write the spans (times in microseconds from the first span)."""
        base = self.spans[0][4] if self.spans else 0.0
        rows = [[op, parent, name, tag, round((t0 - base) * 1e6, 1), round((t1 - t0) * 1e6, 1)]
                for op, parent, name, tag, t0, t1 in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "parent", "name", "tag", "start_us", "dur_us"],
                       "truncated": len(self.spans) >= MAX_SPANS, "spans": rows}, fh)
        print(f"trace: {len(rows)} spans written to {path}", file=sys.stderr)
