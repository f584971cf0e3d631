"""Spans around the public calls of each zmc layer, patched in from outside.

The benchmark never edits the package: `install` replaces a public function
or method with a wrapper that records a span, and it replaces every other
module-level name bound to the same object, so a name that `cli` or
`analysis` imported with `from .x import name` is wrapped too.  Spans stay
in memory while the benchmark runs; `per_pass` folds them into the
per-layer metrics and `dump` writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
import warnings
from collections import defaultdict

import numpy as np


def _points(args, kwargs, out):
    return {"points": int(np.size(args[1]))}


def _newton(args, kwargs, out):
    return {"nodes": int(np.size(args[1])), "unconverged": int(np.count_nonzero(~out[3]))}


def _collisions(args, kwargs, out):
    return {"collisions": len(out)}


def _bytes_written(args, kwargs, out):
    path = args[0].out
    return {"bytes_written": os.path.getsize(path) if out == 0 and os.path.exists(path) else 0}


# (module, attribute path, span name, counter); counters run after the span
# has ended, so their cost is not charged to the layer
LAYERS = (
    ("zmc.cli", "cmd_sample", "cli.cmd_sample", _bytes_written),
    ("zmc.cli", "cmd_graph", "cli.cmd_graph", None),
    ("zmc.cli", "cmd_classify", "cli.cmd_classify", None),
    ("zmc.surface", "SurfaceEvaluator.eval_batch", "surface.eval_batch", _points),
    ("zmc.surface", "OneFormUV.partials", "surface.partials", _points),
    ("zmc.surface", "integrate_oneform", "surface.integrate_oneform", None),
    ("zmc.analysis", "GraphInverter.newton_batch", "analysis.newton_batch", _newton),
    ("zmc.analysis", "GraphInverter.invert", "analysis.invert", None),
    ("zmc.analysis", "GraphInverter.invert_grid", "analysis.invert_grid", None),
    ("zmc.analysis", "graph_table", "analysis.graph_table", None),
    ("zmc.analysis", "injectivity_scan", "analysis.injectivity_scan", _collisions),
    ("zmc.analysis", "classify", "analysis.classify", None),
    ("zmc.weierstrass", "build", "weierstrass.build", None),
    ("zmc.weierstrass", "coefficients", "weierstrass.coefficients", None),
    ("zmc.polycheb", "partial_fractions", "polycheb.partial_fractions", None),
    ("zmc.gallery", "get_entry", "gallery.get_entry", None),
)

# which per-span counts each layer reports, besides its time and self time
_REPORTED_COUNTS = {
    "cli.cmd_sample": ("bytes_written",),
    "surface.eval_batch": ("calls", "points"),
    "surface.partials": ("calls", "points"),
    "surface.integrate_oneform": ("calls",),
    "analysis.newton_batch": ("calls", "nodes", "unconverged"),
    "analysis.invert": ("calls", "failed"),
    "analysis.injectivity_scan": ("collisions",),
    "weierstrass.build": ("calls",),
    "polycheb.partial_fractions": ("calls",),
}


def per_layer_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = []
    for _, _, span, _ in LAYERS:
        out += [(f"{span}.s", "s"), (f"{span}.self_s", "s")]
        for c in _REPORTED_COUNTS.get(span, ()):
            if c == "bytes_written":
                out.append(("cli.bytes_written", "bytes"))
            else:
                out.append((f"{span}.{c}", "count"))
    out += [("bench.op.s", "s"), ("bench.op.self_s", "s"), ("numpy.runtime_warnings", "count"),
            ("trace.items_per_s", "1/s"), ("trace.overhead_ratio", "ratio")]
    return out


class Tracer:
    """Span recorder.  Off by default; `operation` marks the benchmark
    operation that the next spans and warnings belong to."""

    def __init__(self):
        self.enabled = False
        self.op_id: int | None = None
        self.spans: list[tuple] = []  # (op_id, span_id, parent_id, name, start, end, counts)
        self.warnings: dict[int | None, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end, counts):
        self._stack.pop()
        self.spans.append((self.op_id, sid, parent, name, start, end, counts))

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span `bench.op` of one benchmark operation; the layer spans
        opened inside it share its op id."""
        self.op_id = op_id
        try:
            if not self.enabled:
                yield
                return
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                yield
            finally:
                self._close(sid, parent, "bench.op", start, time.perf_counter(), {})
        finally:
            self.op_id = None

    def wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent = tracer._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer._close(sid, parent, name, start, time.perf_counter(), {"failed": 1})
                raise
            end = time.perf_counter()
            tracer._close(sid, parent, name, start, end,
                          counter(args, kwargs, out) if counter else {})
            return out

        return wrapper

    def install(self):
        """Wrap every layer in LAYERS; the zmc modules must be imported."""
        mods = [m for k, m in list(sys.modules.items()) if k == "zmc" or k.startswith("zmc.")]
        for modname, path, name, counter in LAYERS:
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original, counter)
            setattr(owner, attr, wrapped)
            if outer:
                continue  # methods are looked up on the class
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is original:
                        setattr(m, k, wrapped)

    def count_warnings(self):
        """Count every RuntimeWarning against the current operation instead of
        printing it.  Installed for traced and untraced runs alike, so both
        pay the same per-warning cost."""
        warnings.simplefilter("always", RuntimeWarning)
        previous = warnings.showwarning

        def show(message, category, *args, **kwargs):
            if issubclass(category, RuntimeWarning):
                self.warnings[self.op_id] += 1
            else:
                previous(message, category, *args, **kwargs)

        warnings.showwarning = show

    def per_pass(self, op_names: dict[int, str]) -> dict[str, float]:
        """Per-layer totals for one pass over the workload's operations.

        op_names maps each traced op id to its operation name.  Each metric
        is summed per op run, averaged over the runs of the same operation
        and summed over operations, so a run that measured a partial last
        pass is not biased toward the operations it happened to repeat.
        """
        children = defaultdict(float)
        by_id = {}
        for span in self.spans:
            by_id[span[1]] = span
            if span[2] is not None:
                children[span[2]] += span[5] - span[4]
        per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for op_id, sid, parent, name, start, end, counts in self.spans:
            acc = per_op[op_id]
            dur = end - start
            # inclusive time counts only the outermost span of a name
            p, nested = parent, False
            while p is not None:
                if by_id[p][3] == name:
                    nested = True
                    break
                p = by_id[p][2]
            if not nested:
                acc[f"{name}.s"] += dur
            acc[f"{name}.self_s"] += dur - children[sid]
            acc[f"{name}.calls"] += 1
            for k, v in counts.items():
                key = "cli.bytes_written" if k == "bytes_written" else f"{name}.{k}"
                acc[key] += v
        for op_id in op_names:
            per_op[op_id]["numpy.runtime_warnings"] += self.warnings.get(op_id, 0)
        runs = defaultdict(list)
        for op_id, name in op_names.items():
            runs[name].append(per_op[op_id])
        total: dict[str, float] = defaultdict(float)
        for accs in runs.values():
            keys = set().union(*accs)
            for k in keys:
                total[k] += sum(a.get(k, 0.0) for a in accs) / len(accs)
        return dict(total)

    def dump(self, path: str, op_names: dict[int, str]):
        rows = [{"op_id": op, "op": op_names.get(op), "span": sid,
                 "parent": parent, "name": name,
                 "start": start, "end": end, **counts}
                for op, sid, parent, name, start, end, counts in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
