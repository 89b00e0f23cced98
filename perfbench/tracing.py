"""In-memory spans around calls into the stochgeo layers.

The tracer replaces public functions of the library's modules (and a few
methods that run once per trial or per quadrature node) with thin wrappers
that record a span: id, parent id, name, start and end in nanoseconds. The
wrappers are installed from outside, on the module and class objects, and are
rebound in every module namespace that imported the function by name, so
calls between layers are traced too. Nothing in the program files changes.

Two private helpers of `coverage` are wrapped as well, so that a traced
`simulate_coverage` is the library's own trial loop with a span around each
trial's generator set-up and each trial's scoring; `_count_chunk` looks both
up as module globals at call time.

Spans opened inside pool worker processes stay in those processes; a pooled
simulation shows up as the parent's own time in `simulate_coverage`.
"""

from __future__ import annotations

import functools
import statistics
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("pointprocess", "coverage", "bounds", "analytics", "io", "cli")

# Methods traced besides module-level public functions: the per-trial
# deployment draw and the pair density evaluated on every quadrature node.
METHODS = {
    "pointprocess": {"PppSource": ("points_for_trial",),
                     "MhcSource": ("points_for_trial",),
                     "FixedSource": ("points_for_trial",)},
    "analytics": {"SecondOrderDensity": ("__call__",)},
}
# Private module functions traced besides the public ones.
PRIVATE = {"coverage": ("_trial_rng", "_eval_trial_sinr")}


class Tracer:
    """Collects spans while installed; `enabled` pauses recording."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start_ns, end_ns]
        self.counts: Counter = Counter()
        self.enabled = True
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.hooks: dict[str, object] = {}

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter_ns()
        return rec

    def end(self, rec: list) -> None:
        rec[4] = time.perf_counter_ns()
        self._stack.pop()

    # -- wrappers around library calls -------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(out, args, kwargs)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        import concurrent.futures

        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, value in vars(mod).items():
                if (attr.startswith("_") and attr not in PRIVATE.get(layer, ())
                        or not isinstance(value, types.FunctionType)
                        or value.__module__ != mod.__name__):
                    continue
                wrapped[id(value)] = self._wrap(f"{layer}.{attr}", value)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if isinstance(fn, types.FunctionType):
                        self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and isinstance(value, types.FunctionType):
                    self._set(mod, attr, wrapped[id(value)])

        # count process-pool starts wherever a layer binds the executor class
        base = concurrent.futures.ProcessPoolExecutor
        tracer = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.counts["pool_starts"] += 1
                super().__init__(*args, **kwargs)

        for mod in modules:
            if vars(mod).get("ProcessPoolExecutor") is base:
                self._set(mod, "ProcessPoolExecutor", CountingPool)

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------
    def _matching(self, name: str, parent_name: str | None):
        for span in self.spans:
            parent = span[1]
            if span[2] == name and (parent_name is None or (
                    parent >= 0 and self.spans[parent][2] == parent_name)):
                yield span

    def durations_us(self, name: str, parent_name: str | None = None) -> list[float]:
        """Span durations in microseconds, optionally only under a parent name."""
        return [(t1 - t0) / 1e3 for _, _, _, t0, t1 in self._matching(name, parent_name)]

    def self_times_ns(self, excluded=()) -> list[int]:
        """Per span: duration minus the time covered by its direct children
        and by the `excluded` (start_ns, end_ns) intervals that fall in it
        and in none of its children (a signal handler's runs, say)."""
        child = [0] * len(self.spans)
        for sid, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        if excluded and self.spans:
            starts = np.array([span[3] for span in self.spans])
            ends = np.array([span[4] for span in self.spans])
            for a, b in excluded:
                inside = (starts <= a) & (ends >= b)
                if inside.any():
                    # nested spans: the innermost one containing it starts last
                    child[int(np.argmax(np.where(inside, starts, -1)))] += b - a
        return [(t1 - t0) - child[sid] for sid, _, _, t0, t1 in self.spans]

    def self_us_of(self, name: str, parent_name: str | None = None) -> list[float]:
        """Span self times in microseconds, optionally only under a parent name."""
        selfs = self.self_times_ns()
        return [selfs[span[0]] / 1e3 for span in self._matching(name, parent_name)]

    def summary(self, excluded=()) -> dict:
        """Calls, total and self milliseconds per span name and per layer;
        self times leave out the `excluded` intervals (see self_times_ns)."""
        selfs = self.self_times_ns(excluded)
        by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ms": 0.0,
                                                        "self_ms": 0.0})
        by_layer: dict[str, float] = defaultdict(float)
        for (sid, _, name, t0, t1), own in zip(self.spans, selfs):
            entry = by_name[name]
            entry["calls"] += 1
            entry["total_ms"] += (t1 - t0) / 1e6
            entry["self_ms"] += own / 1e6
            by_layer[name.split(".", 1)[0]] += own / 1e6
        return {"by_name": dict(sorted(by_name.items())), "self_ms_by_layer": dict(by_layer)}


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")
