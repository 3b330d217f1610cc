"""In-memory span tracer for the pathwise modules.

``Tracer.instrument`` wraps the public functions of each ``pathwise``
module from the outside: it rebinds every reference that a module of the
package holds to the original function, so calls between modules are seen
too.  The engine's source is not edited.  Each call records a span
``[name, start, end, parent]``; spans stay in memory until ``summary`` is
taken at the end of the pass.  A span's self time is its duration minus
the durations of its direct child spans.

Some boundaries also feed counters (samples generated, local-time pairs,
worst exact-identity residual).  The counting code runs inside a span of
its own, ``trace.observe``, so its cost is not charged to the caller's
self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "pathwise"
# The modules whose public functions are traced; span names are
# "<module>.<function>" with a leading underscore dropped ("pool.parallel_map").
MODULES = (
    "paths", "partitions", "variation", "localtime", "integrate",
    "tanaka", "ranks", "acceptance", "cli", "_pool",
)

OBSERVE_SPAN = "trace.observe"


def _count_samples(tracer, path, args):
    tracer.add("paths.samples", path.values.size)


def _count_field_pairs(tracer, field, args):
    """Work of the dense local-time field: it evaluates every (interval,
    cell) pair of every level, while only the cells whose centres lie in an
    interval's (min, max] bracket can be non-zero."""
    path, grid = args["path"], args["grid"]
    centers = grid.centers
    for lev in args["hierarchy"].levels:
        a = path.values[lev[:-1]]
        b = path.values[lev[1:]]
        touched = np.searchsorted(centers, np.maximum(a, b), side="right") - np.searchsorted(
            centers, np.minimum(a, b), side="right"
        )
        tracer.add("localtime.dense_pairs", a.size * grid.cells)
        tracer.add("localtime.touched_pairs", int(touched.sum()))
        # computed, not measured: one float64 (intervals x cells) tensor
        tracer.maximum("localtime.dense_bytes", a.size * grid.cells * 8)


def _exact_residuals(tracer, result, args):
    """Worst relative residual of the exact-per-level identity classes."""
    if isinstance(result, float):  # finite_n_identity returns it directly
        tracer.maximum("tanaka.exact_residual_max", result)
        return
    reports = result if isinstance(result, list) else [result]
    for rep in reports:
        if getattr(rep, "exactness", None) == "exact-per-level" and rep.lhs.size:
            scale = np.maximum(1.0, np.maximum(np.abs(rep.lhs), np.abs(rep.rhs)))
            tracer.maximum("tanaka.exact_residual_max", float(np.max(np.abs(rep.lhs - rep.rhs) / scale)))


OBSERVERS = {
    "paths.generate": _count_samples,
    "localtime.discrete_local_time": _count_field_pairs,
    "tanaka.finite_n_identity": _exact_residuals,
    "tanaka.finite_n_report": _exact_residuals,
    "tanaka.tanaka_meyer_report": _exact_residuals,
    "tanaka.identity_suite": _exact_residuals,
    "tanaka.scaling_check": _exact_residuals,
    "tanaka.occupation_check": _exact_residuals,
}

COUNTERS = (
    "paths.samples",
    "localtime.dense_pairs",
    "localtime.touched_pairs",
    "localtime.dense_bytes",
    "tanaka.exact_residual_max",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.names = []  # every wrapped span name, called or not
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []

    def add(self, name, value):
        self.counters[name] += value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, 0.0, None, self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                oid = self._open(OBSERVE_SPAN)
                try:
                    observe(self, result, signature.bind(*args, **kwargs).arguments)
                finally:
                    self._close(oid)
            return result

        return traced

    def instrument(self) -> None:
        """Wrap the public functions of every module in MODULES."""
        wrapped = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[id(fn)] = (fn, self.wrap(f"{short.lstrip('_')}.{attr}", fn))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def summary(self) -> dict:
        """``<span>.calls`` and ``<span>.self_s`` for every wrapped name,
        the counters, ``localtime.touched_ratio`` and ``trace.spans``."""
        if self._stack:
            raise RuntimeError("summary taken while spans are open")
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for name in self.names + [OBSERVE_SPAN]:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, start, end, _), inner in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - inner
        out.update(self.counters)
        dense = self.counters["localtime.dense_pairs"]
        out["localtime.touched_ratio"] = self.counters["localtime.touched_pairs"] / dense if dense else 0.0
        out["trace.spans"] = len(self.spans)
        return out
