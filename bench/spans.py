"""Span tracer around kdiff_lab's public functions.

While installed, every public module-level function that a kdiff_lab module
defines is replaced by one wrapper at every place a caller looks it up: the
attribute of each package module that holds it (``kdiff_lab.kdiff.sample_t``
as well as ``kdiff_lab.schedule.sample_t``) and each entry of a module-level
dict, such as the CLI's command table.  The wrapper records a span (name,
start, end, parent span) and, for a few functions, a count of the work the
call was given.  Spans stay in memory in flat arrays and are written out
once, at the end of the run.

Span names are the defining module without the package prefix plus the
function name, as in ``kdiff.training_step``.  The benchmark adds spans of
its own around each task (``task.train``, ...).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "kdiff_lab"

# unit of each per-layer statistic, by the last dotted part of the metric name
STAT_UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "p50_us": "us",
    "p99_us": "us",
    "rows": "count",
    "samples": "count",
    "bytes": "B",
    "flops_computed": "flop",
}


def _arg_getter(fn, name):
    """Read one named argument of a call to fn from (args, kwargs)."""
    pos = list(inspect.signature(fn).parameters).index(name)

    def get(args, kwargs):
        return args[pos] if pos < len(args) else kwargs[name]

    return get


def _training_step_flops(fn):
    net, x = _arg_getter(fn, "net"), _arg_getter(fn, "x")

    def count(args, kwargs, result):
        # computed, not measured: the dense matmuls of the forward pass and of
        # the weight gradient, 2 * batch * m * n flops each per weight matrix
        batch = np.shape(x(args, kwargs))[0]
        weights = [p for p in net(args, kwargs).params().values() if p.ndim == 2]
        return "flops_computed", sum(4 * batch * w.shape[0] * w.shape[1] for w in weights)

    return count


def _argument_count(arg, stat):
    def factory(fn):
        get = _arg_getter(fn, arg)
        return lambda args, kwargs, result: (stat, int(get(args, kwargs)))

    return factory


def _written_bytes(fn):
    path = _arg_getter(fn, "path")
    return lambda args, kwargs, result: ("bytes", os.path.getsize(path(args, kwargs)))


# span name -> factory(fn) of a counter(args, kwargs, result) -> (stat, amount)
COUNTERS = {
    "kdiff.training_step": _training_step_flops,
    "geometry.sample_data": _argument_count("batch", "rows"),
    "lindyn.monte_carlo_loss": _argument_count("n_samples", "samples"),
    "cli.write_csv": _written_bytes,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _package_functions():
    """Public functions defined in kdiff_lab modules, keyed by span name."""
    found = {}
    for module in _package_modules():
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__.startswith(PACKAGE + ".")
                and not value.__name__.startswith("_")
            ):
                short = value.__module__[len(PACKAGE) + 1 :]
                found[f"{short}.{value.__name__}"] = value
    return found


class Tracer:
    """Records spans and counts for kdiff_lab calls made while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._round_start = 0
        self._patches: list[tuple[object, str, object]] = []
        functions = _package_functions()
        self.functions = frozenset(functions)
        self._wrappers = {fn: self._wrap(name, fn) for name, fn in functions.items()}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._id(name)
        counter = COUNTERS[name](fn) if name in COUNTERS else None
        counts = self._counts

        def wrapper(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                stat, amount = counter(args, kwargs, result)
                counts[f"{name}.{stat}"] += amount
            return result

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def span(self, name: str):
        """A span of the benchmark's own, such as one task."""
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def install(self) -> None:
        """Swap every lookup site of a package function for its wrapper."""
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrappers[value])
                elif isinstance(value, dict) and attr != "__builtins__":
                    for key, entry in value.items():
                        if inspect.isfunction(entry) and entry in self._wrappers:
                            self._patches.append((value, key, entry))
                            value[key] = self._wrappers[entry]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patches.clear()

    def _arrays(self, lo: int, hi: int):
        name = np.frombuffer(self._name[lo:hi], dtype=np.int32)
        parent = np.frombuffer(self._parent[lo:hi], dtype=np.int64)
        start = np.frombuffer(self._start[lo:hi], dtype=np.float64)
        end = np.frombuffer(self._end[lo:hi], dtype=np.float64)
        return name, parent, start, end

    def take_round(self) -> dict[str, float]:
        """Totals per span name over the spans since the last call.

        Keys are ``<span>.calls``, ``<span>.s`` (time inside the span),
        ``<span>.self_s`` (that time minus the time its child spans cover)
        and ``<span>.<stat>`` for the counters.
        """
        lo, hi = self._round_start, len(self._start)
        self._round_start = hi
        name, parent, start, end = self._arrays(lo, hi)
        duration = end - start
        covered = np.zeros(hi - lo)
        inside = parent >= lo
        np.add.at(covered, parent[inside] - lo, duration[inside])
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=duration, minlength=n)
        own = np.bincount(name, weights=duration - covered, minlength=n)
        out = dict(self._counts)
        self._counts.clear()
        for i, span_name in enumerate(self.names):
            out[f"{span_name}.calls"] = int(calls[i])
            out[f"{span_name}.s"] = float(total[i])
            out[f"{span_name}.self_s"] = float(own[i])
        return out

    def percentile_us(self, span_name: str, q: float) -> float:
        """Percentile of one span's durations over every span recorded, in microseconds."""
        name, _, start, end = self._arrays(0, len(self._start))
        durations = (end - start)[name == self._ids.get(span_name, -1)]
        return float(np.percentile(durations, q) * 1e6) if durations.size else 0.0

    def write(self, path: Path) -> None:
        """Write every span: name index, parent span index (-1 for none), start, end."""
        name, parent, start, end = self._arrays(0, len(self._start))
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)
