"""Span tracer that wraps the public functions of the gencube modules.

Spans are recorded by the benchmark around calls into each layer; nothing in
the package itself is instrumented.  Every span keeps its name, start, end and
the index of the span that was open when it started (its parent).  Self time
is a span's duration minus the durations of its direct children.

Callers inside the package import by name (``from .separability import
cube_separable``), so wrapping a function means rebinding it in every module
that holds a reference to it, not only in the module that defines it.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager

LAYERS = ("pauli", "spaces", "gates", "lp", "separability", "thresholds",
          "constructions", "simulator", "dense", "cli")

# scipy's HiGHS entry point as bound inside gencube.lp
HIGHS_SPAN = "lp.highs"


class Tracer:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self._stack.pop()

    def records(self):
        """Spans as (name, start, end, parent) tuples."""
        return list(zip(self.names, self.starts, self.ends, self.parents))


def self_times(spans) -> list[float]:
    """Self time of each (name, start, end, parent) span.

    A parent index of -1 marks a root.  Children are direct children only, so
    a grandchild's time is subtracted once, from its own parent.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def _wrap(tracer: Tracer, name: str, fn, observe=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(tracer.counters, args, kwargs, result)
        return result

    return traced


def public_functions(module):
    """Functions a module defines itself whose names do not start with '_'."""
    return {
        attr: obj for attr, obj in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


@contextmanager
def installed(tracer: Tracer, package: str = "gencube", observers=None):
    """Wrap every public layer function (plus HiGHS) for the duration.

    ``observers`` maps a span name to ``fn(counters, args, kwargs, result)``,
    called after the wrapped function returns, for counts that need the
    arguments or the result.
    """
    observers = observers or {}
    pkg = importlib.import_module(package)
    modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, fn in public_functions(mod).items():
            name = f"{layer}.{attr}"
            wrappers[id(fn)] = (fn, _wrap(tracer, name, fn, observers.get(name)))
    lp = importlib.import_module(f"{package}.lp")
    wrappers[id(lp.linprog)] = (lp.linprog, _wrap(tracer, HIGHS_SPAN, lp.linprog))

    patched = []
    for mod in [pkg, *modules]:
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                patched.append((mod, attr, obj))
                setattr(mod, attr, hit[1])
    try:
        yield tracer
    finally:
        for mod, attr, obj in patched:
            setattr(mod, attr, obj)
