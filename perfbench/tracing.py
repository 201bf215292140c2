"""Spans around the package's layers, installed from outside.

``Tracer.install`` replaces module-level functions of ``squarespan`` by
wrappers that time each call as a span.  Every binding of a function is
replaced, including the copies other modules import (``beam`` calls the
sweeps it imports from ``extension``, every module imports
``centered_key``), so a call is seen whichever module makes it.  Spans
nest on a stack: a span's self time is its duration minus the time of
the spans opened inside it.  Spans are folded into per-name totals as
they close (calls, time, child time); the stack holds only open spans.
``uninstall`` restores the originals.
"""

from __future__ import annotations

import sys
from time import perf_counter

# Span name -> (module, function) pairs timed under that name.
SPANS = {
    "similarity.centered_key": [("similarity", "centered_key")],
    "similarity.key_to_pointset": [("similarity", "key_to_pointset")],
    "extension.sweep": [("extension", "_rit_candidates"),
                        ("extension", "_square_candidates")],
    "extension.root_degrees": [("extension", "root_degrees")],
    "extension.enumerate": [("extension", "enumerate_classes")],
    "beam.expand": [("beam", "_expand_beam_chunk")],
    "beam.finalize": [("beam", "_finalize")],
    "beam.rebuild": [("beam", "_rebuild_pool")],
    "realize.solve": [("realize", "solve_space"), ("realize", "solve_gauged")],
    "realize.degenerate_scan": [("realize", "degenerate_pairs")],
    "realize.forced_scan": [("realize", "forced_squares")],
    "realize.witness_sweep": [("realize", "rationalize")],
    "bounds.ilp_build": [("bounds", "ilp_constraints"),
                         ("bounds", "ilp_variables")],
    "bounds.ilp_export": [("bounds", "ilp_export")],
    "bounds.ilp_check": [("bounds", "ilp_assignment_from_pointset")],
    "bounds.closure": [("extension", "is_1ext_obtainable")],
    "geometry.count": [("geometry", "count_squares"),
                       ("geometry", "count_rit"),
                       ("geometry", "count_axis_parallel_squares"),
                       ("geometry", "srit_minus_3sq")],
    "geometry.squares_of": [("geometry", "squares_of")],
    "corpus.verify": [("corpus", "verify_corpus")],
}

# Functions only counted, not timed: called too often for a span to be
# worth its cost.
COUNTERS = {"realize.forms": ("realize", "_form_on_space")}


class Tracer:
    """Per-name span totals and event counts of one traced run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.child: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []
        self.n_max = None  # n_max of the enumeration in progress

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        stack = self._stack
        calls, total, child = self.calls, self.total, self.child
        calls.setdefault(name, 0)
        total.setdefault(name, 0.0)
        child.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dt
                child[name] += inner[0]
                if stack:
                    stack[-1][0] += dt
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    # -- hooks -------------------------------------------------------------

    def _sweep_children(self, args, kwargs, out):
        size = len(out[0]) + len(out[1]) if isinstance(out, tuple) else len(out)
        self.count("extension.children", size)

    def _enumerate(self, fn):
        def wrapper(mode, n_max, *args, **kwargs):
            self.n_max = n_max
            try:
                return fn(mode, n_max, *args, **kwargs)
            finally:
                self.n_max = None
        return wrapper

    def _key_hook(self, args, kwargs, out):
        if self.n_max is not None:
            self.count("extension.keys")
            if len(args[0]) > self.n_max:
                self.count("extension.keys_past_nmax")

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every squarespan binding of ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "squarespan" and not mod_name.startswith("squarespan."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        import squarespan  # noqa: F401  (all submodules load with it)
        for name, targets in SPANS.items():
            hook = {"extension.sweep": self._sweep_children,
                    "similarity.centered_key": self._key_hook}.get(name)
            for module_name, attr in targets:
                fn = getattr(sys.modules[f"squarespan.{module_name}"], attr)
                wrapper = self._span(name, fn, hook)
                if name == "extension.enumerate":
                    wrapper = self._enumerate(wrapper)
                self._replace(fn, wrapper)
        for name, (module_name, attr) in COUNTERS.items():
            fn = getattr(sys.modules[f"squarespan.{module_name}"], attr)
            self._replace(fn, self._counter(name, fn))

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._patched):
            setattr(mod, name, value)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def self_time(self, name: str) -> float:
        return self.total.get(name, 0.0) - self.child.get(name, 0.0)
