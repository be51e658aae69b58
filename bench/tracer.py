"""Spans around lossywave's public functions, installed from outside the package.

A module that does `from .laws import eval_alpha` holds its own binding of
the name, so a wrapper replaces the function under every name that refers
to it in every loaded lossywave module; otherwise its span would miss those
callers.  Functions handed to a solver (the integrand of
`integrate_decaying`, the function of `bisect_root`, the scanned function of
`scan_max`) are wrapped per call, which counts their evaluations.

Per-name totals are kept as the run goes; the spans of one pass stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _size(x):
    return int(np.size(x))


def _count_alpha(tracer, args, kwargs):
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    tracer.add("laws.eval_alpha.samples", _size(omega))
    tracer.add("laws.eval_alpha.scalar_calls", int(np.ndim(omega) == 0))
    return args, kwargs


def _count_omega(key, index):
    def hook(tracer, args, kwargs):
        tracer.add(key, _size(args[index] if len(args) > index else kwargs["omega"]))
        return args, kwargs
    return hook


def _wrap_solver_function(name, counter, per_sample):
    """Replace the solver's function argument by a span counting its calls or abscissae."""
    def hook(tracer, args, kwargs):
        fn = args[0]

        def count(_tracer, a, k):
            tracer.add(counter, _size(a[0]) if per_sample else 1)
            return a, k

        return (tracer.wrap(name, fn, count),) + args[1:], kwargs
    return hook


def _count_in_band_edge(tracer, args, kwargs):
    if any(frame.name == "spectrum.energy_band_edge" for frame in tracer.stack):
        tracer.add("spectrum.energy_band_edge.norms", 1)
    return args, kwargs


def _count_grid(tracer, args, kwargs):
    tracer.add("spectrum.sample_green_spectrum.samples", args[2].n)
    return args, kwargs


def _count_spectrum(tracer, args, kwargs):
    tracer.add("timedomain.synthesize_time_signal.samples", len(args[0].values))
    return args, kwargs


def _count_rows(tracer, args, kwargs):
    tracer.add("timedomain.write_signal_csv.rows", len(args[0].samples))
    return args, kwargs


# module -> public functions that get a span, with an optional argument hook
TRACED = {
    "laws": {"eval_alpha": _count_alpha, "alpha_difference": _count_omega("laws.alpha_difference.samples", 2),
             "load_preset": None, "builtin_preset": None, "derive_powerlaw_coeffs": None,
             "wavenumber": None, "phase_speed": None, "powerlaw_phase_singularity": None,
             "small_frequency_bound": None},
    "numerics": {"integrate_decaying": _wrap_solver_function("numerics.integrand", "numerics.integrand.samples", True),
                 "bisect_root": _wrap_solver_function("numerics.bisect_root.f", "numerics.bisect_root.evals", False),
                 "scan_max": _wrap_solver_function("numerics.scan_max.f", "numerics.scan_max.evals", False),
                 "complex_expm1": None, "erfcx": None},
    "spectrum": {"green_hat": None, "sample_green_spectrum": _count_grid, "truncate_spectrum": None,
                 "tail_cut_frequency": None, "spectral_l2_norm": _count_in_band_edge,
                 "relative_truncation_error": None, "log10_relative_truncation_error": None,
                 "relative_model_error": None, "energy_band_edge": None},
    "bounds": {"envelope_bound_constants": None, "verify_envelope": None, "bound_coefficient": None,
               "bound_decay_rate": None, "truncation_error_bound": None,
               "log10_truncation_error_bound": None, "envelope_split": None,
               "power_lower_envelope": None, "corrected_truncation_error_bound": None,
               "deviation_factor": _count_omega("bounds.deviation_factor.samples", 3),
               "model_error_report": None},
    "timedomain": {"synthesize_time_signal": _count_spectrum, "causality_energy_fraction": None,
                   "forward_point_source": None, "write_signal_csv": _count_rows},
}


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name, span_id):
        self.name, self.span_id, self.child_s = name, span_id, 0.0


class Tracer:
    """Collects calls, inclusive and self seconds and counters per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.stack = []
        self.spans = None   # list of (name, start, end, span_id, parent_id, op) while recording
        self.op = -1
        self._next_id = 0
        self._patched = []

    def add(self, key, amount):
        self.counters[key] += amount

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(tracer, args, kwargs)
            tracer._next_id += 1
            frame = _Frame(name, tracer._next_id)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child_s += duration
                tracer.calls[name] += 1
                tracer.inclusive[name] += duration
                tracer.self_s[name] += duration - frame.child_s
                if tracer.spans is not None:
                    tracer.spans.append((name, start, end, frame.span_id,
                                         parent.span_id if parent else 0, tracer.op))

        return wrapper

    def install(self):
        """Replace every binding of each traced function in the loaded lossywave modules."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "lossywave" or key.startswith("lossywave."))]
        for short, functions in TRACED.items():
            home = sys.modules[f"lossywave.{short}"]
            for fname, hook in functions.items():
                original = getattr(home, fname, None)
                if original is None:  # a function the package no longer has reports zeros
                    continue
                wrapper = self.wrap(f"{short}.{fname}", original, hook)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
