"""Span tracing of the package's layers from outside the package.

:func:`install` replaces every public function of the five library modules
(and ``cli.main``, ``PhaseNoiseSpectrum.l_at``) with a timing wrapper at
every module attribute that binds it, so calls made through ``from .x import
f`` bindings and through module globals are both seen.  Spans (name, start,
end, parent, job, counters) are kept in memory and written once when the
worker ends.  Counters marked "computed" below come from argument shapes;
``peak_alloc_mb`` comes from tracemalloc, which runs only while one of the
four array-heavy functions in MEMORY is on the stack.

The rest of cli (argument and INI parsing, sweep plumbing, CSV formatting)
is deliberately not wrapped: it is the self time of ``cli.main``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LIBRARY = ("pulse_sequences", "noise_models", "analytic_sensitivity", "spin_simulator",
           "signal_pipeline")
MEMORY = {"noise_models.synthesize_phase_track", "noise_models.sample_pulse_phases_batch",
          "spin_simulator.psd_sigma_phi_grid", "signal_pipeline.amplitude_spectrum"}


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _psd_outer_bytes(args, kwargs, result):
    # psd_sigma_phi_grid forms exp(2j pi outer(freqs, sample_times)): the
    # track spans 8 tau_tot at dt = 1/(2 f_cutoff); rfft bins minus DC.
    process, seq = _arg(args, kwargs, 0, "process"), _arg(args, kwargs, 1, "seq")
    n = round(8.0 * seq.tau_tot * 2.0 * process.f_cutoff)
    return {"outer_bytes": (n // 2) * (seq.n_pi + 2) * 16}


def _fft_points(args, kwargs, result):
    stream, interval = _arg(args, kwargs, 0, "stream"), _arg(args, kwargs, 1, "interval")
    n = round(interval * stream.f_samp)
    return {"fft_points": (stream.samples.size // n) * n}


# Computed counters per span name: fn(args, kwargs, result) -> {counter: value}.
COUNTERS = {
    "pulse_sequences.filter_function_value":
        lambda a, k, r: {"points": np.size(_arg(a, k, 1, "f"))},
    "pulse_sequences.band_integral_weighted":
        lambda a, k, r: {"lattice_points": (_arg(a, k, 3, "f_hi") - _arg(a, k, 2, "f_lo"))
                         * _arg(a, k, 0, "ff").sequence.tau_tot
                         * _arg(a, k, 4, "oversample", 32)},
    "noise_models.PhaseNoiseSpectrum.l_at":
        lambda a, k, r: {"points": np.size(_arg(a, k, 1, "f"))},
    "noise_models.synthesize_phase_track":
        lambda a, k, r: {"samples": round(_arg(a, k, 1, "duration") / _arg(a, k, 2, "dt"))
                         * _arg(a, k, 5, "n_tracks", 1)},
    "noise_models.sample_pulse_phases_batch":
        lambda a, k, r: {"bytes_out": _arg(a, k, 2, "n_realizations")
                         * np.size(_arg(a, k, 1, "pulse_times")) * 8},
    "spin_simulator.monte_carlo_sigma_phi":
        lambda a, k, r: {"realizations": _arg(a, k, 2, "n_realizations")},
    "spin_simulator.phi_tot_batch":
        lambda a, k, r: {"sequences": _arg(a, k, 2, "n_realizations")},
    "spin_simulator.psd_sigma_phi_grid": _psd_outer_bytes,
    "signal_pipeline.synthesize_stream":
        lambda a, k, r: {"sequences": round(_arg(a, k, 5, "duration")
                                            * _arg(a, k, 0, "seq").f_samp)},
    "signal_pipeline.amplitude_spectrum": _fft_points,
    "signal_pipeline.estimate_noise_floor": lambda a, k, r: {"spike_bins": len(r[1])},
    "cli.main": lambda a, k, r: {"failed": int(r != 0)},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job, counters]
        self.stack: list[int] = []
        self.job = -1
        self.enabled = False
        self._mem: list[list[int]] = []  # [baseline, running peak] per open memory span

    def add(self, counter: str, value: float) -> None:
        """Add to a counter of the innermost open span."""
        if self.enabled and self.stack:
            span = self.spans[self.stack[-1]]
            span[5] = span[5] or {}
            span[5][counter] = span[5].get(counter, 0) + value

    def _mem_enter(self) -> None:
        if self._mem:
            peak = tracemalloc.get_traced_memory()[1]
            for frame in self._mem:
                frame[1] = max(frame[1], peak)
        else:
            tracemalloc.start()
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        self._mem.append([current, current])

    def _mem_exit(self) -> float:
        peak = max(self._mem[-1][1], tracemalloc.get_traced_memory()[1])
        base = self._mem.pop()[0]
        for frame in self._mem:
            frame[1] = max(frame[1], peak)
        if self._mem:
            tracemalloc.reset_peak()
        else:
            tracemalloc.stop()
        return (peak - base) / 2**20

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name)
        mem = name in MEMORY
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            if mem:
                self._mem_enter()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                if mem:
                    peak_mb = self._mem_exit()
                stack.pop()
            found = counters(args, kwargs, result) if counters else {}
            if mem:
                found["peak_alloc_mb"] = peak_mb
            if found:
                span[5] = {**(span[5] or {}), **found}
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the traced functions everywhere they are bound."""
    import mwnoise.cli

    originals: dict[int, tuple[object, object]] = {}
    for short in LIBRARY:
        module = sys.modules[f"mwnoise.{short}"]
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                originals[id(obj)] = (obj, tracer.wrap(f"{short}.{attr}", obj))
    originals[id(mwnoise.cli.main)] = (mwnoise.cli.main, tracer.wrap("cli.main", mwnoise.cli.main))
    for modname, module in list(sys.modules.items()):
        if modname == "mwnoise" or modname.startswith("mwnoise."):
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    spectrum_cls = sys.modules["mwnoise.noise_models"].PhaseNoiseSpectrum
    spectrum_cls.l_at = tracer.wrap("noise_models.PhaseNoiseSpectrum.l_at", spectrum_cls.l_at)

    # Solver iterations of the calibration fit: count nfev where the
    # pipeline module binds least_squares, or on scipy itself if it is
    # imported lazily there.
    pipeline = sys.modules["mwnoise.signal_pipeline"]
    if hasattr(pipeline, "least_squares"):
        owner = pipeline
    else:
        import scipy.optimize as owner
    solve = owner.least_squares

    @functools.wraps(solve)
    def counted(*args, **kwargs):
        result = solve(*args, **kwargs)
        tracer.add("lm_nfev", result.nfev)
        return result

    owner.least_squares = counted


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-function calls, self time and counters, plus per-module self time.

    Self time is a span's duration minus the durations of its direct child
    spans.  Counters add up over calls, except ``peak_alloc_mb`` (maximum).
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _, counters) in enumerate(spans):
        self_s = (end - start) - child[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name.split('.', 1)[0]}.self_s"] += self_s
        for counter, value in (counters or {}).items():
            key = f"{name}.{counter}"
            out[key] = max(out[key], value) if counter == "peak_alloc_mb" else out[key] + value
    return dict(out)
