"""Dynamical-decoupling sequence timing and spectral filter functions.

A CPMG / XY8-style sequence with N equally spaced pi pulses behaves, with
respect to the microwave phase, like a comb filter: phase fluctuations of
the drive at the sequence passband (and its odd harmonics) accumulate into
the final readout phase while slow drift is rejected to high order.  The
squared magnitude of that transfer function is

    F(f) = | 1 + (-1)^(N+1) * e^(i 2 pi f T)
             + 2 * sum_{j=1..N} (-1)^j e^(i ((j - 1/2)/N) 2 pi f T) * g(f) |^2

with T the total interrogation time and g(f) = cos(pi f t_pi) the
finite-pulse-width correction (g = 1 for delta pulses).  F(0) = 0, the
first passband sits at N/(2T) and peaks at 4 N^2 for delta pulses.

The inner sum is geometric, and its phases cancel against those of the
boundary terms, so F has a real closed form.  With z = 2 pi f T,

    F(f) = 4 (g r - h)^2,    r = h / cos(z / (2N)),

where h = sin(z/2) for even N and h = cos(z/2) for odd N: three real trig
calls per frequency.  At the passband harmonics, where cos(z / (2N)) = 0,
r takes its analytic limit

    even N:  r = -N cos(z/2) / sin(z / (2N))
    odd N:   r =  N sin(z/2) / sin(z / (2N))

(|r| = N there).  Integrals use a trapezoid rule on a frequency lattice
anchored at integer multiples of a fixed step (1 / (tau_tot * oversample)).
The lattice both resolves every oscillation of F (period 1/tau_tot) and
makes integrals exactly additive over adjacent intervals, because the
integrand is the piecewise-linear interpolant on a grid that does not
depend on the query interval.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import FrequencyHz, TimeSeconds


class SequenceKind(enum.Enum):
    XY8 = "xy8"
    CPMG = "cpmg"


@dataclass(frozen=True)
class PulseSequence:
    """Timing of an N-pulse decoupling sequence.

    tau is the half-spacing: pulse centers are separated by 2*tau + t_pi and
    the first center sits tau + t_pi/2 after the initial pi/2 pulse, so the
    total interrogation time is tau_tot = n_pi * (2*tau + t_pi).  t_dead is
    the per-sequence overhead (readout, initialization) between repetitions.
    """

    kind: SequenceKind
    n_pi: int
    tau: TimeSeconds
    t_pi: TimeSeconds = 0.0
    t_dead: TimeSeconds = 0.0

    def __post_init__(self) -> None:
        if self.n_pi < 1:
            raise ValueError("n_pi must be at least 1")
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not (0 <= self.t_pi < math.inf and 0 <= self.t_dead < math.inf):
            raise ValueError("t_pi and t_dead must be nonnegative and finite")
        if self.kind is SequenceKind.XY8 and self.n_pi % 8 != 0:
            raise ValueError("an XY8 sequence needs a multiple of 8 pi pulses")

    @property
    def n_repeats(self) -> int:
        """Number of 8-pulse blocks (XY8 only; 0 for a bare CPMG train)."""
        return self.n_pi // 8 if self.kind is SequenceKind.XY8 else 0

    @property
    def tau_tot(self) -> TimeSeconds:
        return self.n_pi * (2.0 * self.tau + self.t_pi)

    @property
    def f_center(self) -> FrequencyHz:
        """Passband center n_pi / (2 tau_tot) = 1 / (2 (2 tau + t_pi))."""
        return 1.0 / (2.0 * (2.0 * self.tau + self.t_pi))

    @property
    def f_samp(self) -> FrequencyHz:
        """Sequence repetition rate 1 / (tau_tot + t_dead)."""
        return 1.0 / (self.tau_tot + self.t_dead)

    @property
    def duty(self) -> float:
        """Interrogation duty cycle tau_tot / (tau_tot + t_dead)."""
        return self.tau_tot / (self.tau_tot + self.t_dead)

    def pulse_times(self) -> np.ndarray:
        """Centers of the pi pulses, measured from the initial pi/2 pulse."""
        period = 2.0 * self.tau + self.t_pi
        return (np.arange(self.n_pi) + 0.5) * period


def make_xy8(
    n_repeats: int,
    f_xy8: FrequencyHz,
    t_pi: TimeSeconds = 0.0,
    t_dead: TimeSeconds = 0.0,
) -> PulseSequence:
    """XY8-n sequence tuned so the passband center lands on ``f_xy8``.

    The pulse spacing follows from 2*tau + t_pi = 1/(2 f_xy8); rejects
    combinations where the pi pulse does not fit in the spacing.
    """
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    if not 0 < f_xy8 < math.inf:
        raise ValueError("f_xy8 must be positive and finite")
    period = 1.0 / (2.0 * f_xy8)
    if t_pi >= period:
        raise ValueError("t_pi too long for the requested passband center")
    tau = 0.5 * (period - t_pi)
    return PulseSequence(SequenceKind.XY8, 8 * n_repeats, tau, t_pi, t_dead)


def make_xy8_fixed_duration(
    n_repeats: int,
    tau_tot: TimeSeconds,
    t_pi: TimeSeconds = 0.0,
    t_dead: TimeSeconds = 0.0,
) -> PulseSequence:
    """XY8-n sequence with prescribed total interrogation time."""
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    if not 0 < tau_tot < math.inf:
        raise ValueError("tau_tot must be positive and finite")
    n_pi = 8 * n_repeats
    period = tau_tot / n_pi
    if t_pi >= period:
        raise ValueError("t_pi too long for the requested tau_tot")
    tau = 0.5 * (period - t_pi)
    return PulseSequence(SequenceKind.XY8, n_pi, tau, t_pi, t_dead)


def make_cpmg(
    n_pi: int,
    f_center: FrequencyHz,
    t_pi: TimeSeconds = 0.0,
    t_dead: TimeSeconds = 0.0,
) -> PulseSequence:
    """CPMG train of ``n_pi`` pulses with passband center ``f_center``."""
    if n_pi < 1:
        raise ValueError("n_pi must be at least 1")
    if not 0 < f_center < math.inf:
        raise ValueError("f_center must be positive and finite")
    period = 1.0 / (2.0 * f_center)
    if t_pi >= period:
        raise ValueError("t_pi too long for the requested passband center")
    tau = 0.5 * (period - t_pi)
    return PulseSequence(SequenceKind.CPMG, n_pi, tau, t_pi, t_dead)


@dataclass(frozen=True)
class FilterFunction:
    """Phase-noise filter function of a decoupling sequence."""

    sequence: PulseSequence
    finite_pulse_correction: bool = True

    def __call__(self, f) -> np.ndarray:
        return filter_function_value(self, f)


def filter_function_value(ff: FilterFunction, f) -> np.ndarray:
    """Evaluate F(f); accepts a scalar or array of frequencies in Hz.

    Uses the real closed form of the module docstring, exact and O(1) per
    frequency for any pulse count: with z = 2 pi f tau_tot and
    g = cos(pi f t_pi) (g = 1 for delta pulses or t_pi = 0),

        F = 4 (g r - h)^2,    r = h / cos(z / (2N)),

    where h = sin(z/2) for even N and cos(z/2) for odd N.  Where
    |cos(z / (2N))| < 1e-9 (the passband harmonics) r takes its analytic
    limit, -N cos(z/2) / sin(z/(2N)) for even N and N sin(z/2) / sin(z/(2N))
    for odd N, computed on those frequencies only.
    """
    seq = ff.sequence
    n = seq.n_pi
    f_arr = np.asarray(f, dtype=float)
    if not np.all((f_arr >= 0) & (f_arr < math.inf)):
        raise ValueError("frequency must be nonnegative and finite")
    f_flat = f_arr.ravel()
    half_z = np.pi * f_flat * seq.tau_tot
    h = np.sin(half_z) if n % 2 == 0 else np.cos(half_z)
    den = np.cos(half_z / n)
    pole = np.flatnonzero(np.abs(den) < 1e-9)
    den[pole] = 1.0
    r = np.divide(h, den, out=den)
    half_zp = half_z[pole]
    r[pole] = n * (np.sin(half_zp) if n % 2 else -np.cos(half_zp)) / np.sin(half_zp / n)
    if ff.finite_pulse_correction and seq.t_pi > 0:
        r *= np.cos(np.pi * f_flat * seq.t_pi)
    r -= h
    r *= r
    r *= 4.0
    return r.reshape(f_arr.shape) if f_arr.ndim else float(r[0])


def _lattice_points(step: float, f_lo: float, f_hi: float) -> tuple[int, np.ndarray]:
    """(k0, points): the integer multiples k*step, k = k0, k0 + 1, ...,
    bracketing [f_lo, f_hi] from both sides, at least two of them."""
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        raise ValueError("integration bounds must be finite")
    k_lo = math.floor(f_lo / step)
    k_hi = math.ceil(f_hi / step)
    k0 = max(k_lo, 0)
    return k0, np.arange(k0, max(k_hi, k_lo + 1) + 1) * step


def _interpolant_integral(
    values_fn, step: float, f_lo: float, f_hi: float | np.ndarray
) -> float | np.ndarray:
    """Integral from ``f_lo`` to ``f_hi`` of the piecewise-linear interpolant
    of ``values_fn`` sampled on the absolute lattice k*step; ``f_hi`` may be
    an array of upper bounds, each getting its own integral.

    Because the interpolant is defined on a lattice independent of the query
    interval, integrals are exactly additive over adjacent intervals.
    """
    f_hi = np.asarray(f_hi, dtype=float)
    k0, grid = _lattice_points(step, f_lo, float(np.max(f_hi)))
    vals = values_fn(grid)
    # Cumulative trapezoid along the lattice, then correct the partial end
    # panel of each query point using the same linear interpolant.
    inner = np.concatenate(([0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * step)))

    def cumulative(x: np.ndarray, last_panel) -> np.ndarray:
        idx = np.minimum(((x - grid[0]) // step).astype(int), last_panel)
        x0 = grid[idx]
        frac = (x - x0) / step
        v0 = vals[idx]
        v1 = vals[idx + 1]
        vx = v0 + (v1 - v0) * frac
        return np.where(x <= grid[0], 0.0, inner[idx] + 0.5 * (v0 + vx) * (x - x0))

    # Each upper bound is read off no later panel than the last one of the
    # lattice a scalar call up to that bound builds, so a bound on a lattice
    # point gives the same bits in an array as alone.
    last_hi = np.maximum(np.ceil(f_hi / step) - k0 - 1, 0).astype(int)
    result = cumulative(f_hi, last_hi) - cumulative(np.asarray(float(f_lo)), len(grid) - 2)
    return result if result.ndim else float(result)


def filter_function_integral(
    ff: FilterFunction,
    f_lo: FrequencyHz,
    f_hi: FrequencyHz | np.ndarray,
    oversample: int = 32,
) -> float | np.ndarray:
    """Band integral of the filter function in angular-frequency measure,
    i.e. the integral of F over [f_lo, f_hi] with d(omega) = 2 pi df.

    ``f_hi`` may be a scalar or an array of upper bounds; an array returns
    the integral from ``f_lo`` to each bound, from one pass over the
    lattice, bit-equal to one scalar call per bound.

    In this convention a delta-pulse sequence integrated over a band much
    wider than the passband gives (4 N + 2) * 2 pi * f_hi; with the
    finite-pulse correction on, (2 N + 2) * 2 pi * f_hi.

    The lattice step is 1 / (tau_tot * oversample), fine enough to resolve
    the 1/tau_tot oscillation of F, and results are exactly additive over
    adjacent intervals (same absolute lattice).
    """
    if f_lo < 0 or np.any(np.asarray(f_hi) < f_lo):
        raise ValueError("need 0 <= f_lo <= f_hi")
    if oversample < 2:
        raise ValueError("oversample must be at least 2")
    step = 1.0 / (ff.sequence.tau_tot * oversample)
    value = _interpolant_integral(lambda g: filter_function_value(ff, g), step, f_lo, f_hi)
    return 2.0 * math.pi * value


def band_integral_weighted(
    ff: FilterFunction,
    weight_fn,
    f_lo: FrequencyHz,
    f_hi: FrequencyHz,
    oversample: int = 32,
) -> float:
    """Integral of weight(f) * F(f) df over [f_lo, f_hi] (ordinary frequency
    measure, no 2 pi).  Shares the anchored lattice with
    :func:`filter_function_integral`."""
    if f_lo < 0 or f_hi < f_lo:
        raise ValueError("need 0 <= f_lo <= f_hi")
    step = 1.0 / (ff.sequence.tau_tot * oversample)

    def integrand(grid: np.ndarray) -> np.ndarray:
        return weight_fn(grid) * filter_function_value(ff, grid)

    return _interpolant_integral(integrand, step, f_lo, f_hi)
