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
anchored at integer multiples of a fixed step, 1 / (oversample tau_tot) with
oversample = 32.
The lattice both resolves every oscillation of F (period 1/tau_tot) and
makes integrals exactly additive over adjacent intervals, because the
integrand is the piecewise-linear interpolant on a grid that does not
depend on the query interval.

The lattice is never built whole.  The quadrature walks it in blocks of
2^16 points, aligned to absolute multiples of the block size, so its memory
does not grow with the lattice (14.3 M points at XY8-512 up to 100 MHz).
Each block adds one pairwise sum of its values to a carry, and only a block
that holds an integration bound takes a cumulative sum, up to that bound:
the trapezoid rule is step times the sum of the values less half the two
end values.  Pairwise sums round with the logarithm of the length, not the
length, so the integral stays within a few ulps of the exactly rounded sum
of its lattice terms, and they cost a tenth of a running sum.  On the lattice
z/2 = pi k / oversample, so no trig call is needed per point: h repeats
every 2 oversample points and cos(z / (2N)) every 2 oversample N, so h is
evaluated over its own period, cos(z / (2N)) over half of its period (the
other half is its negation), and r and h are sliced from tables built
once per integral.  The pulse gain g = cos(pi f t_pi) = cos(a k) comes from
angle addition over k = 2^12 i + l: a table of the 2^12 fine turns a l per
integral, and two trig calls per 2^12 points for the coarse turns
2^12 a i.  The walk reads F / 4 and scales each integral by 4 once, which
is exact.  The tables share the division and pole-limit code with
:func:`filter_function_value`, which evaluates F at any other frequency.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import FrequencyHz, TimeSeconds, _keep_freed_heap


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


def _spaced(
    kind: SequenceKind, n_pi: int, period: TimeSeconds, t_pi: TimeSeconds, t_dead: TimeSeconds
) -> PulseSequence:
    """Sequence of ``n_pi`` pulses whose centers lie ``period`` = 2*tau + t_pi
    apart; rejects a pi pulse that does not fit in the spacing."""
    if t_pi >= period:
        raise ValueError("t_pi too long for the requested pulse spacing")
    return PulseSequence(kind, n_pi, 0.5 * (period - t_pi), t_pi, t_dead)


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
    if not 0 < f_xy8 < math.inf:
        raise ValueError("f_xy8 must be positive and finite")
    return _spaced(SequenceKind.XY8, 8 * n_repeats, 1.0 / (2.0 * f_xy8), t_pi, t_dead)


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
    return _spaced(SequenceKind.XY8, n_pi, tau_tot / n_pi, t_pi, t_dead)


def make_cpmg(
    n_pi: int,
    f_center: FrequencyHz,
    t_pi: TimeSeconds = 0.0,
    t_dead: TimeSeconds = 0.0,
) -> PulseSequence:
    """CPMG train of ``n_pi`` pulses with passband center ``f_center``."""
    if not 0 < f_center < math.inf:
        raise ValueError("f_center must be positive and finite")
    return _spaced(SequenceKind.CPMG, n_pi, 1.0 / (2.0 * f_center), t_pi, t_dead)


@dataclass(frozen=True)
class FilterFunction:
    """Phase-noise filter function of a decoupling sequence."""

    sequence: PulseSequence
    finite_pulse_correction: bool = True


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
    h = _h(half_z, n)
    r = _ratio(h, np.cos(half_z / n), half_z, n)
    if ff.finite_pulse_correction and seq.t_pi > 0:
        r *= np.cos(np.pi * f_flat * seq.t_pi)
    r -= h
    r *= r
    r *= 4.0
    return r.reshape(f_arr.shape) if f_arr.ndim else float(r[0])


def _h(half_z: np.ndarray, n: int) -> np.ndarray:
    """h at half_z = z/2: sin(z/2) for even N, cos(z/2) for odd N."""
    return np.sin(half_z) if n % 2 == 0 else np.cos(half_z)


def _ratio(h: np.ndarray, den: np.ndarray, half_z: np.ndarray, n: int) -> np.ndarray:
    """r = h / den, den = cos(z / (2N)) at half_z = z/2, taking its analytic
    limit where |den| < 1e-9, computed on those entries only.  Overwrites
    ``den``."""
    pole = np.flatnonzero(np.abs(den) < 1e-9)
    den[pole] = 1.0
    r = np.divide(h, den, out=den)
    half_zp = half_z[pole]
    r[pole] = n * (np.sin(half_zp) if n % 2 else -np.cos(half_zp)) / np.sin(half_zp / n)
    return r


# Lattice points per block of the quadrature: blocks start at absolute
# multiples of _BLOCK, so the integrand at a lattice point does not depend on
# the interval being integrated.
_BLOCK = 1 << 16

# Lattice points per 1/tau_tot, the period of F's oscillation.
_OVERSAMPLE = 32

# Fine turns per coarse turn of the pulse gain (see _gain_turns).
_TURN = 1 << 12


def _lattice_filter(ff: FilterFunction, n_points: int):
    """F / 4 on the lattice f_k = k / (oversample tau_tot), oversample =
    ``_OVERSAMPLE``, k < ``n_points``, as a function of (k_start, k_stop,
    out), a run of k inside one aligned block, written into the head of the
    buffer ``out`` and returned.

    At f_k, z/2 = pi k / oversample, so h repeats every 2 oversample points
    and cos(z / (2N)) every 2 oversample N.  h is evaluated over its own
    period and tiled; with M = oversample N, cos(z / (2N)) = cos(pi j / M)
    is (-1)^(j // M) sin(pi (M - 2 (j mod M)) / (2M)), evaluated for
    j < M and negated for the second half.  The sine's argument is exact up
    to one rounding next to its zeros, so r keeps its full relative
    precision beside the poles.  r and h are tiled past their period by at
    most one block, no further than the lattice, so every run is a single
    slice.  The pulse gain g = cos(a k), a = pi t_pi / (oversample tau_tot),
    comes from :func:`_gain_turns`.  The factor 4 of F is left to the caller:
    scaling by a power of two is exact, so it can be applied once to a sum.
    """
    seq = ff.sequence
    n = seq.n_pi
    oversample = _OVERSAMPLE
    m = oversample * n
    period = 2 * m
    length = min(n_points, period + _BLOCK)
    h = _tile(_h((np.pi / oversample) * np.arange(2 * oversample), n), length)
    j = np.arange(min(period, length))
    den = np.empty(j.size)
    half = min(m, j.size)
    np.sin((np.pi / (2 * m)) * (m - 2 * j[:half]), out=den[:half])
    np.negative(den[: j.size - half], out=den[half:])
    r = _tile(_ratio(h[: j.size], den, (np.pi / oversample) * j, n), length)
    gain = ff.finite_pulse_correction and seq.t_pi > 0
    if gain:
        turns = _gain_turns(np.pi * seq.t_pi / (oversample * seq.tau_tot), min(_BLOCK, n_points))

    def values(k_start: int, k_stop: int, out: np.ndarray) -> np.ndarray:
        out = out[: k_stop - k_start]
        at = slice(k_start % period, k_start % period + k_stop - k_start)
        if gain:
            np.multiply(turns(k_start, k_stop), r[at], out=out)
        else:
            out[:] = r[at]
        out -= h[at]
        out *= out
        return out

    return values


def _gain_turns(angle: float, size: int):
    """cos(angle k) as a function of (k_start, k_stop), a run of k inside
    one aligned block of at most ``size`` points, returned as a view of a
    buffer that the next call overwrites.

    With k = T i + l, l < T = 2^12, angle addition gives
    cos(angle k) = cos(T angle i) cos(angle l) - sin(T angle i) sin(angle l):
    T fine turns per call and two coarse turns per T points of a run, not
    one trig call per point.  Both float arguments round once, as angle k
    would, and each value depends on k alone, not on the run.
    """
    fine = angle * np.arange(_TURN)
    cos_fine, sin_fine = np.cos(fine), np.sin(fine)
    buf = np.empty((2, -(-size // _TURN), _TURN))

    def turns(k_start: int, k_stop: int) -> np.ndarray:
        i_start, i_stop = k_start // _TURN, -(-k_stop // _TURN)
        coarse = angle * (_TURN * np.arange(i_start, i_stop))
        g = np.multiply.outer(np.cos(coarse), cos_fine, out=buf[0, : i_stop - i_start])
        g -= np.multiply.outer(np.sin(coarse), sin_fine, out=buf[1, : i_stop - i_start])
        return g.ravel()[k_start - i_start * _TURN : k_stop - i_start * _TURN]

    return turns


def _tile(a: np.ndarray, length: int) -> np.ndarray:
    """``a`` repeated to ``length`` entries (cut short when shorter)."""
    return np.tile(a, -(-length // a.size))[:length]


def _lattice_integral(
    ff: FilterFunction, weight_fn, f_lo: float, f_hi: float | np.ndarray
) -> float | np.ndarray:
    """Integral from ``f_lo`` to ``f_hi`` of the piecewise-linear interpolant
    of weight_fn(f) * F(f) (F alone when ``weight_fn`` is None) sampled on
    the absolute lattice f_k = k * step, step = 1 / (_OVERSAMPLE tau_tot);
    ``f_hi`` may be an array of upper bounds, each getting its own integral.

    The lattice spans the integer multiples of step bracketing [f_lo,
    max(f_hi)], at least two points, k0 to k_end.  It is walked block by
    block, so memory does not grow with its length.  Each block adds the
    pairwise ``np.sum`` of its values to a carry; only a block that holds
    the panel (p, p + 1) of a bound also takes a cumulative sum, up to its
    last such panel.  The trapezoid sum from k0 to p is then
    step (S_p - (v_k0 + v_p) / 2), with S_p the carry before the block plus
    that cumulative sum at p.  Pairwise block sums round with log n rather
    than n, so the result stays within a few ulps of the exactly rounded sum
    of the lattice terms.  A block's sum does not depend on which bounds it
    holds, so an array of bounds gives the same bits as one call per bound.
    Because the interpolant is defined on a lattice independent of the query
    interval, integrals are exactly additive over adjacent intervals.  The
    tables and block buffers are freed on return and stay on the heap for
    the next call (:func:`~mwnoise.core._keep_freed_heap`).
    """
    _keep_freed_heap()
    f_hi = np.asarray(f_hi, dtype=float)
    if not (math.isfinite(f_lo) and np.all(np.isfinite(f_hi))):
        raise ValueError("integration bounds must be finite")
    step = 1.0 / (ff.sequence.tau_tot * _OVERSAMPLE)
    k_lo = math.floor(f_lo / step)
    k0 = max(k_lo, 0)
    k_end = max(math.ceil(float(np.max(f_hi, initial=f_lo)) / step), k_lo + 1)

    # Panel (k, k + 1) of each bound, f_lo last.  Each upper bound is read
    # off no later panel than the last one of the lattice a scalar call up to
    # that bound builds, so a bound on a lattice point gives the same bits in
    # an array as alone.
    x = np.append(f_hi, f_lo)
    last = np.append(np.maximum(np.ceil(f_hi / step) - k0 - 1, 0), k_end - k0 - 1)
    panel = k0 + np.clip((x - k0 * step) // step, 0, last).astype(int)
    total = np.empty_like(x)  # sum of the lattice values from k0 through panel
    v0 = np.empty_like(x)
    v1 = np.empty_like(x)

    filter_on = _lattice_filter(ff, k_end + 1)
    size = min(_BLOCK, k_end + 1 - k0)
    vals_buf = np.empty(size)
    if weight_fn is not None:
        offsets = np.arange(size, dtype=float)
        freqs_buf = np.empty(size)
    carry = 0.0
    k_start = k0
    while k_start <= k_end:
        k_stop = min((k_start // _BLOCK + 1) * _BLOCK, k_end + 1)
        vals = filter_on(k_start, k_stop, vals_buf)
        if weight_fn is not None:
            freqs = np.add(offsets[: vals.size], k_start, out=freqs_buf[: vals.size])
            freqs *= step
            vals *= weight_fn(freqs)
        if k_start == k0:
            first = vals[0]
        here = np.flatnonzero((panel >= k_start) & (panel < k_stop))
        if here.size:
            at = panel[here] - k_start
            total[here] = carry + np.cumsum(vals[: at.max() + 1])[at]
            v0[here] = vals[at]
        here = np.flatnonzero((panel + 1 >= k_start) & (panel + 1 < k_stop))
        v1[here] = vals[panel[here] + 1 - k_start]
        carry += float(np.sum(vals))
        k_start = k_stop

    x0 = panel * step
    vx = v0 + (v1 - v0) * ((x - x0) / step)
    inner = step * (total - 0.5 * (first + v0))
    cumulative = np.where(x <= k0 * step, 0.0, inner + 0.5 * (v0 + vx) * (x - x0))
    result = 4.0 * (cumulative[:-1] - cumulative[-1]).reshape(f_hi.shape)
    return result if result.ndim else float(result)


def filter_function_integral(
    ff: FilterFunction,
    f_lo: FrequencyHz,
    f_hi: FrequencyHz | np.ndarray,
) -> float | np.ndarray:
    """Band integral of the filter function in angular-frequency measure,
    i.e. the integral of F over [f_lo, f_hi] with d(omega) = 2 pi df.

    ``f_hi`` may be a scalar or an array of upper bounds; an array returns
    the integral from ``f_lo`` to each bound, from one pass over the
    lattice, bit-equal to one scalar call per bound.

    In this convention a delta-pulse sequence integrated over a band much
    wider than the passband gives (4 N + 2) * 2 pi * f_hi; with the
    finite-pulse correction on, (2 N + 2) * 2 pi * f_hi.

    The lattice step is 1 / (32 tau_tot), fine enough to resolve
    the 1/tau_tot oscillation of F, and results are exactly additive over
    adjacent intervals (same absolute lattice).
    """
    if f_lo < 0 or np.any(np.asarray(f_hi) < f_lo):
        raise ValueError("need 0 <= f_lo <= f_hi")
    return 2.0 * math.pi * _lattice_integral(ff, None, f_lo, f_hi)


def band_integral_weighted(
    ff: FilterFunction,
    weight_fn,
    f_lo: FrequencyHz,
    f_hi: FrequencyHz,
) -> float:
    """Integral of weight(f) * F(f) df over [f_lo, f_hi] (ordinary frequency
    measure, no 2 pi).  Shares the anchored lattice with
    :func:`filter_function_integral`; ``weight_fn`` is
    called on ascending blocks of lattice frequencies."""
    if f_lo < 0 or f_hi < f_lo:
        raise ValueError("need 0 <= f_lo <= f_hi")
    return _lattice_integral(ff, weight_fn, f_lo, f_hi)
