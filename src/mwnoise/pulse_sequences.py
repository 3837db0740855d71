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
Each block adds one pairwise sum of its values to the walk's sums, and only
a block that holds an integration bound takes a prefix sum, up to that
bound: the trapezoid rule is step times the sum of the values less half the
two end values.  Pairwise sums round with the logarithm of the length, not
the length, so the integral stays within a few ulps of the exactly rounded
sum of its lattice terms, and they cost a tenth of a running sum.

F / 4 is periodic on the lattice, with a period of P = 2 oversample N
points (4 f_center).  On a lattice longer than one block, every whole
period from the third on on which the weight is 1 or one power law
without a kink is summed without reading F point by point: the weight is
interpolated at 8 Chebyshev nodes on each of 8 pieces of the period, and
five periodic tables
of r, h and the pulse gain, summed against the interpolant's basis once
per integral, give the period's sum to rounding.  The spectrum weight of
``sigma_phi_filter`` says where its kinks are (its knots and where it meets
the -200 dBc/Hz floor), and F alone has none, so a walk to 100 MHz reads F
at 8.4 % of the lattice from XY8-4 up (``g1-2.5ghz``; all of it at XY8-1
and XY8-2, whose lattices fit one block), and any other weight at every
point.  On the lattice z/2 = pi k / oversample, so no trig call is needed per point: h repeats
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

from .core import FrequencyHz, TimeSeconds, _check_count, _check_range, _keep_freed_heap


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
        _check_count("[1, inf)", n_pi=self.n_pi)
        object.__setattr__(self, "n_pi", int(self.n_pi))
        _check_range("(0, inf)", tau=self.tau)
        _check_range("[0, inf)", t_pi=self.t_pi, t_dead=self.t_dead)
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
    _check_count("[1, inf)", n_repeats=n_repeats)
    _check_range("(0, inf)", f_xy8=f_xy8)
    return _spaced(SequenceKind.XY8, 8 * n_repeats, 1.0 / (2.0 * f_xy8), t_pi, t_dead)


def make_xy8_fixed_duration(
    n_repeats: int,
    tau_tot: TimeSeconds,
    t_pi: TimeSeconds = 0.0,
    t_dead: TimeSeconds = 0.0,
) -> PulseSequence:
    """XY8-n sequence with prescribed total interrogation time."""
    _check_count("[1, inf)", n_repeats=n_repeats)
    _check_range("(0, inf)", tau_tot=tau_tot)
    n_pi = 8 * n_repeats
    return _spaced(SequenceKind.XY8, n_pi, tau_tot / n_pi, t_pi, t_dead)


def make_cpmg(
    n_pi: int,
    f_center: FrequencyHz,
    t_pi: TimeSeconds = 0.0,
    t_dead: TimeSeconds = 0.0,
) -> PulseSequence:
    """CPMG train of ``n_pi`` pulses with passband center ``f_center``."""
    _check_range("(0, inf)", f_center=f_center)
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

# A lattice that ends below this point is walked point by point: there the
# period sums cost more than they save.  On a longer one every period of F
# from the third on may be summed; the weight's smoothness over a period,
# which sets their accuracy, does not depend on the period's length.  With
# g1-2.5ghz to 100 MHz the walk reads F at 8.4 % of the lattice at XY8-4,
# 8 and 64 alike (59.7 %, 30.4 % and 8.4 % with a head of 2^16 points).
_DIRECT_POINTS = _BLOCK

# _prefix_sums adds up to this many prefixes as Python floats, more as arrays.
_FEW_PREFIXES = 8

# Pieces per period of F, and Chebyshev nodes of the weight per piece, of
# the period sums (see _period_sums).
_PIECES = 8
_NODES = 8


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
    turns = None
    if ff.finite_pulse_correction and seq.t_pi > 0:
        turns = _gain_turns(np.pi * seq.t_pi / (oversample * seq.tau_tot), min(_BLOCK, n_points))

    def values(k_start: int, k_stop: int, out: np.ndarray) -> np.ndarray:
        out = out[: k_stop - k_start]
        at = slice(k_start % period, k_start % period + k_stop - k_start)
        if turns is not None:
            np.multiply(turns(k_start, k_stop), r[at], out=out)
        else:
            out[:] = r[at]
        out -= h[at]
        out *= out
        return out

    values.tables = r, h, None if turns is None else turns.fine
    return values


def _gain_turns(angle: float, size: int):
    """cos(angle k) as a function of (k_start, k_stop), a run of k inside
    one aligned block of at most ``size`` points, returned as a view of a
    buffer that the next call overwrites.

    With k = T i + l, l < T = 2^12, angle addition gives
    cos(angle k) = cos(T angle i) cos(angle l) - sin(T angle i) sin(angle l):
    T fine turns per call and two coarse turns per T points of a run, not
    one trig call per point.  Both float arguments round once, as angle k
    would, and each value depends on k alone, not on the run.  The function's
    ``fine`` attribute holds (cos(angle l), sin(angle l)), l < T.
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

    turns.fine = cos_fine, sin_fine
    return turns


def _tile(a: np.ndarray, length: int) -> np.ndarray:
    """``a`` repeated to ``length`` entries (cut short when shorter)."""
    return np.tile(a, -(-length // a.size))[:length]


def _period_sums(
    ff: FilterFunction, tables, weight_fn, periods: np.ndarray, step: float
) -> np.ndarray:
    """Sum of F / 4 times the weight over the lattice points k = m P + j,
    j < P = 2 oversample N, of each period m in ``periods``, from the walk's
    ``tables`` (r, h and the fine turns of the pulse gain, or None for delta
    pulses; see :func:`_lattice_filter`) and the weight at a few nodes per
    period.

    With g = cos(a k), theta = a m P and phi = a j, angle addition gives

        (g r - h)^2 = X0 + cos(2 theta) X1 - sin(2 theta) X2
                      - 2 cos(theta) X3 + 2 sin(theta) X4,

    X0 = r^2 / 2 + h^2, X1 = r^2 cos(2 phi) / 2, X2 = r^2 sin(2 phi) / 2,
    X3 = r h cos(phi) and X4 = r h sin(phi): five tables of j alone, built
    once per integral (for delta pulses one, (r - h)^2).  Each period is cut
    into ``_PIECES`` pieces of L = P / ``_PIECES`` points, and on each the
    weight is replaced by its interpolant at ``_NODES`` Chebyshev points of
    the piece's span.  The interpolant's Lagrange basis takes the same
    values at offset i of every piece, so sum_i w(i) X(qL + i) is
    sum_d w_d W_d(q), with W_d the basis moments of the tables.  A piece
    sums as w_ref sum_i X + sum_d (w_d - w_ref) W_d, with w_ref one node's
    value, so rounding follows the weight's variation over the piece, not
    its size.  The caller passes only periods on which the weight is one
    smooth power law (or 1, for ``weight_fn`` None).  Each period's sum is
    reduced in its own row, so it does not depend on the other periods.
    """
    seq = ff.sequence
    period = 2 * _OVERSAMPLE * seq.n_pi
    piece = period // _PIECES
    angle = np.pi * seq.t_pi / (_OVERSAMPLE * seq.tau_tot)
    r, h, fine = tables
    gain = fine is not None
    n_tables = 5 if gain else 1
    sums = np.zeros((n_tables, _PIECES))
    moments = np.zeros((n_tables, _PIECES, _NODES))
    # Tiles of whole pieces, or of part of one piece, of at most _BLOCK / 4
    # points, so the tables take no more memory than the walk's run buffers.
    tile = _BLOCK // 4
    rows, cols = max(1, min(_PIECES, tile // piece)), min(piece, tile)
    if gain:
        cos_fine, sin_fine = fine
    for i0 in range(0, piece, cols):
        i1 = min(i0 + cols, piece)
        cheb = _chebyshev((2.0 * np.arange(i0, i1) - (piece - 1)) / (piece - 1))
        for q0 in range(0, _PIECES, rows):
            q1 = min(q0 + rows, _PIECES)
            j0, j1 = q0 * piece + i0, (q1 - 1) * piece + i1
            rj, hj = r[j0:j1], h[j0:j1]
            if gain:
                # cos(phi) and sin(phi) by angle addition, as in _gain_turns.
                c0 = j0 // _TURN
                coarse = angle * (_TURN * np.arange(c0, -(-j1 // _TURN)))
                cos_c, sin_c = np.cos(coarse)[:, None], np.sin(coarse)[:, None]
                cut = slice(j0 - c0 * _TURN, j1 - c0 * _TURN)
                cos_j = np.multiply(cos_c, cos_fine)
                cos_j -= np.multiply(sin_c, sin_fine)
                sin_j = np.multiply(sin_c, cos_fine)
                sin_j += np.multiply(cos_c, sin_fine)
                cos_j, sin_j = cos_j.ravel()[cut], sin_j.ravel()[cut]
                x = np.empty((5, j1 - j0))
                half_r2 = np.multiply(rj, rj, out=x[0])
                half_r2 *= 0.5
                np.multiply(cos_j, cos_j, out=x[1])
                x[1] -= np.square(sin_j)
                x[1] *= half_r2  # r^2 cos(2 phi) / 2
                np.multiply(sin_j, cos_j, out=x[2])
                x[2] *= 2.0
                x[2] *= half_r2  # r^2 sin(2 phi) / 2
                np.multiply(rj, hj, out=x[3])
                np.multiply(x[3], sin_j, out=x[4])  # r h sin(phi)
                x[3] *= cos_j  # r h cos(phi)
                x[0] += np.square(hj)  # r^2 / 2 + h^2
            else:
                x = np.square(rj - hj)[None]
            x = x.reshape(n_tables, q1 - q0, i1 - i0)
            sums[:, q0:q1] += x.sum(axis=2)
            moments[:, q0:q1] += np.einsum("ki,tqi->tqk", cheb, x)

    nodes = -np.cos(np.pi * (np.arange(_NODES) + 0.5) / _NODES)  # ascending, in (-1, 1)
    basis = _chebyshev(nodes) * (2.0 / _NODES)
    basis[0] *= 0.5
    moments = np.einsum("kd,tqk->tqd", basis, moments)
    k_nodes = (periods[:, None, None] * period + piece * np.arange(_PIECES)[:, None]
               + 0.5 * (piece - 1) * (1.0 + nodes))
    if weight_fn is None:
        w = np.ones(k_nodes.shape)
    else:
        w = weight_fn((k_nodes * step).ravel()).reshape(k_nodes.shape)
    ref = w[:, :, _NODES // 2].copy()
    w -= ref[:, :, None]
    n = periods.size
    part = (ref[:, None, :] * sums).sum(axis=2)
    part += (w[:, None] * moments).reshape(n, n_tables, -1).sum(axis=2)
    if not gain:
        return part[:, 0]
    theta = angle * (periods * period)
    part[:, 1:3] *= np.stack([np.cos(2.0 * theta), -np.sin(2.0 * theta)], axis=1)
    part[:, 3:] *= np.stack([-2.0 * np.cos(theta), 2.0 * np.sin(theta)], axis=1)
    return part.sum(axis=1)


def _chebyshev(x: np.ndarray) -> np.ndarray:
    """Chebyshev polynomials T_0 ... T_{_NODES - 1} at ``x``, one row each."""
    t = np.empty((_NODES, x.size))
    t[0] = 1.0
    t[1] = x
    for k in range(2, _NODES):
        np.multiply(2.0 * x, t[k - 1], out=t[k])
        t[k] -= t[k - 2]
    return t


def _prefix_sums(vals: np.ndarray, at: np.ndarray) -> np.ndarray:
    """sum(vals[: a + 1]) for each a in ``at``, as a sum of at most
    log2(a + 1) pairwise sums of aligned runs of 2^l values (one per set
    bit of a + 1, added from l = 0 up), so each rounds like a pairwise sum,
    not like a running one, and does not depend on the other entries of
    ``at``.  The run sums take one add per level; a few prefixes add their
    runs as Python floats, more of them as arrays, in the same order and so
    with the same bits."""
    n = at + 1
    levels = []  # level l: the sums of aligned runs of 2^l values
    level = vals[: n.max(initial=0)]
    while level.size:
        levels.append(level)
        level = level[:-1:2] + level[1::2]
    if n.size > _FEW_PREFIXES:
        out = np.zeros(n.size)
        for shift, level in enumerate(levels):
            runs = n >> shift
            np.add(out, level[runs - 1], out=out, where=(runs & 1) == 1)
        return out
    out = []
    for runs in n.tolist():
        total = 0.0
        for level in levels:
            if runs & 1:
                total += float(level[runs - 1])
            runs >>= 1
        out.append(total)
    return np.array(out)


def _lattice_integral(
    ff: FilterFunction, weight_fn, f_lo: float, f_hi: float | np.ndarray
) -> float | np.ndarray:
    """Integral from ``f_lo`` to ``f_hi`` of the piecewise-linear interpolant
    of weight_fn(f) * F(f) (F alone when ``weight_fn`` is None) sampled on
    the absolute lattice f_k = k * step, step = 1 / (_OVERSAMPLE tau_tot);
    ``f_hi`` may be an array of upper bounds, each getting its own integral.

    The lattice spans the integer multiples of step bracketing [f_lo,
    max(f_hi)], at least two points, k0 to k_end.  It is walked unit by
    unit, so memory does not grow with its length.  Below the third period
    of F (P = 2 oversample N points), a unit is a block aligned to absolute
    multiples of ``_BLOCK``; from there on a unit is one period, read in
    runs that end at block edges.  A lattice with k_end below
    ``_DIRECT_POINTS``, and any weight without kinks, is all blocks.  A
    unit's sum is the pairwise ``np.sum`` of each run, added in order.  The
    trapezoid sum from k0 to the panel (p, p + 1) of a bound is
    step (S_p - (v_k0 + v_p) / 2), with S_p the :func:`_prefix_sums` of the
    unit sums before p's unit, plus the runs of its unit before p's, plus
    the prefix sum of p's run up to p.

    A whole period of F from the third on, at or after k0, is summed by
    :func:`_period_sums` instead of point by point when the weight is None
    or says where it has kinks (``weight_fn.kinks``, as the power law of
    :func:`~mwnoise.analytic_sensitivity.sigma_phi_filter` does) and none
    lies in the period.  Any other weight is walked point by point, in
    blocks.  The summed periods that hold no bound's panel and not k0 fill
    their units in one step, so only the units read point by point cost a
    Python step each.  Where a summed period holds a bound's panel or k0,
    its runs are read as far as that point for the values.  Bounds whose
    own lattice would end below ``_DIRECT_POINTS`` are integrated by a call
    of their own when others end past it.  So the spectrum
    weight of ``g1-2.5ghz`` to 100 MHz is read directly at 8.4 % of the
    lattice at XY8-4, 8 and 64 alike (the first two periods, the two that
    hold a knot and the last, partial one).  No unit's sum depends on which
    bounds the call has, so an array of bounds gives the same bits as one
    call per bound.  Every sum is pairwise, or a running sum of the few runs
    of one period, so the result stays within a few ulps of the exactly
    rounded sum of the lattice terms.  Because the interpolant is defined on
    a lattice independent of the query interval, integrals are exactly
    additive over adjacent intervals.  The tables and run buffers are freed
    on return and stay on the heap for the next call
    (:func:`~mwnoise.core._keep_freed_heap`).
    """
    _keep_freed_heap()
    f_hi = np.asarray(f_hi, dtype=float)
    if not np.all(np.isfinite(f_hi)):
        raise ValueError("integration bounds must be finite")
    step = 1.0 / (ff.sequence.tau_tot * _OVERSAMPLE)
    k_lo = math.floor(f_lo / step)
    k0 = max(k_lo, 0)
    k_end = max(math.ceil(float(np.max(f_hi, initial=f_lo)) / step), k_lo + 1)
    kinks = np.empty(0) if weight_fn is None else getattr(weight_fn, "kinks", None)
    period_path = kinks is not None and k_end >= _DIRECT_POINTS
    if period_path and f_hi.ndim:
        # A bound whose own lattice ends below _DIRECT_POINTS is walked in
        # blocks alone, so it keeps those bits in a call of its own.
        ends = np.maximum(np.ceil(np.maximum(f_hi, f_lo) / step), k_lo + 1)
        short = ends < _DIRECT_POINTS
        if short.any():
            result = np.empty(f_hi.shape)
            result[short] = _lattice_integral(ff, weight_fn, f_lo, f_hi[short])
            result[~short] = _lattice_integral(ff, weight_fn, f_lo, f_hi[~short])
            return result

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
    period = 2 * _OVERSAMPLE * ff.sequence.n_pi
    # Units: the head's blocks, then one per period of F from the third on.
    # A lattice of one block, or a weight without kinks, is all head.
    head_end = min(2 * period, k_end + 1) if period_path else k_end + 1
    head = [k0, *range((k0 // _BLOCK + 1) * _BLOCK, head_end, _BLOCK)] if k0 < head_end else []
    m_first = max(k0, head_end) // period
    n_periods = k_end // period + 1 - m_first if head_end <= k_end else 0
    units = np.empty(len(head) + n_periods)  # the sum of each unit, in order
    walked = np.ones(units.size, dtype=bool)  # the units read point by point
    summed = {}  # the sums of the summed periods that hold a read
    reads = np.concatenate([panel, panel + 1, [k0]])
    if period_path:
        m = np.arange(max(m_first, -(-k0 // period)), (k_end + 1) // period)
        m = m[np.searchsorted(kinks, m * period * step)
              == np.searchsorted(kinks, (m + 1) * period * step, "right")]
        if m.size:
            sums = _period_sums(ff, filter_on.tables, weight_fn, m, step)
            held = np.isin(m, reads // period)
            # Every summed period that holds no read fills its unit in one step.
            free = len(head) + m[~held] - m_first
            walked[free] = False
            units[free] = sums[~held]
            summed = dict(zip(m[held].tolist(), sums[held].tolist()))

    size = min(_BLOCK, k_end + 1 - k0)
    vals_buf = np.empty(size)
    if weight_fn is not None:
        offsets = np.arange(size, dtype=float)
        freqs_buf = np.empty(size)
    first = 0.0
    before = np.zeros(x.size, dtype=int)  # units before each bound's panel

    def run(k_start: int, k_stop: int, ran: float, unit: int) -> float:
        """Reads the bounds off the lattice values of [k_start, k_stop) of
        unit ``unit``, after ``ran``, the sum of the runs of the unit before
        it, and returns their sum."""
        nonlocal first
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
            total[here] = ran + _prefix_sums(vals, at)
            before[here] = unit
            v0[here] = vals[at]
        here = np.flatnonzero((panel + 1 >= k_start) & (panel + 1 < k_stop))
        v1[here] = vals[panel[here] + 1 - k_start]
        return float(np.sum(vals))

    for unit in np.flatnonzero(walked).tolist():
        whole = None
        if unit < len(head):
            k_start = head[unit]
            k_stop = min((k_start // _BLOCK + 1) * _BLOCK, head_end)
        else:
            m = unit - len(head) + m_first
            k_start, k_stop = max(m * period, k0), min((m + 1) * period, k_end + 1)
            whole = summed.get(m)
        end = k_stop
        if whole is not None:  # walked only as far as the reads in it
            end = int(reads[(reads >= k_start) & (reads < k_stop)].max()) + 1
        ran, k = 0.0, k_start
        while k < end:
            k_next = min((k // _BLOCK + 1) * _BLOCK, end)
            ran += run(k, k_next, ran, unit)
            k = k_next
        units[unit] = ran if whole is None else whole
    total += _prefix_sums(units, before - 1)

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
    _check_range("[0, inf)", f_lo=f_lo)
    if np.any(np.asarray(f_hi) < f_lo):
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
    :func:`filter_function_integral`; ``weight_fn`` is called on ascending
    arrays of frequencies.  A generic weight is read at every lattice point;
    a weight that lists where it has kinks in a ``kinks`` attribute, as the
    spectrum power law of
    :func:`~mwnoise.analytic_sensitivity.sigma_phi_filter` does, is read at
    a few nodes per whole period of F between its kinks (see
    :func:`_lattice_integral`)."""
    _check_range("[0, inf)", f_lo=f_lo)
    if f_hi < f_lo:
        raise ValueError("need 0 <= f_lo <= f_hi")
    return _lattice_integral(ff, weight_fn, f_lo, f_hi)
