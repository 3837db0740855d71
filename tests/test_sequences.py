"""Sequence timing and filter-function behavior."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import mwnoise as mw
from mwnoise import pulse_sequences
from mwnoise.pulse_sequences import (
    _BLOCK,
    _gain_turns,
    _lattice_filter,
    _prefix_sums,
    band_integral_weighted,
)

T_PI = 48e-9
T_DEAD = 15e-6


def _xy8_table_row():
    return mw.make_xy8(8, 458e3, T_PI, T_DEAD)


# --- timing -----------------------------------------------------------------

def test_xy8_458khz_timing():
    seq = _xy8_table_row()
    assert seq.n_pi == 64
    assert seq.tau == pytest.approx(522e-9, rel=1e-3)
    assert seq.tau_tot == pytest.approx(69.9e-6, rel=1e-3)
    # Pulse spacing reproduces the requested center frequency exactly.
    assert 2.0 * seq.tau + seq.t_pi == pytest.approx(1.0 / (2.0 * 458e3), rel=1e-12)
    assert seq.f_center == pytest.approx(458e3, rel=1e-12)


def test_xy8_394khz_timing():
    seq = mw.make_xy8(7, 394e3, 46e-9, T_DEAD)
    assert seq.n_pi == 56
    assert seq.tau == pytest.approx(612e-9, rel=1e-3)
    assert seq.tau_tot == pytest.approx(71.1e-6, rel=1e-3)


def test_delta_pulse_timing_identity():
    seq = mw.make_xy8(1, 500e3, 0.0, 0.0)
    assert seq.tau == pytest.approx(500e-9, rel=1e-12)
    assert seq.tau_tot == pytest.approx(8e-6, rel=1e-12)
    # t_pi = 0 collapses the duration rule to 2*N*tau.
    assert seq.tau_tot == pytest.approx(2 * seq.n_pi * seq.tau, rel=1e-12)


def test_tau_tot_composition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_pi = int(rng.integers(1, 65))
        tau = float(rng.uniform(1e-7, 2e-6))
        t_pi = float(rng.uniform(0.0, 1e-7))
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, tau, t_pi)
        assert seq.tau_tot == pytest.approx(n_pi * (2 * tau + t_pi), rel=1e-12)
        assert seq.f_center == pytest.approx(1.0 / (2 * (2 * tau + t_pi)), rel=1e-12)
        assert seq.f_center == pytest.approx(n_pi / (2 * seq.tau_tot), rel=1e-12)


def test_sample_rate_and_duty():
    seq = _xy8_table_row()
    assert seq.f_samp == pytest.approx(1.0 / (seq.tau_tot + T_DEAD), rel=1e-12)
    assert seq.f_samp == pytest.approx(11.78e3, rel=1e-3)
    assert seq.duty == pytest.approx(seq.tau_tot / (seq.tau_tot + T_DEAD), rel=1e-12)
    no_dead = mw.make_xy8(8, 458e3, T_PI, 0.0)
    assert no_dead.duty == 1.0
    assert no_dead.f_samp == pytest.approx(1.0 / no_dead.tau_tot, rel=1e-12)


def test_pulse_times_layout():
    seq = _xy8_table_row()
    times = seq.pulse_times()
    period = 2 * seq.tau + seq.t_pi
    assert times.shape == (64,)
    assert times[0] == pytest.approx(period / 2, rel=1e-12)
    assert_allclose(np.diff(times), period, rtol=1e-12)
    assert times[-1] < seq.tau_tot


def test_fixed_duration_round_trip():
    seq = mw.make_xy8_fixed_duration(8, 70e-6, T_PI, T_DEAD)
    assert seq.n_pi == 64
    assert seq.tau_tot == pytest.approx(70e-6, rel=1e-12)
    again = mw.make_xy8(8, seq.f_center, T_PI, T_DEAD)
    assert again.tau == pytest.approx(seq.tau, rel=1e-12)


def test_sequence_validation():
    with pytest.raises(ValueError):
        mw.PulseSequence(mw.SequenceKind.CPMG, 0, 1e-6)
    with pytest.raises(ValueError):
        mw.PulseSequence(mw.SequenceKind.CPMG, 8, 0.0)
    with pytest.raises(ValueError):
        mw.PulseSequence(mw.SequenceKind.CPMG, 8, 1e-6, t_pi=-1e-9)
    with pytest.raises(ValueError):
        mw.PulseSequence(mw.SequenceKind.CPMG, 8, 1e-6, t_dead=-1e-6)
    # XY8 needs a whole number of 8-pulse blocks.
    with pytest.raises(ValueError):
        mw.PulseSequence(mw.SequenceKind.XY8, 12, 1e-6)
    # Pulses longer than the half-period overlap.
    with pytest.raises(ValueError):
        mw.make_xy8(1, 500e3, t_pi=1.1e-6)
    with pytest.raises(ValueError):
        mw.make_cpmg(4, 500e3, t_pi=1.1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sequence_rejects_non_finite_timing(bad):
    for kwargs in ({"tau": bad}, {"t_pi": bad}, {"t_dead": bad}):
        timing = {"tau": 1e-6, **kwargs}
        with pytest.raises(ValueError, match="finite"):
            mw.PulseSequence(mw.SequenceKind.CPMG, 8, **timing)
    for make, arg in ((mw.make_xy8, 1), (mw.make_cpmg, 8), (mw.make_xy8_fixed_duration, 1)):
        with pytest.raises(ValueError, match="finite"):
            make(arg, bad)
        with pytest.raises(ValueError):
            make(arg, 1e-5 if make is mw.make_xy8_fixed_duration else 458e3, t_pi=bad)
    ff = mw.FilterFunction(mw.PulseSequence(mw.SequenceKind.CPMG, 8, 1e-6))
    with pytest.raises(ValueError, match="finite"):
        mw.filter_function_value(ff, bad)
    with pytest.raises(ValueError, match="finite"):
        mw.filter_function_value(ff, np.array([0.0, 1e5, bad]))


# --- filter function ----------------------------------------------------------

def test_filter_dc_insensitivity():
    for n_pi, t_pi in ((8, 0.0), (64, T_PI), (24, 30e-9)):
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 500e-9, t_pi)
        for finite in (False, True):
            ff = mw.FilterFunction(seq, finite_pulse_correction=finite)
            assert abs(float(mw.filter_function_value(ff, 0.0))) < 1e-18 * n_pi**2


def test_filter_first_harmonic_value():
    # At f1 = N/(2 tau_tot) the delta-pulse response evaluates to 4 N^2.
    for n_pi in (8, 16, 32, 64):
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 69.9e-6 / (2 * n_pi))
        ff = mw.FilterFunction(seq, finite_pulse_correction=False)
        f1 = n_pi / (2.0 * seq.tau_tot)
        assert float(mw.filter_function_value(ff, f1)) == pytest.approx(
            4.0 * n_pi**2, rel=1e-9
        )


def _literal_filter(seq, f, finite=False):
    """Oracle: phase-accumulation weights +-2 at the pulse instants plus the
    boundary terms, summed literally as complex phasors; with ``finite`` the
    pulse phasors carry the gain cos(pi f t_pi)."""
    f = np.asarray(f, dtype=float)[:, None]
    times = np.concatenate(([0.0], seq.pulse_times(), [seq.tau_tot]))
    n = seq.n_pi
    w = np.concatenate(([0.0], [2.0 * (-1) ** (n - i) for i in range(1, n + 1)], [-1.0]))
    w[0] = -np.sum(w[1:])
    w = w * np.ones_like(f)
    if finite:
        w[:, 1:-1] *= np.cos(np.pi * f * seq.t_pi)
    return np.abs(np.sum(w * np.exp(2j * np.pi * f * times), axis=1)) ** 2


def test_filter_matches_literal_phasor_sum():
    rng = np.random.default_rng(4)
    for n_pi in (1, 2, 8, 33):
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 69.9e-6 / (2 * n_pi))
        ff = mw.FilterFunction(seq, finite_pulse_correction=False)
        for f in rng.uniform(1e3, 5e6, 25):
            want = float(_literal_filter(seq, [float(f)])[0])
            got = float(mw.filter_function_value(ff, float(f)))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-6)


@pytest.mark.parametrize("n_pi", [1, 3, 5, 8, 33, 64])
@pytest.mark.parametrize("finite", [False, True], ids=["delta", "finite"])
def test_filter_matches_literal_phasor_sum_on_lattice(n_pi, finite):
    # Odd and even pulse counts, finite pulses, and integration-lattice
    # frequencies up to 1e8 Hz, including the exact passband harmonics
    # k = 16 N (2m + 1) of the 32x lattice, where the closed form takes its
    # analytic limit.
    seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 69.9e-6 / (2 * n_pi), T_PI)
    ff = mw.FilterFunction(seq, finite_pulse_correction=finite)
    step = 1.0 / (seq.tau_tot * 32)
    k_max = int(1e8 / step)
    rng = np.random.default_rng(n_pi)
    k = np.concatenate(
        (
            rng.integers(1, k_max, 200),
            16 * n_pi * (2 * np.arange(20) + 1),
            16 * n_pi * (2 * rng.integers(0, k_max // (32 * n_pi), 20) + 1),
        )
    )
    f = k * step
    got = mw.filter_function_value(ff, f)
    assert_allclose(got, _literal_filter(seq, f, finite), rtol=1e-9, atol=1e-6)
    poles = f[200:]
    gain = np.cos(np.pi * poles * seq.t_pi) if finite else 1.0
    assert_allclose(got[200:], 4.0 * n_pi**2 * gain**2, rtol=1e-9, atol=1e-6)
    # A scalar call at a pole gives the same limit.
    f1 = float(16 * n_pi * step)
    assert mw.filter_function_value(ff, f1) == float(got[200])


@pytest.mark.parametrize("n_pi", [1, 3, 8, 64])
@pytest.mark.parametrize("finite", [False, True], ids=["delta", "finite"])
def test_lattice_filter_tables_match_direct_evaluation(n_pi, finite):
    # The quadrature reads F on its lattice from per-call tables of r and h
    # and a rotated table of the pulse gain.  Check runs in several blocks,
    # and runs around exact passband harmonics k = 16 N (2m + 1), against
    # the direct evaluation and the literal phasor sum.
    seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 69.9e-6 / (2 * n_pi), T_PI)
    ff = mw.FilterFunction(seq, finite_pulse_correction=finite)
    step = 1.0 / (seq.tau_tot * 32)
    harmonics = 16 * n_pi * (2 * np.array([0, 3, 40, 2000]) + 1)
    runs = [(b * _BLOCK, b * _BLOCK + 500) for b in (0, 1, 7)]
    runs += [(max(k - 9, k - k % _BLOCK), min(k + 10, k - k % _BLOCK + _BLOCK)) for k in harmonics]
    values = _lattice_filter(ff, 8 * _BLOCK)
    k = np.concatenate([np.arange(a, b) for a, b in runs])
    # The tables give F / 4; the quadrature applies the 4 once to its sum.
    got = 4.0 * np.concatenate([values(a, b, np.empty(b - a)) for a, b in runs])
    f = k * step
    assert_allclose(got, mw.filter_function_value(ff, f), rtol=1e-9, atol=1e-9)
    assert_allclose(got, _literal_filter(seq, f, finite), rtol=1e-9, atol=1e-6)
    at_pole = np.isin(k, harmonics)
    gain = np.cos(np.pi * f[at_pole] * seq.t_pi) if finite else 1.0
    assert_allclose(got[at_pole], 4.0 * n_pi**2 * gain**2, rtol=1e-12)


@pytest.mark.parametrize("n_r", [8, 64])
def test_gain_turns_match_cos_across_blocks(n_r):
    # The pulse gain cos(a k) comes from two-level angle addition.  Against
    # cos of the exact product a k (a double-double argument), it may only
    # carry the rounding of its largest float argument, half an ulp of
    # a k_max, plus 4e-16 from its own trig values and products.
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    angle = np.pi * seq.t_pi / (32 * seq.tau_tot)
    turns = _gain_turns(angle, _BLOCK)
    k = np.arange(8 * _BLOCK)
    got = np.concatenate([turns(b, b + _BLOCK).copy() for b in range(0, k.size, _BLOCK)])
    t = angle * k
    split = 2.0**27 + 1.0
    a_hi = angle * split - (angle * split - angle)
    k_float = k.astype(float)
    k_hi = k_float * split - (k_float * split - k_float)
    a_lo, k_lo = angle - a_hi, k_float - k_hi
    err = ((a_hi * k_hi - t) + a_hi * k_lo + a_lo * k_hi) + a_lo * k_lo  # a k - t, exactly
    exact = np.cos(t) - np.sin(t) * err
    assert_allclose(got, exact, rtol=0, atol=0.5 * np.spacing(t[-1]) + 4e-16)
    # Each value depends on k alone: a run inside a block gives the bits of
    # the whole block's call.
    b = 5 * _BLOCK
    assert_array_equal(turns(b + 4093, b + 9000), got[b + 4093 : b + 9000])


@pytest.mark.parametrize("n_r", [1, 8, 64])
def test_lattice_filter_bits_do_not_depend_on_lattice_length(n_r):
    # The tables cover one period of r and h, tiled no further than the
    # lattice; F / 4 at a k must not depend on how long the lattice is:
    # lattices of 3 blocks and a bit, of 8 blocks, and (below) shorter than
    # one period of r, 2 oversample N points, one of them shorter than its
    # first half.
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    ff = mw.FilterFunction(seq)
    long = _lattice_filter(ff, 8 * _BLOCK)
    n_short = 3 * _BLOCK + 17
    short = _lattice_filter(ff, n_short)
    for k0 in range(0, n_short, _BLOCK):
        k1 = min(k0 + _BLOCK, n_short)
        assert_array_equal(short(k0, k1, np.empty(k1 - k0)), long(k0, k1, np.empty(k1 - k0)))
    period = 64 * seq.n_pi
    for n in (period // 2 - 5, period - 3):
        assert_array_equal(_lattice_filter(ff, n)(0, n, np.empty(n)), long(0, n, np.empty(n)))


def test_filter_fine_grid_peak_golden():
    # Brute-force maximum of the N=8 delta-pulse response near the first
    # harmonic, frozen from a 10^6-point scan.  The true maximum sits a few
    # percent above f1 because the boundary phasors skew the lobe.
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 8, 69.9e-6 / 16)
    ff = mw.FilterFunction(seq, finite_pulse_correction=False)
    f1 = seq.n_pi / (2.0 * seq.tau_tot)
    grid = np.linspace(0.5 * f1, 1.5 * f1, 1_000_001)
    vals = mw.filter_function_value(ff, grid)
    k = int(np.argmax(vals))
    assert float(vals[k]) == pytest.approx(267.86130262128427, rel=1e-6)
    assert 0.0 < grid[k] / f1 - 1.0 < 0.03


def test_filter_peak_scaling_with_n():
    # First-harmonic maxima grow as N^2; the skew shrinks with N, so the
    # fine-grid ratio approaches the exact 4N^2 ratio from above.
    peaks = {}
    for n_pi in (8, 64):
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 69.9e-6 / (2 * n_pi))
        ff = mw.FilterFunction(seq, finite_pulse_correction=False)
        f1 = n_pi / (2.0 * seq.tau_tot)
        grid = np.linspace(0.8 * f1, 1.2 * f1, 200_001)
        vals = mw.filter_function_value(ff, grid)
        k = int(np.argmax(vals))
        peaks[n_pi] = float(vals[k])
        assert abs(grid[k] / f1 - 1.0) < 0.03
    assert peaks[64] / peaks[8] == pytest.approx(64.0, rel=0.05)


def test_filter_integral_band_averages():
    f_hi = 1e8
    for n_pi in (8, 32):
        seq = mw.PulseSequence(mw.SequenceKind.XY8, n_pi, 521.85e-9, T_PI, T_DEAD)
        ff_d = mw.FilterFunction(seq, finite_pulse_correction=False)
        ff_f = mw.FilterFunction(seq, finite_pulse_correction=True)
        i_delta = mw.filter_function_integral(ff_d, 0.0, f_hi)
        i_finite = mw.filter_function_integral(ff_f, 0.0, f_hi)
        assert i_delta == pytest.approx((4 * n_pi + 2) * 2 * math.pi * f_hi, rel=0.10)
        assert i_finite == pytest.approx((2 * n_pi + 2) * 2 * math.pi * f_hi, rel=0.10)


def test_filter_integral_additivity():
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 16, 521.85e-9, T_PI)
    ff = mw.FilterFunction(seq)
    whole = mw.filter_function_integral(ff, 0.0, 5e6)
    for split in (1e5, seq.f_center, 2.34e6):
        parts = mw.filter_function_integral(ff, 0.0, split) + mw.filter_function_integral(
            ff, split, 5e6
        )
        assert parts == pytest.approx(whole, rel=1e-9)
    # An array of upper bounds is one lattice pass, bit-equal to one scalar
    # call per bound.
    f_hi = np.array([1e5, seq.f_center, 2.34e6, 5e6, 0.0])
    running = mw.filter_function_integral(ff, 0.0, f_hi)
    assert running.tolist() == [mw.filter_function_integral(ff, 0.0, f) for f in f_hi]


def test_filter_integral_array_bounds_across_block_edge():
    # The lattice is walked in blocks; bounds on both sides of a block edge,
    # on it, on the lattice points next to it and on the last lattice point
    # give the same bits in one array call as in one scalar call each, from
    # zero and from a lower bound inside the first block.
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 16, 521.85e-9, T_PI)
    ff = mw.FilterFunction(seq)
    step = 1.0 / (seq.tau_tot * 32)
    edge = _BLOCK * step
    f_hi = np.array(
        [edge - 0.3 * step, (_BLOCK - 1) * step, edge, edge + 1e-3 * step,
         (_BLOCK + 1) * step, 1.7 * edge, 2.5 * edge, (3 * _BLOCK + 17) * step]
    )
    for f_lo in (0.0, edge - 5.5 * step):
        bounds = f_hi[f_hi >= f_lo]
        running = mw.filter_function_integral(ff, f_lo, bounds)
        assert running.tolist() == [mw.filter_function_integral(ff, f_lo, f) for f in bounds]
    # Splitting at the block edge is additive.
    whole = mw.filter_function_integral(ff, 0.0, 2.5 * edge)
    parts = mw.filter_function_integral(ff, 0.0, edge) + mw.filter_function_integral(
        ff, edge, 2.5 * edge
    )
    assert parts == pytest.approx(whole, rel=1e-12)


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "delta"])
@pytest.mark.parametrize("n_pi", [5, 64, 512])
def test_filter_integral_period_path_matches_direct_walk(monkeypatch, n_pi, finite):
    # F alone has no kink, so every whole period past the first block is
    # summed from its tables; with the threshold raised past the lattice F is
    # walked point by point.
    seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 521.85e-9, T_PI)
    ff = mw.FilterFunction(seq, finite_pulse_correction=finite)
    f_hi = np.array([3e6, 2.5e7, 1e8])
    fast = mw.filter_function_integral(ff, 0.0, f_hi)
    monkeypatch.setattr(pulse_sequences, "_DIRECT_POINTS", 2**62)
    assert_allclose(fast, mw.filter_function_integral(ff, 0.0, f_hi), rtol=2e-15, atol=0)


def test_prefix_sums_round_like_pairwise_sums():
    # Each prefix is a sum of aligned power-of-two runs, so it stays within a
    # few ulps of the exactly rounded sum even 70 000 terms in, where a
    # running sum of these terms drifts by 4e-15, and it does not depend on
    # the other prefixes asked for.
    rng = np.random.default_rng(7)
    vals = rng.uniform(0.0, 1.0, 70_000) * np.exp(rng.normal(0.0, 2.0, 70_000))
    at = np.array([69_999, 0, 1, 2, 127, 128, 4095, 65_535, 65_536])
    got = _prefix_sums(vals, at)
    for a, total in zip(at, got):
        assert total == _prefix_sums(vals, np.array([a]))[0]
        assert total == pytest.approx(math.fsum(vals[: a + 1]), rel=1e-15, abs=0)
    assert _prefix_sums(vals, np.array([-1, 0])).tolist() == [0.0, vals[0]]


def test_filter_integral_degenerate_and_validation():
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 8, 500e-9)
    ff = mw.FilterFunction(seq)
    assert mw.filter_function_integral(ff, 1e5, 1e5) == 0.0
    # An empty array of upper bounds gives an empty array, as an empty grid
    # does for filter_function_value.
    for empty in (np.array([]), np.empty((0, 3))):
        got = mw.filter_function_integral(ff, 1e5, empty)
        assert isinstance(got, np.ndarray) and got.shape == empty.shape
        assert mw.filter_function_value(ff, empty).shape == empty.shape
    with pytest.raises(ValueError):
        mw.filter_function_integral(ff, -1.0, 1e5)
    with pytest.raises(ValueError):
        mw.filter_function_integral(ff, 1e5, 1e4)
    with pytest.raises(ValueError):
        mw.filter_function_integral(ff, 0.0, math.inf)
    with pytest.raises(ValueError):
        band_integral_weighted(ff, np.ones_like, 0.0, math.inf)
    with pytest.raises(ValueError):
        mw.filter_function_value(ff, -1.0)


def test_filter_integral_convergence():
    # The lattice quadrature, 32 points per 1/tau_tot, against a plain
    # trapezoid of the closed form on a grid four times finer.
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 8, 521.85e-9, T_PI)
    ff = mw.FilterFunction(seq)
    f = np.linspace(0.0, 1e7, round(1e7 * seq.tau_tot * 128) + 1)
    fine = 2 * math.pi * np.trapezoid(mw.filter_function_value(ff, f), f)
    assert mw.filter_function_integral(ff, 0.0, 1e7) == pytest.approx(fine, rel=1e-3)


def test_band_integral_weight_one_matches_integral():
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 8, 521.85e-9, T_PI)
    ff = mw.FilterFunction(seq)
    plain = band_integral_weighted(ff, lambda f: np.ones_like(f), 0.0, 1e6)
    assert plain * 2 * math.pi == pytest.approx(
        mw.filter_function_integral(ff, 0.0, 1e6), rel=1e-9
    )


def test_xy8_and_cpmg_share_filter():
    xy8 = mw.PulseSequence(mw.SequenceKind.XY8, 16, 400e-9, 20e-9)
    cpmg = mw.PulseSequence(mw.SequenceKind.CPMG, 16, 400e-9, 20e-9)
    freqs = np.linspace(0.0, 3e6, 500)
    assert_allclose(
        mw.filter_function_value(mw.FilterFunction(xy8), freqs),
        mw.filter_function_value(mw.FilterFunction(cpmg), freqs),
        rtol=1e-12,
    )


def test_filter_callable_handle():
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 8, 500e-9)
    ff = mw.FilterFunction(seq)
    f = 1.3e5
    assert float(mw.filter_function_value(ff, f)) == mw.filter_function_value(ff, np.array([f]))[0]
    vals = mw.filter_function_value(ff, np.linspace(0, 1e6, 100))
    assert np.all(vals >= 0.0)
