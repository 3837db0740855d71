"""Phase-noise spectra, presets, mixing and time-domain noise processes."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import mwnoise as mw
from mwnoise.noise_models import (
    INJECTION_GAIN_RANDOM_WALK,
    INJECTION_GAIN_WHITE,
    MAX_TRACK_SAMPLES,
    _DRAW_BLOCK,
    L_FLOOR_DBC,
    _power_laws,
    _psd_power_law,
    philox_rng,
    sample_pulse_phases_batch,
)


def _two_point(l0=-100.0, l1=-120.0):
    return mw.PhaseNoiseSpectrum(2.87e9, (1e3, 1e6), (l0, l1), "two-point")


# --- spectrum table ------------------------------------------------------------

def test_spectrum_validation():
    with pytest.raises(ValueError):
        mw.PhaseNoiseSpectrum(0.0, (1e3,), (-100.0,))
    with pytest.raises(ValueError):
        mw.PhaseNoiseSpectrum(1e9, (), ())
    with pytest.raises(ValueError):
        mw.PhaseNoiseSpectrum(1e9, (1e3, 1e3), (-100.0, -100.0))
    with pytest.raises(ValueError):
        mw.PhaseNoiseSpectrum(1e9, (1e4, 1e3), (-100.0, -100.0))
    with pytest.raises(ValueError):
        mw.PhaseNoiseSpectrum(1e9, (1e3, 1e4), (-100.0,))


def test_spectrum_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mw.PhaseNoiseSpectrum(bad, (1e3,), (-100.0,))
        with pytest.raises(ValueError):
            mw.PhaseNoiseSpectrum(1e9, (1e3, bad), (-100.0, -110.0))
        with pytest.raises(ValueError):
            mw.PhaseNoiseSpectrum(1e9, (1e3, 1e4), (-100.0, bad))
        with pytest.raises(ValueError):
            mw.PhaseNoiseSpectrum(1e9, (1e3, 1e4), (-100.0, -bad))


def test_l_at_knots_and_interpolation():
    spec = _two_point()
    assert spec.l_at(1e3) == pytest.approx(-100.0, abs=1e-12)
    assert spec.l_at(1e6) == pytest.approx(-120.0, abs=1e-12)
    # Log-log linear: halfway in log-f is halfway in L.
    f_mid = math.sqrt(1e3 * 1e6)
    assert spec.l_at(f_mid) == pytest.approx(-110.0, abs=1e-9)


def test_l_at_extrapolation_rules():
    spec = _two_point()
    # Below the first knot the value holds.
    assert spec.l_at(1.0) == pytest.approx(-100.0, abs=1e-12)
    # Above the last knot the final log-log slope continues...
    assert spec.l_at(1e7) == pytest.approx(-126.667, abs=0.01)
    # ...but never below the -200 dBc/Hz floor.
    assert spec.l_at(1e30) == -200.0
    with pytest.raises(ValueError):
        spec.l_at(0.0)
    with pytest.raises(ValueError):
        spec.l_at(-10.0)


def test_ssb_to_psd_examples():
    g1 = mw.preset_spectrum("g1-1ghz")
    assert float(mw.ssb_to_psd(g1, 20e3)) == pytest.approx(7.962e-12, rel=1e-3)
    johnson = mw.flat_spectrum(-177.0)
    assert float(mw.ssb_to_psd(johnson, 1e5)) == pytest.approx(3.99e-18, rel=2e-3)
    flat = mw.flat_spectrum(-100.0)
    for f in (1.0, 37.0, 1e4, 1e8):
        assert float(mw.ssb_to_psd(flat, f)) == pytest.approx(2e-10, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        mw.preset_spectrum("g1-2.5ghz"),
        mw.preset_spectrum("g2-2.1ghz"),
        _two_point(),
        # Steep enough to reach the -200 dBc/Hz floor at about 13 kHz.
        mw.PhaseNoiseSpectrum(1e9, (1e3, 1e4), (-100.0, -190.0)),
        mw.PhaseNoiseSpectrum(1e9, (1e3,), (-100.0,)),
    ],
    ids=["g1", "g2", "two-point", "floor", "one-knot"],
)
def test_ssb_to_psd_power_laws_match_l_at(spec):
    # ssb_to_psd evaluates each segment as a power law; l_at is the dBc
    # oracle.  1 Hz to 1e12 Hz covers the hold below the first knot, every
    # span, the extrapolation above the last knot and the floor.
    f = np.geomspace(1.0, 1e12, 20_001)
    f = np.concatenate((f, spec.offsets_hz))
    got = mw.ssb_to_psd(spec, f)
    assert_allclose(got, 2.0 * 10.0 ** (spec.l_at(f) / 10.0), rtol=1e-13, atol=0)
    # Unsorted and scalar inputs give the same values.
    order = np.random.default_rng(3).permutation(f.size)
    assert_array_equal(mw.ssb_to_psd(spec, f[order]), got[order])
    scalar = mw.ssb_to_psd(spec, float(f[-1]))
    assert isinstance(scalar, float) and scalar == got[-1]
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            mw.ssb_to_psd(spec, np.array([1e3, bad]))


@pytest.mark.parametrize(
    "spec",
    [mw.preset_spectrum("g2-2.1ghz"), mw.flat_spectrum(-150.3), mw.flat_spectrum(-230.0)],
    ids=["g2", "flat", "flat-below-floor"],
)
def test_psd_kernel_fills_flat_segments_with_the_power_law_value(spec):
    # A segment of zero slope takes no log: its value is exp(a), which is
    # exp(a + 0 ln f) bit for bit, clamped to the floor like any other.
    laws = _power_laws(spec)
    edges = [0.0, *spec.offsets_hz, math.inf]
    f = np.geomspace(1e-3, 1e12, 30_001)
    got = _psd_power_law(spec)(f, np.empty(f.size))
    floor = 2.0 * 10.0 ** (L_FLOOR_DBC / 10.0)
    flat = 0
    for (a, b), lo, hi in zip(laws, edges[:-1], edges[1:]):
        inside = (f >= lo) & (f < hi)
        if b == 0.0 and inside.any():
            flat += 1
            want = np.maximum(np.exp(a + 0.0 * np.log(f[inside])), floor)
            assert_array_equal(got[inside], want)
    assert flat >= 1
    assert_array_equal(mw.ssb_to_psd(spec, f), got)


def test_psd_kernel_clamps_where_the_last_slope_crosses_the_floor():
    # The last slope, -30 dB/decade from -180 dBc/Hz at 10 kHz, reaches
    # -200 dBc/Hz at 46.4 kHz, inside the array: the segment is clamped past
    # the crossing and left alone before it.
    spec = mw.PhaseNoiseSpectrum(1e9, (1e3, 1e4), (-150.0, -180.0))
    f = np.geomspace(1e3, 1e6, 5_001)
    got = _psd_power_law(spec)(f, np.empty(f.size))
    assert_allclose(got, 2.0 * 10.0 ** (spec.l_at(f) / 10.0), rtol=1e-13, atol=0)
    crossing = 10.0 ** (4.0 + 20.0 / 30.0)
    floor = 2.0 * 10.0 ** (L_FLOOR_DBC / 10.0)
    assert np.all(got[f > crossing * (1 + 1e-12)] == floor)
    assert np.all(got[f < crossing * (1 - 1e-12)] > floor)


def test_psd_kernel_reused_buffer_gives_fresh_bits():
    # The kernel writes into the array it is given: whatever an earlier call
    # left there must not leak into the result.
    psd = _psd_power_law(mw.preset_spectrum("g1-2.5ghz"))
    f_big = np.geomspace(5.0, 1e8, 7_000)
    f_small = np.geomspace(50.0, 2e5, 3_001)
    buf = np.full(f_big.size, np.nan)
    psd(f_big, buf)
    assert_array_equal(psd(f_small, buf[: f_small.size]), psd(f_small, np.empty(f_small.size)))


def test_shift_and_carrier_scaling():
    spec = _two_point()
    up = spec.shifted_db(3.0103)
    assert float(mw.ssb_to_psd(up, 1e4)) == pytest.approx(
        2.0 * float(mw.ssb_to_psd(spec, 1e4)), rel=1e-4
    )
    doubled = spec.scaled_to_carrier(2 * spec.carrier_hz)
    assert doubled.carrier_hz == 2 * spec.carrier_hz
    # +20 log10(2) = +6.02 dB at every offset.
    assert doubled.l_at(5e4) - spec.l_at(5e4) == pytest.approx(6.0206, abs=1e-3)


def test_mix_equal_spectra_adds_3db():
    spec = _two_point()
    mixed = mw.mix_spectra(spec, spec)
    for f in (1e3, 3.7e4, 1e6):
        assert mixed.l_at(f) - spec.l_at(f) == pytest.approx(3.0103, abs=1e-6)
    assert mixed.carrier_hz == 2 * spec.carrier_hz


def test_mix_dominance():
    loud = _two_point(-114.0, -114.0)
    quiet = _two_point(-134.0, -134.0)
    mixed = mw.mix_spectra(loud, quiet)
    for f in (1e3, 2e4, 1e6):
        assert abs(mixed.l_at(f) - loud.l_at(f)) < 0.05


def test_mix_commutative_and_associative():
    a = _two_point(-100.0, -130.0)
    b = mw.PhaseNoiseSpectrum(1.5e9, (5e2, 2e6), (-95.0, -140.0), "b")
    ab = mw.mix_spectra(a, b)
    ba = mw.mix_spectra(b, a)
    freqs = np.logspace(3, 6, 40)
    assert_allclose(
        [ab.l_at(f) for f in freqs], [ba.l_at(f) for f in freqs], rtol=1e-12
    )
    # Associativity needs a shared offset grid: summed tables are log-log
    # interpolated, and interpolation is only additive on common knots.
    b2 = mw.PhaseNoiseSpectrum(1.5e9, (1e3, 1e6), (-95.0, -140.0), "b2")
    c = mw.PhaseNoiseSpectrum(0.5e9, (1e3, 1e6), (-110.0, -110.0), "c")
    left = mw.mix_spectra(mw.mix_spectra(a, b2), c)
    right = mw.mix_spectra(a, mw.mix_spectra(b2, c))
    assert_allclose(
        [left.l_at(f) for f in freqs], [right.l_at(f) for f in freqs], atol=1e-9
    )


def test_mix_difference_carrier():
    a = _two_point()
    b = mw.PhaseNoiseSpectrum(0.61e9, (1e3, 1e6), (-110.0, -130.0), "lo")
    diff = mw.mix_spectra(a, b, mode="difference")
    assert diff.carrier_hz == pytest.approx(2.87e9 - 0.61e9, rel=1e-12)
    with pytest.raises(ValueError):
        mw.mix_spectra(b, a, mode="difference")
    with pytest.raises(ValueError):
        mw.mix_spectra(a, b, mode="product")


def test_presets():
    names = mw.preset_names()
    assert names == sorted(names)
    for name in (
        "g1-1ghz",
        "g1-2.5ghz",
        "g1-6ghz",
        "g2-0.85ghz",
        "g2-2.1ghz",
        "g2-5.7ghz",
        "johnson-300k",
    ):
        assert name in names
        spec = mw.preset_spectrum(name)
        assert spec.label == name
    assert mw.preset_spectrum("g1-1ghz").l_at(20e3) == pytest.approx(-114.0, abs=0.5)
    assert mw.preset_spectrum("g1-1ghz").carrier_hz == 1e9
    assert mw.preset_spectrum("g2-0.85ghz").carrier_hz == 0.85e9
    johnson = mw.preset_spectrum("johnson-300k")
    for f in (10.0, 1e4, 1e8):
        assert johnson.l_at(f) == pytest.approx(-177.0, abs=1e-9)
    with pytest.raises(KeyError):
        mw.preset_spectrum("g3-9ghz")


def test_spectrum_file_round_trip(tmp_path):
    spec = _two_point()
    path = tmp_path / "table.csv"
    mw.save_spectrum(spec, path)
    back = mw.load_spectrum(path)
    assert back.carrier_hz == spec.carrier_hz
    assert back.offsets_hz == spec.offsets_hz
    assert back.l_dbc == spec.l_dbc
    text = path.read_text()
    assert "offset_hz,l_dbc_per_hz" in text
    assert "# carrier_hz=" in text


def test_spectrum_load_carrier_handling(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("offset_hz,l_dbc_per_hz\n10,-100\n100,-110\n")
    with pytest.raises(ValueError):
        mw.load_spectrum(path)
    spec = mw.load_spectrum(path, carrier_hz=2.5e9)
    assert spec.carrier_hz == 2.5e9
    assert spec.offsets_hz == (10.0, 100.0)


# --- phase-track synthesis -----------------------------------------------------

def test_track_flat_spectrum_variance():
    # S = 2e-12 rad^2/Hz over a 500 kHz band -> variance 1e-6 rad^2.
    flat = mw.flat_spectrum(-120.0)
    track = mw.synthesize_phase_track(flat, 1.0, 1e-6, seed=4)
    assert track.shape == (1_000_000,)
    assert float(track.var()) == pytest.approx(1e-6, rel=0.10)


def test_track_deep_floor_is_negligible():
    quiet = mw.flat_spectrum(-200.0)
    track = mw.synthesize_phase_track(quiet, 1e-2, 1e-6, seed=5)
    assert float(np.max(np.abs(track))) < 1e-6


def test_track_random_walk_increments():
    # L falling 20 dB/decade is a 1/f^2 PSD: increment variance grows
    # linearly with lag.
    offsets = tuple(np.logspace(1, 6, 11))
    l_tab = tuple(-60.0 - 20.0 * math.log10(f / 10.0) for f in offsets)
    spec = mw.PhaseNoiseSpectrum(2.87e9, offsets, l_tab, "rw-like")
    track = mw.synthesize_phase_track(spec, 0.1, 1e-6, seed=5)
    lags = np.array([1, 2, 4, 8, 16, 32, 64])
    avar = np.array([np.mean((track[lag:] - track[:-lag]) ** 2) for lag in lags])
    slope = np.polyfit(np.log(lags), np.log(avar), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.10)


def test_track_periodogram_matches_target():
    flat = mw.flat_spectrum(-120.0)
    dt, duration = 1e-6, 1e-3
    tracks = mw.synthesize_phase_track(flat, duration, dt, seed=3, n_tracks=200)
    n = tracks.shape[1]
    psd = np.abs(np.fft.rfft(tracks, axis=1)) ** 2 * (2.0 * dt / n)
    freqs = np.fft.rfftfreq(n, dt)
    band = (freqs >= 1.0 / duration) & (freqs <= 0.9 / (2.0 * dt))
    assert float(psd.mean(axis=0)[band].mean()) == pytest.approx(2e-12, rel=0.10)


def test_track_determinism_and_realizations():
    flat = mw.flat_spectrum(-120.0)
    a = mw.synthesize_phase_track(flat, 1e-3, 1e-6, seed=6)
    b = mw.synthesize_phase_track(flat, 1e-3, 1e-6, seed=6)
    assert_array_equal(a, b)
    c = mw.synthesize_phase_track(flat, 1e-3, 1e-6, seed=6, realization=1)
    assert not np.array_equal(a, c)
    d = mw.synthesize_phase_track(flat, 1e-3, 1e-6, seed=7)
    assert not np.array_equal(a, d)


def test_track_size_limits():
    flat = mw.flat_spectrum(-120.0)
    with pytest.raises(ValueError):
        mw.synthesize_phase_track(flat, 1e-6, 1e-6, seed=0)
    with pytest.raises(ValueError):
        mw.synthesize_phase_track(flat, (MAX_TRACK_SAMPLES + 10) * 1e-6, 1e-6, seed=0)


# --- noise processes -----------------------------------------------------------

def test_process_validation():
    with pytest.raises(ValueError):
        mw.WhiteNoise(-0.01)
    with pytest.raises(ValueError):
        mw.RandomWalkNoise(-1e-3, 1e6)
    with pytest.raises(ValueError):
        mw.RandomWalkNoise(1e-3, 0.0)
    with pytest.raises(ValueError):
        mw.PsdDrivenNoise(mw.flat_spectrum(-120.0), 0.0)


def test_white_noise_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mw.WhiteNoise(bad)


def test_random_walk_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mw.RandomWalkNoise(bad, 1e6)
        with pytest.raises(ValueError):
            mw.RandomWalkNoise(1e-3, bad)


def test_psd_process_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            mw.PsdDrivenNoise(mw.flat_spectrum(-120.0), bad)


def test_zero_sigma_gives_zeros():
    times = np.linspace(0.0, 1e-4, 16)
    assert_array_equal(
        sample_pulse_phases_batch(mw.WhiteNoise(0.0), times, 3), np.zeros((3, 16))
    )
    assert_array_equal(
        sample_pulse_phases_batch(mw.RandomWalkNoise(0.0, 1e6), times, 3), np.zeros((3, 16))
    )


def test_sample_pulse_phases_validation():
    proc = mw.WhiteNoise(0.01)
    with pytest.raises(ValueError):
        sample_pulse_phases_batch(proc, np.array([1e-5, 0.5e-5]), 1)
    with pytest.raises(ValueError):
        sample_pulse_phases_batch(proc, np.array([-1e-5, 1e-5]), 1)
    with pytest.raises(ValueError, match="one-dimensional"):
        sample_pulse_phases_batch(proc, np.array([[0.0, 1e-5], [2e-5, 3e-5]]), 1)


def test_white_process_statistics():
    proc = mw.WhiteNoise(0.01)
    samples = sample_pulse_phases_batch(proc, np.arange(100) * 1e-6, 10_000, seed=6)
    flat = samples.ravel()
    assert flat.size == 1_000_000
    assert float(flat.std(ddof=1)) == pytest.approx(0.01, rel=0.005)
    lag1 = float(np.corrcoef(flat[:-1], flat[1:])[0, 1])
    assert abs(lag1) < 0.01


def test_random_walk_increment_std():
    proc = mw.RandomWalkNoise(1e-3, 1e6)
    times = np.array([0.0, 70e-6])
    samples = sample_pulse_phases_batch(proc, times, 100_000, seed=7)
    increments = samples[:, 1] - samples[:, 0]
    want = 1e-3 * math.sqrt(1e6 * 70e-6)
    assert float(increments.std(ddof=1)) == pytest.approx(want, rel=0.02)


def test_random_walk_variance_linear_in_time():
    proc = mw.RandomWalkNoise(1e-3, 1e6)
    times = np.linspace(1e-5, 8e-5, 8)
    samples = sample_pulse_phases_batch(proc, times, 100_000, seed=7)
    var_t = samples.var(axis=0)
    r2 = float(np.corrcoef(times, var_t)[0, 1] ** 2)
    assert r2 > 0.999


def test_random_walk_discrete_jump_mode():
    proc = mw.RandomWalkNoise(1e-3, 1e6, discrete_jumps=True)
    times = np.array([0.0, 70e-6])
    samples = sample_pulse_phases_batch(proc, times, 100_000, seed=2)
    increments = samples[:, 1] - samples[:, 0]
    want = 1e-3 * math.sqrt(1e6 * 70e-6)
    assert float(increments.std(ddof=1)) == pytest.approx(want, rel=0.02)


def test_injection_bandwidth_gains():
    assert INJECTION_GAIN_WHITE == 0.8
    assert INJECTION_GAIN_RANDOM_WALK == 0.85
    wh = mw.WhiteNoise(0.01, emulate_injection_bandwidth=True)
    assert wh.effective_sigma == pytest.approx(0.8 * 0.01, rel=1e-12)
    assert mw.WhiteNoise(0.01).effective_sigma == 0.01
    rw = mw.RandomWalkNoise(1e-3, 1e6, emulate_injection_bandwidth=True)
    assert rw.effective_sigma == pytest.approx(0.85 * 1e-3, rel=1e-12)


def test_psd_process_flat_variance():
    # Flat S with cutoff fc: each sampled phase has variance S0 * fc.
    proc = mw.PsdDrivenNoise(mw.flat_spectrum(-120.0, f_max=1e7), f_cutoff=1e6)
    times = np.array([1e-5, 3e-5, 6e-5])
    samples = sample_pulse_phases_batch(proc, times, 10_000, seed=8)
    want = 2e-12 * 1e6
    assert_allclose(samples.var(axis=0), want, rtol=0.06)


def test_process_determinism():
    times = np.linspace(0.0, 1e-4, 32)
    for proc in (
        mw.WhiteNoise(0.01, seed=9),
        mw.RandomWalkNoise(1e-3, 1e6, seed=9),
        mw.PsdDrivenNoise(mw.flat_spectrum(-120.0), 1e6, seed=9),
    ):
        # Without a seed argument the process seed keys the draws.
        assert_array_equal(
            sample_pulse_phases_batch(proc, times, 1), sample_pulse_phases_batch(proc, times, 1)
        )
        batch = sample_pulse_phases_batch(proc, times, 50, seed=3)
        again = sample_pulse_phases_batch(proc, times, 50, seed=3)
        assert_array_equal(batch, again)
        assert not np.array_equal(
            batch, sample_pulse_phases_batch(proc, times, 50, seed=4)
        )


def test_blocked_draws_match_one_matrix_draw():
    # Blocks are drawn in row order from one Philox stream, so the first k
    # rows of a call that spans several blocks are those of a k-row call,
    # and all rows are those of one matrix draw from that stream.
    times = np.linspace(1e-6, 7e-5, 65)
    rows = _DRAW_BLOCK // times.size
    n = 3 * rows + 17
    white = mw.WhiteNoise(0.01)
    walk = mw.RandomWalkNoise(1e-3, 1e6)
    for proc in (white, walk, mw.RandomWalkNoise(1e-3, 3e5, discrete_jumps=True)):
        full = sample_pulse_phases_batch(proc, times, n, seed=19)
        for k in (1, rows - 1, rows + 1, 2 * rows + 5):
            assert_array_equal(full[:k], sample_pulse_phases_batch(proc, times, k, seed=19))
        if proc is white:
            normals = philox_rng(19, 0x7768697465, 1).standard_normal(full.shape)
            assert_array_equal(full, 0.01 * normals)
        if proc is walk:
            normals = philox_rng(19, 0x77616C6B, 1).standard_normal(full.shape)
            step_std = np.sqrt(1e-3**2 * 1e6 * np.diff(times, prepend=0.0))
            assert_array_equal(full, np.cumsum(step_std * normals, axis=1))


def test_batch_matches_single_draw_statistics():
    times = np.array([0.0, 2e-5, 7e-5])
    proc = mw.RandomWalkNoise(2e-3, 5e5, seed=11)
    batch = sample_pulse_phases_batch(proc, times, 20_000, seed=11)
    singles = np.concatenate(
        [sample_pulse_phases_batch(mw.RandomWalkNoise(2e-3, 5e5, seed=k), times, 1)
         for k in range(2000)]
    )
    assert_allclose(batch.std(axis=0)[1:], singles.std(axis=0)[1:], rtol=0.08)


def test_philox_rng_streams():
    a = philox_rng(5, 0x7768697465).standard_normal(8)
    b = philox_rng(5, 0x7768697465).standard_normal(8)
    c = philox_rng(5, 0x77616C6B).standard_normal(8)
    assert_array_equal(a, b)
    assert not np.array_equal(a, c)
