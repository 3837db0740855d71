"""Readout-stream synthesis, spectra, floor estimation and calibration."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import mwnoise as mw
from mwnoise.signal_pipeline import shot_sigma_from_readout

T_PI = 48e-9
T_DEAD = 15e-6


def _table_seq():
    return mw.PulseSequence(mw.SequenceKind.XY8, 64, 521.85e-9, T_PI, T_DEAD)


def _tesla_scale(seq):
    return 4.0 * mw.GAMMA_NV * seq.tau_tot


# --- aliasing -------------------------------------------------------------------

def test_alias_at_exact_multiple():
    assert mw.alias_frequency(11782.0, 11782.0) == (0.0, 11782.0)
    alias, ref = mw.alias_frequency(5 * 11782.0, 11782.0)
    assert alias == 0.0
    assert ref == 5 * 11782.0


def test_alias_paper_rate():
    alias, ref = mw.alias_frequency(457.9e3, 11778.6)
    assert ref == pytest.approx(459.3654e3, rel=1e-6)
    assert alias == pytest.approx(1.4654e3, rel=1e-3)


def test_alias_below_nyquist_is_identity():
    alias, ref = mw.alias_frequency(3.1e3, 11782.0)
    assert alias == 3.1e3
    assert ref == 0.0


def test_alias_half_multiple_tie():
    fs = 10e3
    alias, ref = mw.alias_frequency(1.5 * fs, fs)
    assert alias == pytest.approx(0.5 * fs, rel=1e-12)
    assert ref == fs  # tie broken toward the lower multiple
    assert mw.alias_frequency(0.5 * fs, fs) == (0.5 * fs, 0.0)


def test_alias_bound_and_validation():
    rng = np.random.default_rng(14)
    fs = 11782.865963467972
    for f in rng.uniform(0.0, 1e6, 200):
        alias, ref = mw.alias_frequency(float(f), fs)
        assert 0.0 <= alias <= fs / 2 + 1e-9
        assert ref == pytest.approx(round(float(f) / fs) * fs, abs=fs)
        assert abs(float(f) - ref) == pytest.approx(alias, abs=1e-6)
    with pytest.raises(ValueError):
        mw.alias_frequency(-1.0, fs)
    with pytest.raises(ValueError):
        mw.alias_frequency(1e3, 0.0)


# --- shot sigma -----------------------------------------------------------------

def test_shot_sigma_from_readout():
    model = mw.ReadoutModel(0.013, 1.23e9, 1.5e-6, 4e-6)
    xi = math.sqrt(2.0 * (1.0 + 1.5e-6 / 4e-6))
    want = xi / (0.013 * math.sqrt(1.23e9))
    assert shot_sigma_from_readout(model) == pytest.approx(want, rel=1e-12)
    assert shot_sigma_from_readout(2.5e-3) == 2.5e-3
    assert shot_sigma_from_readout(0.0) == 0.0
    with pytest.raises(ValueError):
        shot_sigma_from_readout(-1e-3)


# --- stream synthesis -----------------------------------------------------------

def test_stream_length_and_validation():
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, None, 0.0, 0.0, 0.0, 2.0, seed=0)
    assert stream.samples.shape == (round(2.0 * seq.f_samp),)
    assert stream.f_samp == seq.f_samp
    assert stream.duration == pytest.approx(2.0, rel=1e-3)
    with pytest.raises(ValueError):
        mw.synthesize_stream(seq, None, 0.0, 0.0, 0.0, 5.0 / seq.f_samp, seed=0)


def test_stream_constant_at_exact_multiple():
    # A test tone on an exact multiple of f_samp aliases to DC: every
    # sequence samples the same point of the sine.
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, None, 300e-12, 3 * seq.f_samp, 0.0, 2.0, seed=0)
    assert stream.samples.max() == stream.samples.min()
    assert stream.samples[0] == pytest.approx(300e-12 * math.sqrt(2.0), rel=1e-12)


def test_stream_determinism():
    seq = _table_seq()
    proc = mw.WhiteNoise(5e-3)
    a = mw.synthesize_stream(seq, proc, 1e-12, 3e3, 2e-3, 3.0, seed=21)
    b = mw.synthesize_stream(seq, proc, 1e-12, 3e3, 2e-3, 3.0, seed=21)
    assert_array_equal(a.samples, b.samples)
    c = mw.synthesize_stream(seq, proc, 1e-12, 3e3, 2e-3, 3.0, seed=22)
    assert not np.array_equal(a.samples, c.samples)


def test_stream_tone_readback():
    # 212 pT rms injected on a bin-centered alias reads back at its level.
    seq = _table_seq()
    f_test = 39 * seq.f_samp + 1400.0
    stream = mw.synthesize_stream(seq, None, 212e-12, f_test, 0.0, 60.0, seed=1)
    spectrum = mw.amplitude_spectrum(stream, 1.0)
    k = int(np.argmin(np.abs(spectrum.freqs - 1400.0)))
    assert spectrum.freqs[k] == pytest.approx(1400.0, abs=1.0)
    assert float(spectrum.asd[k]) == pytest.approx(212e-12, rel=0.02)


# --- amplitude spectra -----------------------------------------------------------

def test_spectrum_zero_input():
    stream = mw.ReadoutStream(np.zeros(2048), 1e3)
    spectrum = mw.amplitude_spectrum(stream, 0.5)
    assert_array_equal(spectrum.asd, np.zeros_like(spectrum.asd))
    assert spectrum.n_chunks == 4


def test_spectrum_sine_reads_rms_amplitude():
    fs, n = 1000.0, 4000
    t = np.arange(n) / fs
    a_rms = 3.2e-12
    stream = mw.ReadoutStream(a_rms * math.sqrt(2.0) * np.cos(2 * np.pi * 50.0 * t), fs)
    for interval in (1.0, 2.0):
        spectrum = mw.amplitude_spectrum(stream, interval)
        k = int(np.argmin(np.abs(spectrum.freqs - 50.0)))
        assert float(spectrum.asd[k]) == pytest.approx(
            a_rms * math.sqrt(interval), rel=1e-9
        )


def test_spectrum_parseval_single_chunk():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(4096) * 1e-12
    x -= x.mean()
    stream = mw.ReadoutStream(x, 1e3)
    spectrum = mw.amplitude_spectrum(stream, stream.duration)
    assert spectrum.n_chunks == 1
    total = float(np.sum(spectrum.asd**2) * spectrum.delta_f)
    assert total == pytest.approx(float(x.var()), rel=1e-6)


def test_spectrum_floor_independent_of_interval():
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, None, 0.0, 0.0, 4e-3, 60.0, seed=3)
    floors = []
    for interval in (0.25, 1.0):
        spectrum = mw.amplitude_spectrum(stream, interval)
        floors.append(mw.estimate_noise_floor(spectrum)[0])
    assert floors[0] == pytest.approx(floors[1], rel=0.05)


def test_spectrum_scale_equivariance():
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, None, 0.0, 0.0, 4e-3, 20.0, seed=5)
    scaled = mw.ReadoutStream(stream.samples * 7.0, stream.f_samp)
    base, _ = mw.estimate_noise_floor(mw.amplitude_spectrum(stream, 1.0))
    big, _ = mw.estimate_noise_floor(mw.amplitude_spectrum(scaled, 1.0))
    assert big == pytest.approx(7.0 * base, rel=1e-12)


def test_spectrum_hann_window_reads_sine():
    fs, n = 1000.0, 8000
    t = np.arange(n) / fs
    a_rms = 2e-12
    stream = mw.ReadoutStream(a_rms * math.sqrt(2.0) * np.cos(2 * np.pi * 100.0 * t), fs)
    spectrum = mw.amplitude_spectrum(stream, 2.0, window="hann")
    k = int(np.argmin(np.abs(spectrum.freqs - 100.0)))
    assert float(spectrum.asd[k]) == pytest.approx(
        a_rms * math.sqrt(2.0), rel=0.01
    )


def test_spectrum_validation():
    stream = mw.ReadoutStream(np.zeros(100), 1e3)
    with pytest.raises(ValueError):
        mw.amplitude_spectrum(stream, 0.2)  # chunk longer than the stream
    with pytest.raises(ValueError):
        mw.amplitude_spectrum(stream, 0.0)
    with pytest.raises(ValueError):
        mw.amplitude_spectrum(mw.ReadoutStream(np.zeros(10), 1e3), 1.0)


# --- noise-floor estimation -------------------------------------------------------

def _flat_fixture(level=6.0e-12, spikes=()):
    # Bounded jitter: the largest excursion is 1.7 sigma, so a clean fixture
    # can never trip the 4-sigma spike detector.
    fs = 11782.0
    freqs = np.arange(0.0, fs / 2, 1.0)
    asd = np.full(freqs.size, level)
    rng = np.random.default_rng(16)
    asd *= 1.0 + rng.uniform(-0.01, 0.01, freqs.size)
    for f_spike, factor in spikes:
        asd[int(f_spike)] = level * factor
    return mw.AmplitudeSpectrum(freqs, asd, 1.0, 10, fs)


def test_floor_flat_fixture_with_spike():
    spectrum = _flat_fixture(spikes=[(3000, 10.0)])
    floor, spike_bins = mw.estimate_noise_floor(spectrum)
    assert floor == pytest.approx(6.0e-12, rel=0.02)
    assert 3000 in spike_bins.tolist()


def test_floor_without_spikes_is_plain_median():
    spectrum = _flat_fixture()
    floor, spike_bins = mw.estimate_noise_floor(spectrum)
    include = spectrum.freqs >= 1e3
    assert floor == pytest.approx(float(np.median(spectrum.asd[include])), rel=1e-9)
    assert spike_bins.size == 0


def test_floor_dc_exclusion():
    spectrum = _flat_fixture()
    spectrum.asd[:900] = 1e-9  # huge low-frequency clutter, all below 1 kHz
    floor, _ = mw.estimate_noise_floor(spectrum)
    assert floor == pytest.approx(6.0e-12, rel=0.02)


def test_floor_test_tone_exclusion():
    spectrum = _flat_fixture(spikes=[(2500, 40.0)])
    floor, _ = mw.estimate_noise_floor(spectrum, f_test=2500.0)
    assert floor == pytest.approx(6.0e-12, rel=0.02)


def test_floor_custom_params_and_errors():
    spectrum = _flat_fixture()
    params = mw.FloorParams(dc_exclude_hz=2e3, test_halfwidth_hz=100.0)
    floor, _ = mw.estimate_noise_floor(spectrum, params=params)
    assert floor == pytest.approx(6.0e-12, rel=0.02)
    with pytest.raises(ValueError):
        mw.FloorParams(trim_fraction=1.5)
    with pytest.raises(ValueError):
        mw.estimate_noise_floor(
            spectrum, params=mw.FloorParams(dc_exclude_hz=1e6)
        )


def test_with_floor_attaches_results():
    spectrum = _flat_fixture(spikes=[(4200, 12.0)])
    annotated = mw.with_floor(spectrum)
    assert annotated.noise_floor == pytest.approx(6.0e-12, rel=0.02)
    assert 4200 in annotated.spike_bins.tolist()
    assert spectrum.noise_floor is None  # original untouched


def test_excess_noise_examples():
    assert mw.excess_noise(13.3e-12, 6.0e-12) == pytest.approx(11.9e-12, rel=0.01)
    assert mw.excess_noise(7.6e-12, 6.0e-12) == pytest.approx(4.7e-12, rel=0.01)
    assert mw.excess_noise(6.0e-12, 6.0e-12) == 0.0


def test_excess_noise_flags_fluctuation():
    with pytest.warns(RuntimeWarning):
        assert mw.excess_noise(5.5e-12, 6.0e-12) == 0.0
    with pytest.raises(ValueError):
        mw.excess_noise(-1e-12, 6.0e-12)


def test_sensitivity_from_floor():
    assert mw.sensitivity_from_floor(6e-12, 1.0) == 6e-12
    assert mw.sensitivity_from_floor(26e-12, 4.0) == pytest.approx(13e-12, rel=1e-12)
    with pytest.raises(ValueError):
        mw.sensitivity_from_floor(6e-12, 0.0)


# --- calibration ----------------------------------------------------------------

def _calibration_data(seq, v_max, kappa, n=25, noise=0.0, seed=17):
    arg_scale = 4.0 * math.sqrt(2.0) * mw.GAMMA_NV * seq.tau_tot
    v_quarter = (0.5 * math.pi) / (arg_scale * kappa)
    v_test = np.linspace(0.0, 2.4 * v_quarter, n)
    clean = v_max * np.abs(np.sin(arg_scale * kappa * v_test))
    rng = np.random.default_rng(seed)
    return v_test, clean * (1.0 + noise * rng.standard_normal(n))


def test_calibration_round_trip():
    seq = _table_seq()
    v_test, v_nv = _calibration_data(seq, 0.83, 3e-6)
    fit = mw.fit_calibration(v_test, v_nv, seq)
    assert fit.kappa == pytest.approx(3e-6, rel=1e-6)
    assert fit.v_max == pytest.approx(0.83, rel=1e-6)
    assert fit.residual_rms < 1e-9


def test_calibration_with_noise():
    seq = _table_seq()
    for kappa in (3e-7, 3e-6, 3e-5):
        v_test, v_nv = _calibration_data(seq, 0.83, kappa, noise=0.01)
        fit = mw.fit_calibration(v_test, v_nv, seq)
        assert fit.kappa == pytest.approx(kappa, rel=0.01)


def test_calibration_peak_value_is_v_max():
    seq = _table_seq()
    kappa, v_max = 5e-6, 0.42
    arg_scale = 4.0 * math.sqrt(2.0) * mw.GAMMA_NV * seq.tau_tot
    v_quarter = (0.5 * math.pi) / (arg_scale * kappa)
    v_test, v_nv = _calibration_data(seq, v_max, kappa)
    fit = mw.fit_calibration(v_test, v_nv, seq)
    predicted_peak = fit.v_max * abs(math.sin(arg_scale * fit.kappa * v_quarter))
    assert predicted_peak == pytest.approx(v_max, rel=1e-6)


def test_calibration_validation():
    seq = _table_seq()
    with pytest.raises(ValueError):
        mw.fit_calibration([0.0, 1.0, 2.0], [0.0, 0.1, 0.2], seq)
    v = np.linspace(0.0, 5.0, 10)
    with pytest.raises(ValueError):
        mw.fit_calibration(v, -np.abs(np.sin(v)), seq)
    rng = np.random.default_rng(18)
    with pytest.raises(mw.FitError):
        mw.fit_calibration(np.linspace(0.0, 1.0, 25), rng.uniform(0.0, 1.0, 25), seq)


# --- CSV round trips -------------------------------------------------------------

def test_stream_csv_round_trip(tmp_path):
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, mw.WhiteNoise(2e-3), 0.0, 0.0, 1e-3, 1.0, seed=7)
    path = tmp_path / "stream.csv"
    mw.save_stream(stream, path, metadata={"seed": 7})
    back = mw.load_stream(path)
    assert back.f_samp == pytest.approx(stream.f_samp, rel=1e-12)
    assert_allclose(back.samples, stream.samples, rtol=1e-12)
    head = path.read_text().splitlines()
    assert "t_s,readout_t" in head[:6]
    assert any(line.startswith("# f_samp_hz=") for line in head[:6])


def test_stream_csv_rejects_malformed_rows(tmp_path):
    head = "# f_samp_hz=1000.0\nt_s,readout_t\n0.0,1e-12\n"
    path = tmp_path / "stream.csv"
    for bad in ("0.001,abc\n", "0.001\n", "t_s,readout_t\n"):
        path.write_text(head + bad + "0.002,3e-12\n")
        with pytest.raises(ValueError, match="line 4"):
            mw.load_stream(path)
    # At most one header line, and only before the first data row.
    path.write_text("# f_samp_hz=1000.0\nt_s,readout_t\nsecond,header\n0.0,1e-12\n")
    with pytest.raises(ValueError, match="line 3"):
        mw.load_stream(path)


def test_spectrum_csv_round_trip(tmp_path):
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, None, 0.0, 0.0, 3e-3, 30.0, seed=8)
    spectrum = mw.with_floor(mw.amplitude_spectrum(stream, 1.0))
    path = tmp_path / "spectrum.csv"
    mw.save_amplitude_spectrum(spectrum, path, metadata={"seed": 8})
    back = mw.load_amplitude_spectrum(path)
    assert_allclose(back.freqs, spectrum.freqs, rtol=1e-12)
    assert_allclose(back.asd, spectrum.asd, rtol=1e-12)
    assert back.noise_floor == pytest.approx(spectrum.noise_floor, rel=1e-12)
    assert back.n_chunks == spectrum.n_chunks
    head = path.read_text().splitlines()
    assert any(line == "f_hz,asd_t_sqrts" for line in head[:8])


# --- end to end -----------------------------------------------------------------

def test_white_chain_reproduces_analytic_floor():
    # synthesize -> spectrum -> floor tracks the white-noise prediction
    # (converted to an FFT floor) across three decades of sigma_wh.
    seq = _table_seq()
    for sigma_wh in (1e-3, 1e-2, 1e-1):
        eta = mw.eta_white(sigma_wh, seq.f_center, seq.duty)
        want = mw.FFT_FLOOR_FACTOR * eta
        stream = mw.synthesize_stream(
            seq, mw.WhiteNoise(sigma_wh), 0.0, 0.0, 0.0, 30.0, seed=25
        )
        floor, _ = mw.estimate_noise_floor(mw.amplitude_spectrum(stream, 1.0))
        assert floor == pytest.approx(want, rel=0.10)


def test_shot_floor_matches_conversion():
    # A pure shot-noise stream lands on 1.253 * eta with
    # eta = sigma_shot / (4 gamma tau_tot sqrt(f_samp)).
    seq = _table_seq()
    sigma_shot = 4e-3
    stream = mw.synthesize_stream(seq, None, 0.0, 0.0, sigma_shot, 30.0, seed=26)
    floor, _ = mw.estimate_noise_floor(mw.amplitude_spectrum(stream, 1.0))
    want = (
        mw.FFT_FLOOR_FACTOR
        * (sigma_shot / _tesla_scale(seq))
        / math.sqrt(seq.f_samp)
    )
    assert floor == pytest.approx(want, rel=0.05)
