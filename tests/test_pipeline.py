"""Readout-stream synthesis, spectra, floor estimation and calibration."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import mwnoise as mw
from mwnoise import signal_pipeline
from mwnoise.core import read_csv
from mwnoise.noise_models import philox_rng
from mwnoise.signal_pipeline import shot_sigma_from_readout
from mwnoise.spin_simulator import phi_tot_batch

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
    assert stream.samples[0] == pytest.approx(300e-12 * math.sqrt(2.0), rel=1e-12, abs=0)


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
    assert float(spectrum.asd[k]) == pytest.approx(212e-12, rel=0.02, abs=0)


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
            a_rms * math.sqrt(interval), rel=1e-9, abs=0
        )


def test_spectrum_parseval_single_chunk():
    rng = np.random.default_rng(15)
    x = rng.standard_normal(4096) * 1e-12
    x -= x.mean()
    stream = mw.ReadoutStream(x, 1e3)
    spectrum = mw.amplitude_spectrum(stream, stream.duration)
    assert spectrum.n_chunks == 1
    total = float(np.sum(spectrum.asd**2) * spectrum.delta_f)
    assert total == pytest.approx(float(x.var()), rel=1e-6, abs=0)


def test_spectrum_floor_independent_of_interval():
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, None, 0.0, 0.0, 4e-3, 60.0, seed=3)
    floors = []
    for interval in (0.25, 1.0):
        spectrum = mw.amplitude_spectrum(stream, interval)
        floors.append(mw.estimate_noise_floor(spectrum)[0])
    assert floors[0] == pytest.approx(floors[1], rel=0.05, abs=0)


def test_spectrum_scale_equivariance():
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, None, 0.0, 0.0, 4e-3, 20.0, seed=5)
    scaled = mw.ReadoutStream(stream.samples * 7.0, stream.f_samp)
    base, _ = mw.estimate_noise_floor(mw.amplitude_spectrum(stream, 1.0))
    big, _ = mw.estimate_noise_floor(mw.amplitude_spectrum(scaled, 1.0))
    assert big == pytest.approx(7.0 * base, rel=1e-12, abs=0)


def test_spectrum_hann_window_reads_sine():
    fs, n = 1000.0, 8000
    t = np.arange(n) / fs
    a_rms = 2e-12
    stream = mw.ReadoutStream(a_rms * math.sqrt(2.0) * np.cos(2 * np.pi * 100.0 * t), fs)
    spectrum = mw.amplitude_spectrum(stream, 2.0, window="hann")
    k = int(np.argmin(np.abs(spectrum.freqs - 100.0)))
    assert float(spectrum.asd[k]) == pytest.approx(
        a_rms * math.sqrt(2.0), rel=0.01, abs=0
    )


def test_spectrum_validation():
    stream = mw.ReadoutStream(np.zeros(100), 1e3)
    with pytest.raises(ValueError):
        mw.amplitude_spectrum(stream, 0.2)  # chunk longer than the stream
    with pytest.raises(ValueError):
        mw.amplitude_spectrum(stream, 0.0)
    with pytest.raises(ValueError):
        mw.amplitude_spectrum(mw.ReadoutStream(np.zeros(10), 1e3), 1.0)


# --- chunked stream walk -----------------------------------------------------------
# The stream path walks blocks of _BLOCK_SAMPLES samples (whole chunks); the
# references below build each stream in one piece and average the stacked
# chunk spectra with mean(axis=0), as the one-shot implementation did.

XY8_1 = mw.make_xy8(1, 458e3, T_PI, T_DEAD)  # n = 42 134 samples per 1 s chunk


def _block_sizes(n):
    # Default, one chunk per block, and three chunks per block (a count
    # that divides none of the chunk totals used below).
    return (signal_pipeline._BLOCK_SAMPLES, 1000, 3 * n)


def _reference_asd(samples, n, f_samp, window=None):
    data = samples[: samples.size // n * n].reshape(-1, n)
    if window == "hann":
        w = np.hanning(n)
        data = data * (w / np.mean(w))
    spectra = np.abs(np.fft.rfft(data, axis=1))
    spectra *= math.sqrt(2.0) / n
    spectra[:, 0] /= math.sqrt(2.0)
    if n % 2 == 0:
        spectra[:, -1] /= math.sqrt(2.0)
    return spectra.mean(axis=0) * math.sqrt(n / f_samp)


def _reference_stream(seq, process, amp, f_test, shot_sigma, n_seq, seed):
    scale = _tesla_scale(seq)
    samples = amp * math.sqrt(2.0) * np.cos(2.0 * np.pi * f_test * (np.arange(n_seq) / seq.f_samp))
    if process is not None:
        samples = samples + phi_tot_batch(seq, process, n_seq, seed) / scale
    rng = philox_rng(seed, 0x73686F74)
    return samples + shot_sigma * rng.standard_normal(n_seq) / scale


@pytest.mark.parametrize("window", [None, "hann"])
@pytest.mark.parametrize("f_samp, n", [(1000.0, 250), (997.0, 333)])
def test_spectrum_sum_equals_stacked_mean(monkeypatch, window, f_samp, n):
    rng = np.random.default_rng(19)
    samples = rng.standard_normal(11 * n + 7) * 1e-12  # 11 chunks and a partial one
    stream = mw.ReadoutStream(samples, f_samp)
    want = _reference_asd(samples, n, f_samp, window)
    for block in (signal_pipeline._BLOCK_SAMPLES, 1, 4 * n):
        monkeypatch.setattr(signal_pipeline, "_BLOCK_SAMPLES", block)
        spectrum = mw.amplitude_spectrum(stream, n / f_samp, window=window)
        assert spectrum.n_chunks == 11
        assert_array_equal(spectrum.asd, want)


def test_stream_blocks_keep_every_sample_and_draw(monkeypatch):
    proc = mw.WhiteNoise(4e-3)
    n_seq = round(7.0 * XY8_1.f_samp)  # 7 chunks of 42 134 and 2 samples more
    assert n_seq % 42134 == 2
    want = _reference_stream(XY8_1, proc, 90e-12, 457.9e3, 2e-3, n_seq, 23)
    for block in _block_sizes(42134):
        monkeypatch.setattr(signal_pipeline, "_BLOCK_SAMPLES", block)
        stream = mw.synthesize_stream(XY8_1, proc, 90e-12, 457.9e3, 2e-3, 7.0, seed=23)
        assert_array_equal(stream.samples, want)
        on, off = mw.stream_spectra(XY8_1, proc, 90e-12, 457.9e3, 2e-3, 7.0, 1.0, seed=23)
        assert on.n_chunks == off.n_chunks == 7
        assert_array_equal(on.asd, _reference_asd(want, 42134, XY8_1.f_samp))
        quiet = _reference_stream(XY8_1, None, 90e-12, 457.9e3, 2e-3, n_seq, 23)
        assert_array_equal(off.asd, _reference_asd(quiet, 42134, XY8_1.f_samp))
    on, off = mw.stream_spectra(XY8_1, None, 90e-12, 457.9e3, 2e-3, 7.0, 1.0, seed=23)
    assert off is None


def test_gradiometer_blocks_keep_every_sample_and_shot_draw(monkeypatch):
    # Channel 2's shot draws are the second row of one (2, n) draw.
    proc = mw.WhiteNoise(6e-3)
    n_seq = 5 * 42134 + 11
    scale = _tesla_scale(XY8_1)
    t = np.arange(n_seq) / XY8_1.f_samp
    uniform = 40e-12 * math.sqrt(2.0) * np.cos(2.0 * np.pi * 3e3 * t)
    gradient = 70e-12 * math.sqrt(2.0) * np.cos(2.0 * np.pi * 5e3 * t)
    common = phi_tot_batch(XY8_1, proc, n_seq, 29)
    shot = 4e-4 * philox_rng(29, 0x67726164).standard_normal((2, n_seq))
    want = [
        gain * (scale * (uniform + sign * gradient) + common + shot[i]) / scale
        for i, (gain, sign) in enumerate(((1.0, 1.0), (0.95, -1.0)))
    ]
    want.append(want[0] - want[1])
    args = (XY8_1, proc, 40e-12, 70e-12, 4e-4, n_seq)
    kwargs = {"f_uniform": 3e3, "f_gradient": 5e3, "channel_gains": (1.0, 0.95)}
    for block in _block_sizes(42134):
        monkeypatch.setattr(signal_pipeline, "_BLOCK_SAMPLES", block)
        streams = mw.simulate_gradiometer(*args, 29, **kwargs)
        spectra = mw.gradiometer_spectra(*args, 1.0, 29, **kwargs)
        for stream, spectrum, samples in zip(streams, spectra, want):
            assert_array_equal(stream.samples, samples)
            assert spectrum.n_chunks == 5
            assert_array_equal(spectrum.asd, _reference_asd(samples, 42134, XY8_1.f_samp))


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
    assert floor == pytest.approx(6.0e-12, rel=0.02, abs=0)
    assert 3000 in spike_bins.tolist()


def test_floor_without_spikes_is_plain_median():
    spectrum = _flat_fixture()
    floor, spike_bins = mw.estimate_noise_floor(spectrum)
    include = spectrum.freqs >= 1e3
    assert floor == pytest.approx(float(np.median(spectrum.asd[include])), rel=1e-9, abs=0)
    assert spike_bins.size == 0


def test_floor_dc_exclusion():
    spectrum = _flat_fixture()
    spectrum.asd[:900] = 1e-9  # huge low-frequency clutter, all below 1 kHz
    floor, _ = mw.estimate_noise_floor(spectrum)
    assert floor == pytest.approx(6.0e-12, rel=0.02, abs=0)


def test_floor_test_tone_exclusion():
    spectrum = _flat_fixture(spikes=[(2500, 40.0)])
    floor, _ = mw.estimate_noise_floor(spectrum, f_test=2500.0)
    assert floor == pytest.approx(6.0e-12, rel=0.02, abs=0)


def test_floor_custom_params_and_errors():
    spectrum = _flat_fixture()
    params = mw.FloorParams(dc_exclude_hz=2e3, test_halfwidth_hz=100.0)
    floor, _ = mw.estimate_noise_floor(spectrum, params=params)
    assert floor == pytest.approx(6.0e-12, rel=0.02, abs=0)
    with pytest.raises(ValueError):
        mw.FloorParams(trim_fraction=1.5)
    with pytest.raises(ValueError):
        mw.estimate_noise_floor(
            spectrum, params=mw.FloorParams(dc_exclude_hz=1e6)
        )


def test_floor_dc_exclusion_follows_slow_sample_rates():
    # XY8-64 at 458 kHz samples its stream at about 1.74 kHz, so a fixed
    # 1 kHz cut would exclude every bin up to the 0.87 kHz Nyquist
    # frequency.  By default the cut is min(1 kHz, f_samp / 4); an explicit
    # value is taken as given.
    fs = 1742.0
    freqs = np.arange(0.0, fs / 2, 0.5)
    asd = np.full(freqs.size, 6.0e-12)
    asd[freqs < 300.0] = 1e-9
    slow = mw.AmplitudeSpectrum(freqs, asd, 2.0, 10, fs)
    floor, _ = mw.estimate_noise_floor(slow)
    assert floor == 6.0e-12
    with pytest.raises(ValueError):
        mw.estimate_noise_floor(slow, params=mw.FloorParams(dc_exclude_hz=1e3))
    # From f_samp = 4 kHz up the default cut is 1 kHz, as before.
    fast = _flat_fixture(spikes=[(2500, 40.0)])
    floor, spikes = mw.estimate_noise_floor(fast)
    floor_1k, spikes_1k = mw.estimate_noise_floor(fast, params=mw.FloorParams(dc_exclude_hz=1e3))
    assert floor == floor_1k
    assert_array_equal(spikes, spikes_1k)


def test_excess_noise_examples():
    assert mw.excess_noise(13.3e-12, 6.0e-12) == pytest.approx(11.9e-12, rel=0.01, abs=0)
    assert mw.excess_noise(7.6e-12, 6.0e-12) == pytest.approx(4.7e-12, rel=0.01, abs=0)
    assert mw.excess_noise(6.0e-12, 6.0e-12) == 0.0


def test_excess_noise_flags_fluctuation():
    with pytest.warns(RuntimeWarning):
        assert mw.excess_noise(5.5e-12, 6.0e-12) == 0.0
    with pytest.raises(ValueError):
        mw.excess_noise(-1e-12, 6.0e-12)


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
    assert fit.kappa == pytest.approx(3e-6, rel=1e-6, abs=0)
    assert fit.v_max == pytest.approx(0.83, rel=1e-6)
    assert fit.residual_rms < 1e-9


def test_calibration_with_noise():
    seq = _table_seq()
    for kappa in (3e-7, 3e-6, 3e-5):
        v_test, v_nv = _calibration_data(seq, 0.83, kappa, noise=0.01)
        fit = mw.fit_calibration(v_test, v_nv, seq)
        assert fit.kappa == pytest.approx(kappa, rel=0.01, abs=0)


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


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_calibration_rejects_non_finite_data(column, bad):
    seq = _table_seq()
    data = np.array(_calibration_data(seq, 0.83, 3e-6))
    data[column, 10] = bad
    with pytest.raises(ValueError, match="finite"):
        mw.fit_calibration(data[0], data[1], seq)


def test_calibration_memory_is_flat_in_data_length(monkeypatch):
    # The kappa-by-point arrays are built a block at a time: the fit does
    # not depend on the block, and 600 points stay far below the 19 MB one
    # whole-grid array would take.
    seq = _table_seq()
    v_test, v_nv = _calibration_data(seq, 0.83, 3e-6, n=600, noise=0.01)
    tracemalloc.start()
    try:
        fit = mw.fit_calibration(v_test, v_nv, seq)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 12.0
    monkeypatch.setattr(signal_pipeline, "_CAL_BLOCK", 2**14)
    assert mw.fit_calibration(v_test, v_nv, seq) == fit


# --- CSV round trips -------------------------------------------------------------

def test_stream_csv_rejects_malformed_rows(tmp_path):
    head = "# f_samp_hz=1000.0\nt_s,readout_t\n0.0,1e-12\n"
    path = tmp_path / "stream.csv"
    for bad in ("0.001,abc\n", "0.001\n", "t_s,readout_t\n", "0.001,nan\n", "inf,1e-12\n"):
        path.write_text(head + bad + "0.002,3e-12\n")
        with pytest.raises(ValueError, match="line 4"):
            read_csv(path, 2)
    # At most one header line, and only before the first data row.
    path.write_text("# f_samp_hz=1000.0\nt_s,readout_t\nsecond,header\n0.0,1e-12\n")
    with pytest.raises(ValueError, match="line 3"):
        read_csv(path, 2)


def test_spectrum_csv_round_trip(tmp_path):
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, None, 0.0, 0.0, 3e-3, 30.0, seed=8)
    spectrum = mw.amplitude_spectrum(stream, 1.0)
    path = tmp_path / "spectrum.csv"
    mw.save_amplitude_spectrum(spectrum, path, metadata={"seed": 8})
    meta, data = read_csv(path, 2)
    assert_array_equal(data[:, 0], spectrum.freqs)
    assert_array_equal(data[:, 1], spectrum.asd)
    assert float(meta["f_samp_hz"]) == spectrum.f_samp
    assert float(meta["interval_s"]) == spectrum.interval
    assert int(meta["n_chunks"]) == spectrum.n_chunks
    assert meta["seed"] == "8"
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
        assert floor == pytest.approx(want, rel=0.10, abs=0)


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
    assert floor == pytest.approx(want, rel=0.05, abs=0)
