"""Readout-stream synthesis, spectra, floor estimation and calibration."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import mwnoise as mw
from mwnoise import signal_pipeline
from mwnoise.core import read_csv
from mwnoise.noise_models import _keyed_rng
from mwnoise.spin_simulator import _phi_tot_draws

T_PI = 48e-9
T_DEAD = 15e-6


def _table_seq():
    return mw.PulseSequence(mw.SequenceKind.XY8, 64, 521.85e-9, T_PI, T_DEAD)


def _tesla_scale(seq):
    return 4.0 * mw.GAMMA_NV * seq.tau_tot


def _phi_tot(seq, process, n, seed):
    """phi_tot of ``n`` consecutive sequences of a readout stream."""
    return _phi_tot_draws(seq, process, seed)(np.empty(n))


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
    # A readout model's per-sequence shot sigma is xi / (C sqrt(n)), and its
    # shot-noise sensitivity is eta_phi of that sigma.
    model = mw.ReadoutModel(0.013, 1.23e9, 1.5e-6, 4e-6)
    xi = math.sqrt(2.0 * (1.0 + 1.5e-6 / 4e-6))
    want = xi / (0.013 * math.sqrt(1.23e9))
    assert model.shot_sigma == pytest.approx(want, rel=1e-12)
    seq = _table_seq()
    assert mw.eta_shot_noise(model, seq) == mw.eta_phi(model.shot_sigma, seq)


def _stream_call(name, seq, shot_sigma):
    process = mw.WhiteNoise(0.01)
    if name == "synthesize_stream":
        return mw.synthesize_stream(seq, None, 0.0, 0.0, shot_sigma, 2.0)
    if name == "stream_spectra":
        return mw.stream_spectra(seq, process, 0.0, 0.0, shot_sigma, 2.0, 0.5)
    if name == "simulate_gradiometer":
        return mw.simulate_gradiometer(seq, process, 0.0, 0.0, shot_sigma, 2000)
    return mw.gradiometer_spectra(seq, process, 0.0, 0.0, shot_sigma, 2000, 0.01)


@pytest.mark.parametrize("shot_sigma", [-1e-3, math.nan, math.inf], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize(
    "name", ["synthesize_stream", "stream_spectra", "simulate_gradiometer", "gradiometer_spectra"]
)
def test_stream_rejects_bad_shot_sigma(name, shot_sigma):
    # A NaN shot sigma would fail the `shot_sigma > 0` test and drop the
    # shot term (an all-zero stream, or a floor without shot noise), and an
    # infinite one would give NaN floors: both are rejected, as is a
    # negative one.
    with pytest.raises(ValueError, match="shot_sigma"):
        _stream_call(name, _table_seq(), shot_sigma)


# --- stream synthesis -----------------------------------------------------------

def test_stream_length_and_validation():
    seq = _table_seq()
    stream = mw.synthesize_stream(seq, None, 0.0, 0.0, 0.0, 2.0, seed=0)
    assert stream.samples.shape == (round(2.0 * seq.f_samp),)
    assert stream.f_samp == seq.f_samp
    assert stream.samples.size / stream.f_samp == pytest.approx(2.0, rel=1e-3)
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
    spectrum = mw.amplitude_spectrum(stream, x.size / stream.f_samp)
    assert spectrum.n_chunks == 1
    total = float(np.sum(spectrum.asd**2) * (spectrum.freqs[1] - spectrum.freqs[0]))
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


def test_spectrum_validation():
    stream = mw.ReadoutStream(np.zeros(100), 1e3)
    with pytest.raises(ValueError):
        mw.amplitude_spectrum(stream, 0.2)  # chunk longer than the stream
    with pytest.raises(ValueError):
        mw.amplitude_spectrum(stream, 0.0)
    with pytest.raises(ValueError):
        mw.amplitude_spectrum(mw.ReadoutStream(np.zeros(10), 1e3), 1.0)


# --- chunk transforms ------------------------------------------------------------
# Lengths with no prime factor above _PACKED_PRIME keep np.fft.rfft bit for
# bit: 11-smooth ones, 11 881 = 109^2 and 12 019 = 7 * 17 * 101.  The others
# are packed: 42 134 = 2 * 21 067 (XY8-1 at 1 s), 11 783 (prime, XY8-8),
# 6 463 = 23 * 281 (XY8-16) and 2 018 = 2 * 1 009.

@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize(
    "n, packed",
    [(42000, False), (12000, False), (11881, False), (12019, False), (11, False),
     (42134, True), (11783, True), (6463, True), (2018, True)],
)
def test_chunk_transform_matches_rfft(n, packed, rows):
    x = np.random.default_rng(n).standard_normal((rows, n))
    want = np.abs(np.fft.rfft(x, axis=1))
    assert (signal_pipeline._largest_prime_factor(n) > signal_pipeline._PACKED_PRIME) == packed
    got = signal_pipeline._ChunkTransform(n)(x.copy())
    assert got.shape == want.shape
    if packed:
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(want)
    else:
        assert_array_equal(got, want)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is double")
@pytest.mark.parametrize("n", [1009, 2018])
def test_packed_transform_matches_exact_dft(n):
    # The DFT summed in long double, with angles reduced exactly modulo n.
    x = np.random.default_rng(n).standard_normal((3, n))
    two_pi = 8 * np.arctan(np.longdouble(1))
    angle = np.outer(np.arange(n // 2 + 1), np.arange(n)) % n * (two_pi / n)
    xl = x.astype(np.longdouble)
    exact = np.hypot(xl @ np.cos(angle).T, xl @ np.sin(angle).T)
    got = signal_pipeline._ChunkTransform(n)(x.copy())
    assert np.max(np.abs(got - exact)) <= 2e-15 * np.max(exact)


# --- chunked stream walk -----------------------------------------------------------
# The stream path walks blocks of _BLOCK_SAMPLES samples (whole chunks); the
# references below build each stream in one piece and average the stacked
# chunk spectra with mean(axis=0), as the one-shot implementation did.

XY8_1 = mw.make_xy8(1, 458e3, T_PI, T_DEAD)  # n = 42 134 samples per 1 s chunk
XY8_8 = mw.make_xy8(8, 458e3, T_PI, T_DEAD)  # n = 11 783 (prime)

# Gradiometer lengths: 5 chunks and 11 samples at XY8-1, and 63 s at XY8-8,
# which is 62 chunks: a default block of 44 chunks, then one of 18 whose
# three channels split over two lanes at channel 2's chunk 9 by chunk count
# (chunk 8 by pairs of chunks).
GRADIOMETER_SEQUENCES = {XY8_1: 5 * 42134 + 11, XY8_8: round(63.0 * XY8_8.f_samp)}
# Stream durations of 7 chunks, an odd count, and a partial chunk.
STREAM_SECONDS = {XY8_1: 7.0, XY8_8: 8.0}


def _block_sizes(n):
    # Default, one chunk per block, and three chunks per block (a count
    # that divides none of the chunk totals used below).
    return (signal_pipeline._BLOCK_SAMPLES, 1000, 3 * n)


def _reference_asd(samples, n, f_samp):
    data = samples[: samples.size // n * n].reshape(-1, n)
    spectra = signal_pipeline._ChunkTransform(n)(data.copy())
    spectra *= math.sqrt(2.0) / n
    spectra[:, 0] /= math.sqrt(2.0)
    if n % 2 == 0:
        spectra[:, -1] /= math.sqrt(2.0)
    return spectra.mean(axis=0) * math.sqrt(n / f_samp)


def _reference_stream(seq, process, amp, f_test, shot_sigma, n_seq, seed):
    scale = _tesla_scale(seq)
    samples = amp * math.sqrt(2.0) * np.cos(2.0 * np.pi * f_test * (np.arange(n_seq) / seq.f_samp))
    if process is not None:
        samples = samples + _phi_tot(seq, process, n_seq, seed) / scale
    rng = _keyed_rng(seed, 0x73686F74)
    return samples + shot_sigma * rng.standard_normal(n_seq) / scale


# The ids keep their window part, None, so each case keeps its name.
@pytest.mark.parametrize(
    "f_samp, n",
    [(1000.0, 250), (997.0, 333), (1000.0, 1009)],
    ids=["1000.0-250-None", "997.0-333-None", "1000.0-1009-None"],
)
def test_spectrum_sum_equals_stacked_mean(monkeypatch, f_samp, n):
    rng = np.random.default_rng(19)
    samples = rng.standard_normal(11 * n + 7) * 1e-12  # 11 chunks and a partial one
    stream = mw.ReadoutStream(samples, f_samp)
    want = _reference_asd(samples, n, f_samp)
    for block in (signal_pipeline._BLOCK_SAMPLES, 1, 4 * n):
        monkeypatch.setattr(signal_pipeline, "_BLOCK_SAMPLES", block)
        spectrum = mw.amplitude_spectrum(stream, n / f_samp)
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


def _reference_gradiometer(
    seq, process, uniform, gradient, shot_sigma, n_seq, seed, f_uniform, f_gradient
):
    # Channel 2's shot draws are the second row of one (2, n) draw.
    scale = _tesla_scale(seq)
    t = np.arange(n_seq) / seq.f_samp
    uniform = uniform * math.sqrt(2.0) * np.cos(2.0 * np.pi * f_uniform * t)
    gradient = gradient * math.sqrt(2.0) * np.cos(2.0 * np.pi * f_gradient * t)
    common = _phi_tot(seq, process, n_seq, seed)
    shot = shot_sigma * _keyed_rng(seed, 0x67726164).standard_normal((2, n_seq))
    channels = [
        (scale * (uniform + sign * gradient) + common + shot[i]) / scale
        for i, sign in enumerate((1.0, -1.0))
    ]
    return [*channels, channels[0] - channels[1]]


def test_gradiometer_blocks_keep_every_sample_and_shot_draw(monkeypatch):
    proc = mw.WhiteNoise(6e-3)
    n_seq = 5 * 42134 + 11
    want = _reference_gradiometer(XY8_1, proc, 40e-12, 70e-12, 4e-4, n_seq, 29, 3e3, 5e3)
    args = (XY8_1, proc, 40e-12, 70e-12, 4e-4, n_seq)
    kwargs = {"f_uniform": 3e3, "f_gradient": 5e3}
    for block in _block_sizes(42134):
        monkeypatch.setattr(signal_pipeline, "_BLOCK_SAMPLES", block)
        streams = mw.simulate_gradiometer(*args, 29, **kwargs)
        spectra = mw.gradiometer_spectra(*args, 1.0, 29, **kwargs)
        for stream, spectrum, samples in zip(streams, spectra, want):
            assert_array_equal(stream.samples, samples)
            assert spectrum.n_chunks == 5
            assert_array_equal(spectrum.asd, _reference_asd(samples, 42134, XY8_1.f_samp))


def test_stream_spectra_bits_independent_of_lanes(monkeypatch, force_lanes):
    # Each spectrum sum takes one lane task per block, and a block's tasks
    # all finish before the next block is built, so every sum adds its chunk
    # rows in stream order: the spectra of one, two and three lanes are
    # bit-identical.  At XY8-8's odd length each chunk is transformed
    # together with its fixed partner, whatever the lane's piece.  A short
    # switch interval interleaves the lanes' Python code as often as it can.
    proc = mw.WhiteNoise(4e-3)
    grad_kwargs = {"f_uniform": 3e3, "f_gradient": 5e3}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seq, n_grad in GRADIOMETER_SEQUENCES.items():
            n = round(seq.f_samp)
            grad_args = (seq, proc, 40e-12, 70e-12, 4e-4, n_grad, 1.0, 29)
            for block in _block_sizes(n):
                monkeypatch.setattr(signal_pipeline, "_BLOCK_SAMPLES", block)
                runs = []
                for cap in (1, 2, 3):
                    sizes = force_lanes(cap)
                    on, off = mw.stream_spectra(
                        seq, proc, 90e-12, 457.9e3, 2e-3, STREAM_SECONDS[seq], 1.0, seed=23
                    )
                    channels = mw.gradiometer_spectra(*grad_args, **grad_kwargs)
                    # One pool per call: on/off takes two lanes, the
                    # gradiometer min(3 sums, cap).
                    assert sizes == ([] if cap == 1 else [2, cap])
                    assert on.n_chunks == 7 and channels[0].n_chunks == n_grad // n
                    runs.append([on.asd, off.asd, *(spectrum.asd for spectrum in channels)])
                for run in runs[1:]:
                    for got, want in zip(run, runs[0]):
                        assert_array_equal(got, want)
    finally:
        sys.setswitchinterval(switch)


# The build paths of the stream walk: (process, test field, shot sigma) of an
# on/off readout, or (uniform, gradient, f_uniform, f_gradient) of a
# gradiometer.  A field of amplitude 0 is not built.  "gradiometer-gains"
# keeps its id so the test ids stay stable; it is the build of two nonzero
# fields at two frequencies.
WALK_CASES = {
    "no-shot": (mw.WhiteNoise(4e-3), 90e-12, 0.0),
    "noiseless": (None, 90e-12, 2e-3),
    "gradiometer-gains": (40e-12, 70e-12, 3e3, 5e3),
    "no-field": (mw.WhiteNoise(4e-3), 0.0, 2e-3),
    "no-field-no-shot": (mw.WhiteNoise(4e-3), 0.0, 0.0),
    "no-field-noiseless": (None, 0.0, 2e-3),
    "gradiometer-no-uniform": (0.0, 70e-12, 3e3, 5e3),
    "gradiometer-no-gradient": (40e-12, 0.0, 3e3, 5e3),
    "gradiometer-no-field": (0.0, 0.0, 3e3, 5e3),
    "gradiometer-one-frequency": (40e-12, 70e-12, 394e3, 394e3),
}


def _walk_arrays(case, seq):
    # The streams and spectra of one build path of the stream walk.
    if case.startswith("gradiometer"):
        uniform, gradient, f_uniform, f_gradient = WALK_CASES[case]
        args = (seq, mw.WhiteNoise(4e-3), uniform, gradient, 4e-4, GRADIOMETER_SEQUENCES[seq])
        kwargs = {"f_uniform": f_uniform, "f_gradient": f_gradient}
        streams = mw.simulate_gradiometer(*args, 31, **kwargs)
        spectra = mw.gradiometer_spectra(*args, 1.0, 31, **kwargs)
    else:
        process, amp, shot = WALK_CASES[case]
        args = (seq, process, amp, 457.9e3, shot, STREAM_SECONDS[seq])
        streams = [mw.synthesize_stream(*args, seed=23)]
        spectra = mw.stream_spectra(*args, 1.0, seed=23)
        assert (spectra[1] is None) == (process is None)
    return [stream.samples for stream in streams] + [s.asd for s in spectra if s is not None]


def _walk_reference(case, seq):
    # What _walk_arrays returns, from the expressions built in one piece.
    n = round(seq.f_samp)
    if case.startswith("gradiometer"):
        uniform, gradient, f_uniform, f_gradient = WALK_CASES[case]
        streams = _reference_gradiometer(
            seq, mw.WhiteNoise(4e-3), uniform, gradient, 4e-4, GRADIOMETER_SEQUENCES[seq], 31,
            f_uniform, f_gradient,
        )
        return streams + [_reference_asd(x, n, seq.f_samp) for x in streams]
    process, amp, shot = WALK_CASES[case]
    n_seq = round(STREAM_SECONDS[seq] * seq.f_samp)
    on = _reference_stream(seq, process, amp, 457.9e3, shot, n_seq, 23)
    want = [on, _reference_asd(on, n, seq.f_samp)]
    if process is not None:
        off = _reference_stream(seq, None, amp, 457.9e3, shot, n_seq, 23)
        want.append(_reference_asd(off, n, seq.f_samp))
    return want


@pytest.mark.parametrize(
    "case, seq",
    [
        pytest.param(case, seq, id=case + suffix)
        for seq, suffix in [(XY8_1, ""), (XY8_8, "-xy8-8")]
        for case in ["no-shot", "noiseless", "gradiometer-gains"]
    ]
    + [pytest.param(case, XY8_1, id=case) for case in list(WALK_CASES)[3:]],
)
def test_stream_build_paths_bits_independent_of_lanes(monkeypatch, force_lanes, case, seq):
    # Each block's draws, its elementwise build over sample ranges and its
    # transforms run as lane tasks.  Without shot draws the noise-off stream
    # is the tone itself, or zeros without a test field, written over the
    # last block's values; without phase noise only that stream exists.
    # Every path's streams and spectra, on one, two and three lanes, are
    # those of the expressions built in one piece.
    want = _walk_reference(case, seq)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for block in _block_sizes(round(seq.f_samp)):
            monkeypatch.setattr(signal_pipeline, "_BLOCK_SAMPLES", block)
            for cap in (1, 2, 3):
                force_lanes(cap)
                run = _walk_arrays(case, seq)
                assert len(run) == len(want)
                for got, expected in zip(run, want):
                    assert_array_equal(got, expected)
    finally:
        sys.setswitchinterval(switch)


def test_joined_streams_own_their_samples(monkeypatch):
    # The walk reuses its block buffers, so the wrappers copy every block
    # out: no two streams share memory, within a call or across calls, and
    # a later call leaves an earlier stream as it was.
    monkeypatch.setattr(signal_pipeline, "_BLOCK_SAMPLES", 10000)
    proc = mw.WhiteNoise(4e-3)
    first = mw.synthesize_stream(XY8_1, proc, 90e-12, 457.9e3, 2e-3, 1.0, seed=1).samples
    kept = first.copy()
    second = mw.synthesize_stream(XY8_1, proc, 90e-12, 457.9e3, 2e-3, 1.0, seed=2).samples
    assert not np.shares_memory(first, second)
    assert_array_equal(first, kept)
    args = (XY8_1, proc, 40e-12, 70e-12, 4e-4, 42134)
    streams = [s.samples for s in mw.simulate_gradiometer(*args, 5)]
    kept = [stream.copy() for stream in streams]
    streams += [s.samples for s in mw.simulate_gradiometer(*args, 6)]
    for i, stream in enumerate(streams):
        assert not any(np.shares_memory(stream, other) for other in streams[i + 1 :])
    for stream, want in zip(streams, kept):
        assert_array_equal(stream, want)


def test_stream_spectra_lane_counts(force_lanes):
    # One lane per sum, up to the cap and the usable CPUs: none for a
    # noiseless stream, whose one sum runs inline.
    sizes = force_lanes(4)
    mw.stream_spectra(XY8_1, mw.WhiteNoise(4e-3), 90e-12, 457.9e3, 2e-3, 3.0, 1.0, seed=23)
    assert sizes == [2]
    on, off = mw.stream_spectra(XY8_1, None, 90e-12, 457.9e3, 2e-3, 3.0, 1.0, seed=23)
    assert off is None and sizes == [2]
    sizes = force_lanes(4, cpus=2)
    mw.gradiometer_spectra(XY8_1, mw.WhiteNoise(6e-3), 40e-12, 70e-12, 4e-4, 3 * 42134, 1.0)
    assert sizes == [2]


def test_stream_walk_peak_memory_in_block_arrays(force_lanes):
    # A block array is the rows x n float64 of one default block.  Each
    # block is built in its own draw arrays and freed before the next one is
    # drawn, so on two lanes the walk peaks near six block arrays: three
    # gradiometer channels and two lanes' complex and magnitude spectra, or
    # the gradiometer's six arrays while it builds a block.  A walk that
    # builds each term in new arrays, and keeps the last block while it
    # draws the next, peaks at about 9 (XY8-1) and 10 (XY8-8) on one lane.
    force_lanes(4, cpus=2)
    xy8_8 = mw.make_xy8(8, 458e3, T_PI, T_DEAD)
    runs = [
        (XY8_1, lambda: mw.stream_spectra(
            XY8_1, mw.WhiteNoise(4e-3), 90e-12, 457.9e3, 2e-3, 20.0, 1.0, seed=3)),
        (xy8_8, lambda: mw.gradiometer_spectra(
            xy8_8, mw.WhiteNoise(8e-3), 40e-12, 70e-12, 4e-4, round(60.0 * xy8_8.f_samp), 1.0, 5)),
    ]
    for seq, run in runs:
        n = round(seq.f_samp)  # samples per 1 s chunk
        block_bytes = signal_pipeline._BLOCK_SAMPLES // n * n * 8
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * block_bytes, (seq.n_pi, peak / block_bytes)


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


def test_floor_exclusion_bands_cover_whole_spectrum():
    # At f_samp = 1 kHz the DC cut is 250 Hz, and the 500 Hz half-width
    # around a 375 Hz tone takes every bin above it up to the 500 Hz Nyquist
    # frequency.
    fs = 1000.0
    freqs = np.arange(0.0, fs / 2 + 0.25, 0.5)
    spectrum = mw.AmplitudeSpectrum(freqs, np.full(freqs.size, 6.0e-12), 2.0, 10, fs)
    assert mw.estimate_noise_floor(spectrum)[0] == 6.0e-12
    with pytest.raises(ValueError, match="exclusion bands cover the whole spectrum"):
        mw.estimate_noise_floor(spectrum, f_test=375.0)


def test_floor_dc_exclusion_follows_slow_sample_rates():
    # XY8-64 at 458 kHz samples its stream at about 1.74 kHz, so a fixed
    # 1 kHz cut would exclude every bin up to the 0.87 kHz Nyquist
    # frequency.  The cut is min(1 kHz, f_samp / 4).
    fs = 1742.0
    freqs = np.arange(0.0, fs / 2, 0.5)
    assert freqs[-1] < 1e3
    asd = np.full(freqs.size, 6.0e-12)
    asd[freqs < 300.0] = 1e-9
    slow = mw.AmplitudeSpectrum(freqs, asd, 2.0, 10, fs)
    floor, _ = mw.estimate_noise_floor(slow)
    assert floor == 6.0e-12
    # From f_samp = 4 kHz up the cut is 1 kHz, as before: a spike at 1 kHz
    # (bin 1000) is flagged, and one at 999 Hz is cut.
    fast = _flat_fixture(spikes=[(999, 40.0), (1000, 40.0), (2500, 40.0)])
    floor, spikes = mw.estimate_noise_floor(fast)
    assert spikes.tolist() == [1000, 2500]
    rest = fast.freqs >= 1e3
    rest[spikes] = False
    assert floor == float(np.median(fast.asd[rest]))


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


def _exhaustive_fit(v_test, v_nv, seq):
    """(v_max, kappa, residual_rms) with every grid minimum bisected.

    The calibration fit without pruning: the reference that
    ``fit_calibration`` must equal bit for bit.
    """
    arg_scale = 4.0 * math.sqrt(2.0) * mw.GAMMA_NV * seq.tau_tot
    kappa_scale = 0.5 * math.pi / (arg_scale * float(np.max(v_test)))
    rows = max(1, 2**17 // v_test.size)

    def project(kappa):
        out = np.empty((3, kappa.size))
        for start in range(0, kappa.size, rows):
            arg = arg_scale * kappa[start : start + rows, None] * v_test
            sin = np.sin(arg)
            s = np.abs(sin)
            v_max = np.sum(s * v_nv, axis=1) / np.sum(s * s, axis=1)
            residuals = v_max[:, None] * s - v_nv
            slope = v_max * np.sum(residuals * v_test * np.sign(sin) * np.cos(arg), axis=1)
            out[:, start : start + rows] = v_max, np.sum(residuals**2, axis=1), slope
        return out

    grid = kappa_scale * np.logspace(-1.0, 3.0, signal_pipeline._CAL_GRID_POINTS)
    cost = project(grid)[1]
    padded = np.concatenate(([np.inf], cost, [np.inf]))
    minima = np.flatnonzero((cost < padded[:-2]) & (cost <= padded[2:]))
    lo = grid[np.maximum(minima - 1, 0)]
    hi = grid[np.minimum(minima + 1, grid.size - 1)]
    for _ in range(signal_pipeline._CAL_BISECTIONS):
        mid = 0.5 * (lo + hi)
        rising = project(mid)[2] > 0
        new_lo, new_hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    kappa = 0.5 * (lo + hi)
    v_max, cost, _ = project(kappa)
    tied = np.flatnonzero(cost <= cost.min() + 1e-6 * float(np.sum(v_nv**2)))
    best = tied[np.argmin(kappa[tied])]
    return float(v_max[best]), float(kappa[best]), math.sqrt(float(cost[best]) / v_nv.size)


def _criterion_12_data():
    """The seven (v_test, v_nv) sets of acceptance criterion 12."""
    arg_scale = 4.0 * math.sqrt(2.0) * mw.GAMMA_NV * _table_seq().tau_tot
    rng = np.random.default_rng(99)
    for kappa in np.logspace(-7, -4, 7):
        v_test = np.linspace(0.0, 2.4 * (0.5 * math.pi) / (arg_scale * kappa), 25)
        clean = 0.83 * np.abs(np.sin(arg_scale * kappa * v_test))
        yield v_test, clean * (1.0 + 0.01 * rng.standard_normal(clean.size))


def _calibration_corpus():
    """Criterion 12's data, then 6 to 600 points, even and uneven, 0-5 % noise."""
    yield from _criterion_12_data()
    arg_scale = 4.0 * math.sqrt(2.0) * mw.GAMMA_NV * _table_seq().tau_tot
    rng = np.random.default_rng(2207)
    for i, (n, even) in enumerate((n, even) for n in (6, 25, 200, 600) for even in (True, False)):
        kappa = 10.0 ** (-7.0 + 3.0 * i / 7)
        noise = (0.0, 0.005, 0.02, 0.05)[i % 4]
        v_span = 2.4 * (0.5 * math.pi) / (arg_scale * kappa)
        if even:
            v_test = np.linspace(0.0, v_span, n)
        else:
            v_test = np.sort(rng.uniform(0.0, v_span, n))
        clean = rng.uniform(0.4, 1.2) * np.abs(np.sin(arg_scale * kappa * v_test))
        yield v_test, clean * (1.0 + noise * rng.standard_normal(n))


def test_calibration_equals_exhaustive_bisection(monkeypatch):
    # Pruning drops only brackets whose refined cost could not reach the
    # near-tie band, so kappa, v_max and the residual keep every bit, in any
    # block size.
    seq = _table_seq()
    for v_test, v_nv in _calibration_corpus():
        want = _exhaustive_fit(v_test, v_nv, seq)
        for block in (signal_pipeline._CAL_BLOCK, 2**14):
            with monkeypatch.context() as patch:
                patch.setattr(signal_pipeline, "_CAL_BLOCK", block)
                fit = mw.fit_calibration(v_test, v_nv, seq)
            assert (fit.v_max, fit.kappa, fit.residual_rms) == want


def test_calibration_bounds_hold_the_cost():
    # The interval bounds contain the projected cost at every kappa of the
    # bracket: brackets from 1e-6 to 2x wide, across peaks and zeros of |sin|,
    # and last one centred where every point sits on a peak of |sin| and the
    # cost is 0, which the lower bound sees only if it widens s to 1 there.
    rng = np.random.default_rng(23)
    arg_scale = 4.0 * math.sqrt(2.0) * mw.GAMMA_NV * _table_seq().tau_tot
    cases = []
    for _ in range(30):
        n = int(rng.integers(6, 80))
        v_test = rng.uniform(0.0, 1.0, n)
        v_test[0] = 0.0
        scale = 0.5 * math.pi / (arg_scale * float(np.max(v_test)))
        lo = scale * 10.0 ** rng.uniform(-1.0, 3.0, 8)
        hi = lo * (1.0 + 10.0 ** rng.uniform(-6.0, 0.0, 8))
        cases.append((v_test, rng.uniform(0.0, 1.0, n), lo, hi))
    v_test = np.array([0.0, 1.0, 3.0, 5.0, 7.0, 9.0])
    peak = 0.5 * math.pi / arg_scale
    cases.append((v_test, np.abs(np.sin(0.5 * math.pi * v_test)),
                  peak * np.array([0.999]), peak * np.array([1.001])))
    for v_test, v_nv, lo, hi in cases:
        low, high = signal_pipeline._calibration_bounds(arg_scale, v_test, v_nv, lo, hi)
        for j in range(lo.size):
            kappa = np.linspace(lo[j], hi[j], 1000)
            cost = signal_pipeline._calibration_rows(arg_scale, v_test, v_nv, kappa, False)[1]
            assert low[j] <= cost.min()
            assert high[j] >= cost.max()


def test_calibration_refines_a_third_of_the_exhaustive_rows(monkeypatch):
    # Count the kappa rows each fit passes to np.sin beyond its grid: the
    # bisection steps, the bounds' two ends and the final evaluation.
    seq = _table_seq()
    sin = np.sin
    counted = []

    def counting_sin(x, *args, **kwargs):
        counted.append(x.size)
        return sin(x, *args, **kwargs)

    rows = {}
    for name, fit in (("exhaustive", _exhaustive_fit), ("pruned", mw.fit_calibration)):
        rows[name] = 0
        for v_test, v_nv in _criterion_12_data():
            counted.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np, "sin", counting_sin)
                fit(v_test, v_nv, seq)
            rows[name] += sum(counted) // v_test.size - signal_pipeline._CAL_GRID_POINTS
    assert 3 * rows["pruned"] <= rows["exhaustive"]


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


def test_csv_reader_skips_utf8_byte_order_mark(tmp_path):
    # Spreadsheets export "CSV UTF-8" with a byte-order mark: the first line
    # is still a data row, or a '# key=value' comment.
    bom = "\ufeff".encode()
    rows = [[0.01 * k, 0.1 * k] for k in range(7)]
    data = tmp_path / "cal.csv"
    data.write_bytes(bom + "".join(f"{a!r},{b!r}\n" for a, b in rows).encode())
    assert_array_equal(read_csv(data, 2)[1], rows)
    path = tmp_path / "spectrum.csv"
    mw.save_spectrum(mw.preset_spectrum("g1-2.5ghz"), path)
    assert path.read_text().startswith("# carrier_hz=")
    want = mw.load_spectrum(path)
    path.write_bytes(bom + path.read_bytes())
    got = mw.load_spectrum(path)
    assert (got.carrier_hz, got.offsets_hz, got.l_dbc) == (
        want.carrier_hz, want.offsets_hz, want.l_dbc
    )


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
