"""Readout-stream synthesis and the spectral analysis chain.

A pulsed magnetometer reads one tesla-equivalent value per sequence at the
rate f_samp = 1/(tau_tot + t_dead), so an AC test field appears at its alias
frequency.  Streams are chunked into fixed intervals, each chunk's one-sided
FFT magnitude spectrum is amplitude-normalized (a sinusoid of rms amplitude
A reads A at its bin) and the chunk spectra are averaged pointwise; the
average is stored in T*s^(1/2) by multiplying with sqrt(interval).  Under
that convention a white readout noise of equivalent sensitivity eta shows a
floor of sqrt(pi/2) * eta ~= 1.253 * eta (the mean of a Rayleigh magnitude),
independent of the interval length.  Floors quoted by this module are such
spectrum floors; divide by 1.253 to recover the Gaussian-equivalent
sensitivity, multiply analytic sensitivities by 1.253 to compare with them.

Streams are synthesized and transformed in one walk, a block of whole chunks
at a time (``_BLOCK_SAMPLES``, 2^19 samples, rounded down to whole chunks but
at least one): each block draws its share of the phase-noise and shot-noise
terms and evaluates its test tones, and the block's chunk spectra are added
one by one, in stream order, into one running sum.  Consecutive draws on one
Philox generator equal one draw of the total size, and numpy reduces a stack
of chunk spectra along its first axis one row after another, so the spectra
equal those of the whole stream transformed at once, bit for bit, while
memory depends on the interval and the block, not on the duration.
:func:`stream_spectra` and :func:`gradiometer_spectra` run the walk;
:func:`synthesize_stream`, :func:`simulate_gradiometer` and
:func:`amplitude_spectrum` are wrappers over it that join the blocks or split
a given stream.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    GAMMA_NV,
    FrequencyHz,
    Radians,
    SensitivityTeslaSqrtS,
    Tesla,
    TimeSeconds,
    write_csv,
)
from .analytic_sensitivity import ReadoutModel
from .noise_models import NoiseProcess, philox_rng
from .pulse_sequences import PulseSequence
from .spin_simulator import _phi_tot_draws


@dataclass(frozen=True, eq=False)
class ReadoutStream:
    """Per-sequence tesla-equivalent readouts at the sequence rate."""

    samples: np.ndarray
    f_samp: FrequencyHz

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if self.f_samp <= 0:
            raise ValueError("f_samp must be positive")
        object.__setattr__(self, "samples", arr)

    @property
    def duration(self) -> TimeSeconds:
        return self.samples.size / self.f_samp

    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.f_samp


@dataclass(frozen=True, eq=False)
class AmplitudeSpectrum:
    """Chunk-averaged one-sided amplitude spectrum of a readout stream.

    ``asd`` is in T*s^(1/2): the per-bin rms amplitude times the square root
    of the chunk interval.
    """

    freqs: np.ndarray
    asd: np.ndarray
    interval: TimeSeconds
    n_chunks: int
    f_samp: FrequencyHz

    def __post_init__(self) -> None:
        freqs = np.asarray(self.freqs, dtype=float)
        asd = np.asarray(self.asd, dtype=float)
        if freqs.shape != asd.shape or freqs.ndim != 1:
            raise ValueError("freqs and asd must be 1-D arrays of equal length")
        if np.any(asd < 0):
            raise ValueError("asd values must be nonnegative")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "asd", asd)

    @property
    def delta_f(self) -> FrequencyHz:
        """Bin spacing in Hz."""
        if self.freqs.size < 2:
            return self.f_samp
        return float(self.freqs[1] - self.freqs[0])


def alias_frequency(f: FrequencyHz, f_samp: FrequencyHz) -> tuple[FrequencyHz, FrequencyHz]:
    """(f_alias, f_ref) of a tone at ``f`` sampled at ``f_samp``.

    f_ref is the integer multiple of f_samp nearest to f; at exact
    half-multiples the tie goes to the lower multiple so the alias is
    f_samp/2.  The alias is |f - f_ref| <= f_samp/2.
    """
    if f < 0:
        raise ValueError("frequency must be nonnegative")
    if f_samp <= 0:
        raise ValueError("f_samp must be positive")
    n = math.ceil(f / f_samp - 0.5)
    f_ref = n * f_samp
    return abs(f - f_ref), f_ref


def shot_sigma_from_readout(readout: "ReadoutModel | float") -> Radians:
    """Per-sequence shot-noise phase std, from a readout model or a number.

    For a photon-counting readout the phase uncertainty per sequence is
    overhead_factor / (contrast * sqrt(n_photons)); a plain float is taken
    to already be that sigma in radians.
    """
    if isinstance(readout, ReadoutModel):
        return readout.overhead_factor / (readout.contrast * math.sqrt(readout.n_photons))
    sigma = float(readout)
    if sigma < 0:
        raise ValueError("shot sigma must be nonnegative")
    return sigma


# Samples per block of the chunked stream walk, rounded down to whole chunks:
# 4 MiB of float64.  numpy plans every rfft call afresh, and at the Bluestein
# lengths of 1 s intervals (n = 42 134 = 2 * 21 067, n = 11 783 prime) a plan
# costs as much as transforming two or three rows, so a block keeps about a
# dozen rows per call at XY8-1 and 44 at XY8-8.
_BLOCK_SAMPLES = 1 << 19


def _stream_blocks(f_samp: FrequencyHz, n_seq: int, n: int, draws):
    """Yield (sequence start times, *terms) over ``n_seq`` sequences, in
    blocks of max(1, _BLOCK_SAMPLES // n) whole n-sample chunks.

    The last block holds what is left, a trailing partial chunk included.
    Each of ``draws`` is None or a function returning the next ``size``
    values of a term; it is called once per block, in order, so a term's
    values are those of one call of size n_seq.
    """
    step = max(1, _BLOCK_SAMPLES // n) * n
    for lo in range(0, n_seq, step):
        size = min(step, n_seq - lo)
        terms = (None if draw is None else draw(size) for draw in draws)
        yield (np.arange(lo, lo + size) / f_samp, *terms)


def _shot_draws(sigma: Radians, rng: np.random.Generator):
    return lambda size: sigma * rng.standard_normal(size)


def _sequence_count(duration: TimeSeconds, f_samp: FrequencyHz) -> int:
    n_seq = int(round(duration * f_samp))
    if n_seq < 10:
        raise ValueError("duration must cover at least 10 sequences")
    return n_seq


def _readout_blocks(
    seq: PulseSequence,
    process: NoiseProcess | None,
    test_field_amp: Tesla,
    f_test: FrequencyHz,
    shot_sigma: Radians,
    n_seq: int,
    n: int,
    seed: int,
):
    """Yield (on, off) tesla readouts per block of :func:`_stream_blocks`.

    ``on`` is tone + phase noise + shot noise, ``off`` the same tone and shot
    draws without the phase noise, or None when ``process`` is None.
    """
    scale = 4.0 * GAMMA_NV * seq.tau_tot
    phase = None if process is None else _phi_tot_draws(seq, process, seed)
    shot = _shot_draws(shot_sigma, philox_rng(seed, 0x73686F74)) if shot_sigma > 0 else None
    for t, phi, z in _stream_blocks(seq.f_samp, n_seq, n, (phase, shot)):
        tone = test_field_amp * math.sqrt(2.0) * np.cos(2.0 * np.pi * f_test * t)
        z = None if z is None else z / scale
        off = tone if z is None else tone + z
        if phi is None:
            yield off, None
            continue
        on = tone + phi / scale
        if z is not None:
            on += z
        yield on, off


def _gradiometer_blocks(
    seq: PulseSequence,
    process: NoiseProcess,
    uniform_signal: Tesla,
    gradient_signal: Tesla,
    shot_sigma: Radians,
    n_sequences: int,
    n: int,
    seed: int,
    f_uniform: FrequencyHz,
    f_gradient: FrequencyHz,
    channel_gains: tuple[float, float],
):
    """Checked arguments, then a generator of (ch1, ch2, ch1 - ch2) tesla
    readouts per block of :func:`_stream_blocks`.

    The two channels' shot draws are the first and second n_sequences
    normals of one Philox stream; channel 2 reads them from a second
    generator on that stream that first discards channel 1's, in blocks.
    """
    if n_sequences < 2:
        raise ValueError("need at least 2 sequences")
    if shot_sigma < 0:
        raise ValueError("shot_sigma must be nonnegative")
    scale = 4.0 * GAMMA_NV * seq.tau_tot
    rng_1, rng_2 = philox_rng(seed, 0x67726164), philox_rng(seed, 0x67726164)
    discard = np.empty(min(n_sequences, _BLOCK_SAMPLES))
    for lo in range(0, n_sequences, discard.size):
        rng_2.standard_normal(out=discard[: n_sequences - lo])
    draws = (
        _phi_tot_draws(seq, process, seed),
        _shot_draws(shot_sigma, rng_1),
        _shot_draws(shot_sigma, rng_2),
    )

    def blocks():
        for t, common, *shots in _stream_blocks(seq.f_samp, n_sequences, n, draws):
            uniform = uniform_signal * math.sqrt(2.0) * np.cos(2.0 * np.pi * f_uniform * t)
            gradient = gradient_signal * math.sqrt(2.0) * np.cos(2.0 * np.pi * f_gradient * t)
            ch = [
                gain * (scale * (uniform + sign * gradient) + common + shot) / scale
                for gain, sign, shot in zip(channel_gains, (+1.0, -1.0), shots)
            ]
            yield ch[0], ch[1], ch[0] - ch[1]

    return blocks()


def synthesize_stream(
    seq: PulseSequence,
    process: NoiseProcess | None,
    test_field_amp: Tesla,
    f_test: FrequencyHz,
    readout: "ReadoutModel | float",
    duration: TimeSeconds,
    seed: int = 0,
) -> ReadoutStream:
    """Simulated readout stream: aliased test field + phase noise + shot noise.

    The AC test field (rms amplitude ``test_field_amp`` at ``f_test``) is
    sampled at the sequence start times, which aliases it into the first
    Nyquist zone automatically.  Source phase noise enters through the
    per-sequence accumulated phase and is scaled to tesla by
    1/(4 gamma tau_tot), as is the independent Gaussian shot term.
    ``process`` may be None for a noiseless source.  The samples are those
    :func:`stream_spectra` transforms, joined from its blocks.
    """
    n_seq = _sequence_count(duration, seq.f_samp)
    blocks = _readout_blocks(
        seq, process, test_field_amp, f_test, shot_sigma_from_readout(readout), n_seq, 1, seed
    )
    return ReadoutStream(np.concatenate([on for on, _ in blocks]), seq.f_samp)


def simulate_gradiometer(
    seq: PulseSequence,
    process: NoiseProcess,
    uniform_signal: Tesla,
    gradient_signal: Tesla,
    shot_sigma: Radians,
    n_sequences: int,
    seed: int = 0,
    *,
    f_uniform: FrequencyHz = 394e3,
    f_gradient: FrequencyHz = 394e3,
    channel_gains: tuple[float, float] = (1.0, 1.0),
) -> tuple[ReadoutStream, ReadoutStream, ReadoutStream]:
    """Two magnetometer channels driven by one microwave source, plus their
    difference channel.

    Both channels share each sequence's source phase error (common mode).  A
    uniform AC test field (rms amplitude ``uniform_signal`` at ``f_uniform``)
    enters both channels with the same sign; a gradient test field
    (``gradient_signal`` at ``f_gradient``) enters with opposite signs.  Shot
    noise is drawn independently per channel.  The difference channel is
    ch1 - ch2: common phase noise and the uniform field cancel while the
    gradient peak doubles, at the cost of a sqrt(2) larger shot floor.

    Returns (channel_1, channel_2, difference) as readout streams in tesla,
    the samples :func:`gradiometer_spectra` transforms, joined from its
    blocks.  The shot draws of channels 1 and 2 are the first and second
    ``n_sequences`` normals of one Philox stream.
    """
    blocks = _gradiometer_blocks(
        seq, process, uniform_signal, gradient_signal, shot_sigma, n_sequences, 1, seed,
        f_uniform, f_gradient, channel_gains,
    )
    return tuple(ReadoutStream(np.concatenate(ch), seq.f_samp) for ch in zip(*blocks))


def _chunk_length(interval: TimeSeconds, f_samp: FrequencyHz, n_samples: int) -> int:
    n = int(round(interval * f_samp))
    if n < 2:
        raise ValueError("interval too short: each chunk needs at least 2 samples")
    if n_samples < n:
        raise ValueError("interval exceeds the stream duration")
    return n


class _SpectrumSum:
    """Running sum of the amplitude-normalized magnitude spectra of n-sample
    chunks, added one chunk after another in stream order.

    numpy reduces a C-ordered matrix along axis 0 one row after another, so
    this sum, divided by the chunk count, equals ``mean(axis=0)`` of the
    stacked chunk spectra bit for bit.
    """

    def __init__(self, n: int, f_samp: FrequencyHz, window: str | None = None) -> None:
        if window not in (None, "hann"):
            raise ValueError(f"unknown window {window!r}; use None or 'hann'")
        self.n = n
        self.f_samp = f_samp
        self.weights = None
        if window == "hann":
            w = np.hanning(n)
            self.weights = w / np.mean(w)
        self.total = np.zeros(n // 2 + 1)
        self.n_chunks = 0

    def add(self, samples: np.ndarray) -> None:
        """Add the whole chunks of ``samples``; a trailing partial chunk is dropped."""
        n = self.n
        data = samples[: samples.size // n * n].reshape(-1, n)
        rows = max(1, _BLOCK_SAMPLES // n)
        for lo in range(0, data.shape[0], rows):
            block = data[lo : lo + rows]
            if self.weights is not None:
                block = block * self.weights
            spectra = np.abs(np.fft.rfft(block, axis=1))
            spectra *= math.sqrt(2.0) / n
            spectra[:, 0] /= math.sqrt(2.0)
            if n % 2 == 0:
                spectra[:, -1] /= math.sqrt(2.0)
            for row in spectra:
                self.total += row
            self.n_chunks += spectra.shape[0]

    def spectrum(self) -> AmplitudeSpectrum:
        chunk_seconds = self.n / self.f_samp
        asd = self.total / self.n_chunks * math.sqrt(chunk_seconds)
        freqs = np.fft.rfftfreq(self.n, 1.0 / self.f_samp)
        return AmplitudeSpectrum(freqs, asd, chunk_seconds, self.n_chunks, self.f_samp)


def amplitude_spectrum(
    stream: ReadoutStream,
    interval: TimeSeconds,
    window: str | None = None,
) -> AmplitudeSpectrum:
    """Chunked, averaged one-sided amplitude spectrum.

    The stream is split into floor(duration/interval) chunks (the remainder
    is dropped), each chunk is Fourier transformed without windowing by
    default (sequences are synchronized, so test tones are coherent), and
    the magnitude spectra are averaged pointwise.  ``window="hann"`` applies
    an amplitude-corrected Hann window for unsynchronized data at the cost
    of wider peaks.
    """
    n = _chunk_length(interval, stream.f_samp, stream.samples.size)
    total = _SpectrumSum(n, stream.f_samp, window)
    total.add(stream.samples)
    return total.spectrum()


def stream_spectra(
    seq: PulseSequence,
    process: NoiseProcess | None,
    test_field_amp: Tesla,
    f_test: FrequencyHz,
    readout: "ReadoutModel | float",
    duration: TimeSeconds,
    interval: TimeSeconds,
    seed: int = 0,
) -> tuple[AmplitudeSpectrum, AmplitudeSpectrum | None]:
    """(noise-on, noise-off) amplitude spectra of a synthesized readout stream.

    The noise-on spectrum is ``amplitude_spectrum(synthesize_stream(...),
    interval)`` and the noise-off one that of the same stream without the
    phase-noise term (same tone, same shot draws); it is None when
    ``process`` is None.  Both are computed one block of chunks at a time,
    so memory depends on the interval, not on the duration.
    """
    n_seq = _sequence_count(duration, seq.f_samp)
    n = _chunk_length(interval, seq.f_samp, n_seq)
    on = _SpectrumSum(n, seq.f_samp)
    off = None if process is None else _SpectrumSum(n, seq.f_samp)
    for on_block, off_block in _readout_blocks(
        seq, process, test_field_amp, f_test, shot_sigma_from_readout(readout), n_seq, n, seed
    ):
        on.add(on_block)
        if off is not None:
            off.add(off_block)
    return on.spectrum(), None if off is None else off.spectrum()


def gradiometer_spectra(
    seq: PulseSequence,
    process: NoiseProcess,
    uniform_signal: Tesla,
    gradient_signal: Tesla,
    shot_sigma: Radians,
    n_sequences: int,
    interval: TimeSeconds,
    seed: int = 0,
    *,
    f_uniform: FrequencyHz = 394e3,
    f_gradient: FrequencyHz = 394e3,
    channel_gains: tuple[float, float] = (1.0, 1.0),
) -> tuple[AmplitudeSpectrum, AmplitudeSpectrum, AmplitudeSpectrum]:
    """Amplitude spectra of the channels of :func:`simulate_gradiometer`
    (same arguments), computed one block of chunks at a time: (channel 1,
    channel 2, difference).
    """
    n = _chunk_length(interval, seq.f_samp, n_sequences)
    sums = [_SpectrumSum(n, seq.f_samp) for _ in range(3)]
    for channels in _gradiometer_blocks(
        seq, process, uniform_signal, gradient_signal, shot_sigma, n_sequences, n, seed,
        f_uniform, f_gradient, channel_gains,
    ):
        for total, samples in zip(sums, channels):
            total.add(samples)
    return tuple(total.spectrum() for total in sums)


@dataclass(frozen=True)
class FloorParams:
    """Thresholds of the spike-rejecting noise-floor estimator.

    ``dc_exclude_hz`` None, the default, excludes bins below
    min(1 kHz, f_samp / 4): a stream sampled below 4 kHz keeps the upper
    half of its spectrum, where a fixed 1 kHz cut leaves less, and below
    2 kHz nothing.
    """

    dc_exclude_hz: FrequencyHz | None = None
    test_halfwidth_hz: FrequencyHz = 500.0
    trim_fraction: float = 0.10
    spike_nsigma: float = 4.0

    def __post_init__(self) -> None:
        if not 0 <= self.trim_fraction < 1:
            raise ValueError("trim_fraction must be in [0, 1)")
        if self.spike_nsigma <= 0:
            raise ValueError("spike_nsigma must be positive")


def estimate_noise_floor(
    spectrum: AmplitudeSpectrum,
    f_test: FrequencyHz | None = None,
    params: FloorParams = FloorParams(),
) -> tuple[SensitivityTeslaSqrtS, np.ndarray]:
    """(noise floor, spike bin indices) of an amplitude spectrum.

    Bins below ``dc_exclude_hz`` (by default min(1 kHz, f_samp / 4)) and
    within ``test_halfwidth_hz`` of the (aliased) test frequency are
    excluded.  Of the remaining bins the top ``trim_fraction`` are set
    aside, a median and std are computed from the rest, bins above
    median + spike_nsigma*std are flagged as spikes, and the floor is the
    median of the unflagged bins.  Indices refer to the full spectrum
    arrays.
    """
    dc_exclude = params.dc_exclude_hz
    if dc_exclude is None:
        dc_exclude = min(1e3, spectrum.f_samp / 4.0)
    include = spectrum.freqs >= dc_exclude
    if f_test is not None:
        f_alias, _ = alias_frequency(f_test, spectrum.f_samp)
        include &= np.abs(spectrum.freqs - f_alias) > params.test_halfwidth_hz
    if not np.any(include):
        raise ValueError("exclusion bands cover the whole spectrum")

    vals = spectrum.asd[include]
    n_trim = int(vals.size * params.trim_fraction)
    core = np.sort(vals)[: vals.size - n_trim]
    if core.size == 0:
        raise ValueError("trim fraction leaves no bins to estimate from")
    median = float(np.median(core))
    std = float(np.std(core))
    threshold = median + params.spike_nsigma * std

    spike_mask = include & (spectrum.asd > threshold)
    keep = vals[vals <= threshold]
    floor = float(np.median(keep)) if keep.size else median
    return floor, np.nonzero(spike_mask)[0]


def excess_noise(
    eta_on: SensitivityTeslaSqrtS, eta_off: SensitivityTeslaSqrtS
) -> SensitivityTeslaSqrtS:
    """Quadrature difference sqrt(eta_on^2 - eta_off^2), clipped at zero.

    A warning is emitted when eta_on < eta_off: that can only come from
    statistical fluctuation (or mismatched inputs), and the clip hides it.
    """
    if eta_on < 0 or eta_off < 0:
        raise ValueError("noise floors must be nonnegative")
    if eta_on < eta_off:
        warnings.warn(
            "on-resonance floor below off-resonance floor; excess clipped to 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return math.sqrt(eta_on**2 - eta_off**2)


# --- test-field calibration ---------------------------------------------------

class FitError(RuntimeError):
    """Calibration fit did not converge to a trustworthy solution."""


@dataclass(frozen=True)
class CalibrationFit:
    """Result of the test-coil calibration fit."""

    v_max: float
    kappa: float  # tesla per volt
    residual_rms: float


# The calibration cost is evaluated on this many log-spaced kappa (0.23 %
# apart), and each local minimum there is refined by at most this many
# bisection steps, which shrink its bracket of two grid cells below
# rounding; the bisection stops early once no bracket moves.  The
# kappa-by-point arrays are built at most this many elements at a time, so
# memory does not grow with the data length; a 25-point fit is one block.
_CAL_GRID_POINTS = 4000
_CAL_BISECTIONS = 60
_CAL_BLOCK = 2**17


def fit_calibration(
    v_test,
    v_nv,
    seq: PulseSequence,
) -> CalibrationFit:
    """Fit v_nv = v_max * |sin(4 sqrt(2) kappa v_test gamma tau_tot)|.

    ``v_test`` are applied test-coil voltage amplitudes, ``v_nv`` the
    measured sensor response; ``kappa`` converts volts to tesla (rms).  The
    model is linear in v_max, so the fit is a variable projection (Golub and
    Pereyra, SIAM J. Numer. Anal. 10, 1973): at each kappa the best
    amplitude is v_max = <s, v_nv> / <s, s> with s = |sin(a kappa v_test)|,
    which leaves the cost ||v_nv||^2 - <s, v_nv>^2 / <s, s> in kappa alone.
    The rectified sine gives that cost many local minima, so it is evaluated
    on a log grid of kappa over four decades, from 0.1 to 1000 times the
    kappa that puts the first |sin| maximum at the largest voltage, and each
    local minimum of the grid is refined between its two grid neighbours by
    bisection on the sign of the cost's slope.  Among the refined minima
    whose cost is within 1e-6 * sum(v_nv^2) of the lowest, the smallest
    kappa is kept.
    Raises ValueError unless the data are finite, nonnegative 1-D arrays of
    at least 6 points, and :class:`FitError` when the best residual rms
    exceeds 10% of the fitted v_max.
    """
    v_test = np.asarray(v_test, dtype=float)
    v_nv = np.asarray(v_nv, dtype=float)
    if v_test.shape != v_nv.shape or v_test.ndim != 1:
        raise ValueError("v_test and v_nv must be 1-D arrays of equal length")
    if v_test.size < 6:
        raise ValueError("need at least 6 calibration points")
    if not np.all(np.isfinite((v_test, v_nv))):
        raise ValueError("calibration data must be finite")
    if np.any(v_test < 0) or np.any(v_nv < 0):
        raise ValueError("calibration data must be nonnegative amplitudes")
    v_span = float(np.max(v_test))
    if v_span <= 0:
        raise ValueError("v_test must contain positive amplitudes")
    if float(np.max(v_nv)) <= 0:
        raise FitError("all responses are zero; nothing to fit")

    arg_scale = 4.0 * math.sqrt(2.0) * GAMMA_NV * seq.tau_tot
    # First |sin| maximum at arg = pi/2; kappa placing it at the largest
    # applied voltage is the natural scale of the problem.
    kappa_scale = 0.5 * math.pi / (arg_scale * v_span)

    rows = max(1, _CAL_BLOCK // v_test.size)

    def project(kappa: np.ndarray) -> np.ndarray:
        """Rows (best v_max, cost, slope of the cost / (2a)) at each kappa."""
        out = np.empty((3, kappa.size))
        for start in range(0, kappa.size, rows):
            arg = arg_scale * kappa[start : start + rows, None] * v_test
            sin = np.sin(arg)
            s = np.abs(sin)
            v_max = np.sum(s * v_nv, axis=1) / np.sum(s * s, axis=1)
            residuals = v_max[:, None] * s - v_nv
            # At the best v_max the slope is 2 v_max <ds/dkappa, residuals>,
            # and ds/dkappa = a v_test sign(sin(arg)) cos(arg).
            slope = v_max * np.sum(residuals * v_test * np.sign(sin) * np.cos(arg), axis=1)
            out[:, start : start + rows] = v_max, np.sum(residuals**2, axis=1), slope
        return out

    grid = kappa_scale * np.logspace(-1.0, 3.0, _CAL_GRID_POINTS)
    cost = project(grid)[1]
    padded = np.concatenate(([np.inf], cost, [np.inf]))
    minima = np.flatnonzero((cost < padded[:-2]) & (cost <= padded[2:]))
    lo = grid[np.maximum(minima - 1, 0)]
    hi = grid[np.minimum(minima + 1, grid.size - 1)]
    for _ in range(_CAL_BISECTIONS):
        mid = 0.5 * (lo + hi)
        rising = project(mid)[2] > 0
        new_lo, new_hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
        # A step that moves no bracket is a fixed point: every later step
        # would recompute the same midpoints and slope signs.
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    kappa = 0.5 * (lo + hi)
    v_max, cost, _ = project(kappa)
    # A rectified sine sampled on a grid aliases: kappa values whose argument
    # spacing agrees modulo pi reproduce the same points exactly, so several
    # minima can have equal cost.  The fundamental is the smallest such
    # kappa; prefer it among near-ties.
    tied = np.flatnonzero(cost <= cost.min() + 1e-6 * float(np.sum(v_nv**2)))
    best = tied[np.argmin(kappa[tied])]
    v_max_fit, kappa_fit = float(v_max[best]), float(kappa[best])
    residual_rms = math.sqrt(float(cost[best]) / v_nv.size)
    if residual_rms > 0.10 * v_max_fit:
        raise FitError(
            f"calibration residual rms {residual_rms:.3g} exceeds 10% of "
            f"fitted v_max {v_max_fit:.3g}"
        )
    return CalibrationFit(v_max_fit, kappa_fit, residual_rms)


# --- spectrum file I/O ---------------------------------------------------------

def save_amplitude_spectrum(
    spectrum: AmplitudeSpectrum, path: str | Path, metadata: dict | None = None
) -> None:
    """Write ``f_hz,asd_t_sqrts`` CSV with reproducibility metadata comments."""
    path = Path(path)
    meta = {
        "f_samp_hz": repr(float(spectrum.f_samp)),
        "interval_s": repr(float(spectrum.interval)),
        "n_chunks": spectrum.n_chunks,
    }
    meta.update(metadata or {})
    rows = (
        f"{float(f)!r},{float(a)!r}" for f, a in zip(spectrum.freqs, spectrum.asd)
    )
    write_csv(path, meta, "f_hz,asd_t_sqrts", rows)
