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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from .core import (
    DEFAULT_CONSTANTS,
    Constants,
    FrequencyHz,
    Radians,
    SensitivityTeslaSqrtS,
    Tesla,
    TimeSeconds,
    read_csv,
    write_csv,
)
from .analytic_sensitivity import ReadoutModel
from .noise_models import NoiseProcess, philox_rng
from .pulse_sequences import PulseSequence
from .spin_simulator import phi_tot_batch


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
    of the chunk interval.  ``noise_floor`` and ``spike_bins`` are filled in
    by :func:`estimate_noise_floor` (via :func:`with_floor`); both are None
    on a freshly computed spectrum.
    """

    freqs: np.ndarray
    asd: np.ndarray
    interval: TimeSeconds
    n_chunks: int
    f_samp: FrequencyHz
    noise_floor: SensitivityTeslaSqrtS | None = None
    spike_bins: np.ndarray | None = None

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


def synthesize_stream(
    seq: PulseSequence,
    process: NoiseProcess | None,
    test_field_amp: Tesla,
    f_test: FrequencyHz,
    readout: "ReadoutModel | float",
    duration: TimeSeconds,
    seed: int = 0,
    constants: Constants = DEFAULT_CONSTANTS,
) -> ReadoutStream:
    """Simulated readout stream: aliased test field + phase noise + shot noise.

    The AC test field (rms amplitude ``test_field_amp`` at ``f_test``) is
    sampled at the sequence start times, which aliases it into the first
    Nyquist zone automatically.  Source phase noise enters through the
    per-sequence accumulated phase and is scaled to tesla by
    1/(4 gamma tau_tot), as is the independent Gaussian shot term.
    ``process`` may be None for a noiseless source.
    """
    f_samp = seq.f_samp
    n_seq = int(round(duration * f_samp))
    if n_seq < 10:
        raise ValueError("duration must cover at least 10 sequences")
    shot_sigma = shot_sigma_from_readout(readout)

    t_start = np.arange(n_seq) / f_samp
    samples = test_field_amp * math.sqrt(2.0) * np.cos(2.0 * np.pi * f_test * t_start)

    scale = 4.0 * constants.gamma_nv * seq.tau_tot
    if process is not None:
        samples = samples + phi_tot_batch(seq, process, n_seq, seed) / scale
    if shot_sigma > 0:
        rng = philox_rng(seed, 0x73686F74)
        samples = samples + shot_sigma * rng.standard_normal(n_seq) / scale
    return ReadoutStream(samples, f_samp)


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
    n = int(round(interval * stream.f_samp))
    if n < 2:
        raise ValueError("interval too short: each chunk needs at least 2 samples")
    n_chunks = stream.samples.size // n
    if n_chunks < 1:
        raise ValueError("interval exceeds the stream duration")
    data = stream.samples[: n_chunks * n].reshape(n_chunks, n)
    if window is not None:
        if window != "hann":
            raise ValueError(f"unknown window {window!r}; use None or 'hann'")
        w = np.hanning(n)
        data = data * (w / np.mean(w))

    spectra = np.abs(np.fft.rfft(data, axis=1))
    spectra *= math.sqrt(2.0) / n
    spectra[:, 0] /= math.sqrt(2.0)
    if n % 2 == 0:
        spectra[:, -1] /= math.sqrt(2.0)

    chunk_seconds = n / stream.f_samp
    asd = spectra.mean(axis=0) * math.sqrt(chunk_seconds)
    freqs = np.fft.rfftfreq(n, 1.0 / stream.f_samp)
    return AmplitudeSpectrum(freqs, asd, chunk_seconds, n_chunks, stream.f_samp)


@dataclass(frozen=True)
class FloorParams:
    """Thresholds of the spike-rejecting noise-floor estimator."""

    dc_exclude_hz: FrequencyHz = 1e3
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

    Bins below ``dc_exclude_hz`` and within ``test_halfwidth_hz`` of the
    (aliased) test frequency are excluded.  Of the remaining bins the top
    ``trim_fraction`` are set aside, a median and std are computed from the
    rest, bins above median + spike_nsigma*std are flagged as spikes, and
    the floor is the median of the unflagged bins.  Indices refer to the
    full spectrum arrays.
    """
    include = spectrum.freqs >= params.dc_exclude_hz
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


def with_floor(
    spectrum: AmplitudeSpectrum,
    f_test: FrequencyHz | None = None,
    params: FloorParams = FloorParams(),
) -> AmplitudeSpectrum:
    """Copy of the spectrum with noise_floor and spike_bins filled in."""
    floor, spikes = estimate_noise_floor(spectrum, f_test, params)
    return replace(spectrum, noise_floor=floor, spike_bins=spikes)


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


def sensitivity_from_floor(
    floor: Tesla, f_bin_width: FrequencyHz
) -> SensitivityTeslaSqrtS:
    """Convert a per-bin rms amplitude floor (tesla) to T*s^(1/2).

    Dividing by the square root of the bin width makes floors from
    different interval lengths comparable; for 1 Hz bins (1 s intervals)
    this is the identity.  Spectra from :func:`amplitude_spectrum` already
    carry this factor.
    """
    if f_bin_width <= 0:
        raise ValueError("bin width must be positive")
    return floor / math.sqrt(f_bin_width)


# --- test-field calibration ---------------------------------------------------

class FitError(RuntimeError):
    """Calibration fit did not converge to a trustworthy solution."""


@dataclass(frozen=True)
class CalibrationFit:
    """Result of the test-coil calibration fit."""

    v_max: float
    kappa: float  # tesla per volt
    residual_rms: float


def _calibration_model(v_test: np.ndarray, v_max: float, kappa: float, arg_scale: float) -> np.ndarray:
    return v_max * np.abs(np.sin(arg_scale * kappa * v_test))


def fit_calibration(
    v_test,
    v_nv,
    seq: PulseSequence,
    constants: Constants = DEFAULT_CONSTANTS,
) -> CalibrationFit:
    """Fit v_nv = v_max * |sin(4 sqrt(2) kappa v_test gamma tau_tot)|.

    ``v_test`` are applied test-coil voltage amplitudes, ``v_nv`` the
    measured sensor response; ``kappa`` converts volts to tesla (rms).  The
    rectified sine has many local minima in kappa, so the least-squares fit
    is restarted over a log grid of kappa guesses and the lowest-cost
    solution kept.  Raises :class:`FitError` when the best residual rms
    exceeds 10% of the fitted v_max.
    """
    v_test = np.asarray(v_test, dtype=float)
    v_nv = np.asarray(v_nv, dtype=float)
    if v_test.shape != v_nv.shape or v_test.ndim != 1:
        raise ValueError("v_test and v_nv must be 1-D arrays of equal length")
    if v_test.size < 6:
        raise ValueError("need at least 6 calibration points")
    if np.any(v_test < 0) or np.any(v_nv < 0):
        raise ValueError("calibration data must be nonnegative amplitudes")
    v_span = float(np.max(v_test))
    if v_span <= 0:
        raise ValueError("v_test must contain positive amplitudes")

    arg_scale = 4.0 * math.sqrt(2.0) * constants.gamma_nv * seq.tau_tot
    # First |sin| maximum at arg = pi/2; kappa placing it at the largest
    # applied voltage is the natural scale of the problem.
    kappa_scale = 0.5 * math.pi / (arg_scale * v_span)
    v_max0 = float(np.max(v_nv))
    if v_max0 <= 0:
        raise FitError("all responses are zero; nothing to fit")

    def residuals(log_params: np.ndarray) -> np.ndarray:
        # Clamp so wild LM steps cannot overflow exp and poison the solver.
        v_max, kappa = np.exp(np.clip(log_params, -50.0, 50.0))
        return _calibration_model(v_test, v_max, kappa, arg_scale) - v_nv

    candidates = []
    for kappa0 in kappa_scale * np.logspace(-1.0, 3.0, 41):
        result = least_squares(
            residuals,
            x0=[math.log(v_max0), math.log(kappa0)],
            method="lm",
            max_nfev=400,
        )
        candidates.append(result)
    best_cost = min(result.cost for result in candidates)
    # A rectified sine sampled on a grid aliases: kappa values whose argument
    # spacing agrees modulo pi reproduce the same points exactly, so several
    # starts can converge to equal-cost solutions.  The fundamental is the
    # smallest such kappa; prefer it among near-ties.
    tie_tol = 1e-6 * float(np.sum(v_nv**2))
    tied = [r for r in candidates if r.cost <= best_cost + tie_tol]
    best = min(tied, key=lambda r: r.x[1])
    v_max_fit, kappa_fit = (float(v) for v in np.exp(best.x))
    residual_rms = math.sqrt(float(np.mean(best.fun**2)))
    if residual_rms > 0.10 * v_max_fit:
        raise FitError(
            f"calibration residual rms {residual_rms:.3g} exceeds 10% of "
            f"fitted v_max {v_max_fit:.3g}"
        )
    return CalibrationFit(v_max_fit, kappa_fit, residual_rms)


# --- stream / spectrum file I/O ------------------------------------------------

def save_stream(stream: ReadoutStream, path: str | Path, metadata: dict | None = None) -> None:
    """Write ``t_s,readout_t`` CSV with reproducibility metadata comments."""
    path = Path(path)
    meta = {"f_samp_hz": repr(float(stream.f_samp)), "n_samples": stream.samples.size}
    meta.update(metadata or {})
    times = stream.times()
    rows = (
        f"{float(times[i])!r},{float(stream.samples[i])!r}"
        for i in range(stream.samples.size)
    )
    write_csv(path, meta, "t_s,readout_t", rows)


def load_stream(path: str | Path) -> ReadoutStream:
    path = Path(path)
    metadata, data = read_csv(path, 2)
    if "f_samp_hz" not in metadata:
        raise ValueError(f"{path}: missing '# f_samp_hz=' metadata")
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    return ReadoutStream(data[:, 1], float(metadata["f_samp_hz"]))


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
    if spectrum.noise_floor is not None:
        meta["noise_floor_t_sqrts"] = repr(float(spectrum.noise_floor))
    meta.update(metadata or {})
    rows = (
        f"{float(f)!r},{float(a)!r}" for f, a in zip(spectrum.freqs, spectrum.asd)
    )
    write_csv(path, meta, "f_hz,asd_t_sqrts", rows)


def load_amplitude_spectrum(path: str | Path) -> AmplitudeSpectrum:
    path = Path(path)
    metadata, data = read_csv(path, 2)
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    required = ("f_samp_hz", "interval_s", "n_chunks")
    missing = [key for key in required if key not in metadata]
    if missing:
        raise ValueError(f"{path}: missing metadata {missing}")
    floor = metadata.get("noise_floor_t_sqrts")
    return AmplitudeSpectrum(
        data[:, 0],
        data[:, 1],
        float(metadata["interval_s"]),
        int(metadata["n_chunks"]),
        float(metadata["f_samp_hz"]),
        noise_floor=None if floor is None else float(floor),
    )
