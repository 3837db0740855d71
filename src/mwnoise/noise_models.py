"""Phase-noise spectra and stochastic phase processes of microwave sources.

Single-sideband noise L(f) in dBc/Hz converts to a one-sided phase PSD
S_phi(f) = 2 * 10^(L(f)/10) in rad^2/Hz.  Tabulated spectra are
interpolated linearly in (log10 f, L); below the first tabulated offset the
first value is held, above the last the final slope is extrapolated with a
floor of -200 dBc/Hz.  Each of these segments is a power law in f, so
:func:`ssb_to_psd` evaluates S as exp(a_i + b_i ln f) segment by segment:
one log and one exp per frequency on a sloped segment, none on a flat one.
Its checks aside, that is the private kernel ``_psd_power_law``, which
builds the segments once per spectrum; the quadrature's weight builds it
once per integral and calls it on each of its ascending, positive lattice
blocks.  ``PhaseNoiseSpectrum.l_at`` keeps the dBc form and serves as the
reference.

Three stochastic processes generate per-pulse phase samples for the time
domain simulator: white (independent per pulse), random walk (independent
Gaussian increments at rate r_samp) and PSD-driven (samples read off a
synthesized phase track with a prescribed spectrum).  All randomness comes
from numpy's Philox counter-based generator keyed on (seed, realization),
so runs are reproducible and realizations can be generated independently in
any order.

Only the Monte Carlo draws per-realization noise: it is the check of the
closed forms.  It samples white and random-walk noise pulse by pulse, one
block of realizations at a time, and reduces each block to phi_tot before
drawing the next, so its memory is set by the block, not by the
realization count; :func:`sample_pulse_phases_batch` fills its matrix from
the same blocks.  It reads the PSD-driven process's synthesis draws through
the comb transfer of its sample times, which gives the same phi_tot as the
tracks without building them (``spin_simulator.monte_carlo_sigma_phi``);
the PSD branch of :func:`sample_pulse_phases_batch` stays as its
time-domain oracle.
Readout streams and the gradiometer draw each sequence's phi_tot directly
from its exact variance, which every process fixes in closed form (see
``spin_simulator.phi_tot_batch``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Union

import numpy as np

from .core import DbcPerHz, FrequencyHz, Radians, TimeSeconds, read_csv, write_csv

# Extrapolation floor for L(f) beyond the tabulated span.
L_FLOOR_DBC = -200.0

# Typical bandwidth attenuation of an injection chain (waveform generator
# -> modulation port).  Applied only on request, when a simulation is meant
# to emulate injected rather than intrinsic noise.
INJECTION_GAIN_WHITE = 0.8
INJECTION_GAIN_RANDOM_WALK = 0.85

_PHILOX_MASK = (1 << 64) - 1


def _mix_key(*parts: int) -> list[int]:
    """Fold integer identifiers into a 2x64-bit Philox key (splitmix-style)."""
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = (acc ^ (p & _PHILOX_MASK)) * 0xBF58476D1CE4E5B9 & _PHILOX_MASK
        acc = (acc ^ (acc >> 31)) * 0x94D049BB133111EB & _PHILOX_MASK
    return [acc, (acc * 0xD6E8FEB86659FD93 ^ len(parts)) & _PHILOX_MASK]


def philox_rng(*key_parts: int) -> np.random.Generator:
    """Counter-based generator for a (seed, stream, ...) tuple.

    Distinct tuples give statistically independent streams; the same tuple
    always reproduces the same draws regardless of what other streams were
    consumed before.
    """
    return np.random.Generator(np.random.Philox(key=_mix_key(*key_parts)))


@dataclass(frozen=True)
class PhaseNoiseSpectrum:
    """Tabulated single-sideband phase noise of one source at one carrier."""

    carrier_hz: FrequencyHz
    offsets_hz: tuple[float, ...]
    l_dbc: tuple[float, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not (0 < self.carrier_hz < math.inf):
            raise ValueError("carrier frequency must be positive and finite")
        offsets = np.asarray(self.offsets_hz, dtype=float)
        l_dbc = np.asarray(self.l_dbc, dtype=float)
        if offsets.size == 0:
            raise ValueError("spectrum needs at least one tabulated point")
        if not np.all(np.isfinite(offsets) & (offsets > 0)):
            raise ValueError("offsets must be positive and finite")
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("offsets must be strictly increasing")
        if l_dbc.shape != offsets.shape:
            raise ValueError("offsets and l_dbc must have the same length")
        if not np.all(np.isfinite(l_dbc)):
            raise ValueError("l_dbc values must be finite")
        object.__setattr__(self, "offsets_hz", tuple(float(x) for x in offsets))
        object.__setattr__(self, "l_dbc", tuple(float(x) for x in l_dbc))

    def l_at(self, f) -> np.ndarray:
        """L(f) in dBc/Hz with hold-below / slope-extrapolate-above rules."""
        f_arr = np.asarray(f, dtype=float)
        if np.any(f_arr <= 0):
            raise ValueError("offset frequency must be positive")
        log_f = np.log10(f_arr)
        log_tab = np.log10(np.asarray(self.offsets_hz))
        l_tab = np.asarray(self.l_dbc)
        out = np.interp(log_f, log_tab, l_tab)
        if len(l_tab) >= 2:
            slope = (l_tab[-1] - l_tab[-2]) / (log_tab[-1] - log_tab[-2])
            above = log_f > log_tab[-1]
            out = np.where(above, l_tab[-1] + slope * (log_f - log_tab[-1]), out)
        out = np.maximum(out, L_FLOOR_DBC)
        return out if out.ndim else float(out)

    def shifted_db(self, delta_db: float, label: str | None = None) -> "PhaseNoiseSpectrum":
        """Same shape shifted by ``delta_db`` at every offset."""
        new_l = tuple(v + delta_db for v in self.l_dbc)
        return replace(self, l_dbc=new_l, label=self.label if label is None else label)

    def scaled_to_carrier(self, new_carrier_hz: FrequencyHz) -> "PhaseNoiseSpectrum":
        """Linear-with-carrier scaling model: phase noise amplitude grows
        proportionally to the carrier, i.e. L shifts by 20*log10(ratio)."""
        if new_carrier_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        delta = 20.0 * math.log10(new_carrier_hz / self.carrier_hz)
        shifted = self.shifted_db(delta)
        return replace(shifted, carrier_hz=new_carrier_hz)


def ssb_to_psd(spectrum: PhaseNoiseSpectrum, f) -> np.ndarray:
    """One-sided phase PSD S_phi(f) = 2 * 10^(L(f)/10), rad^2/Hz, with L
    from :meth:`PhaseNoiseSpectrum.l_at`'s rules.

    Checks that every frequency is positive and finite, sorts them when
    they are not ascending, and evaluates :func:`_psd_power_law`.
    """
    f_arr = np.asarray(f, dtype=float)
    if not (np.all(f_arr > 0) and np.max(f_arr, initial=1.0) < math.inf):
        raise ValueError("offset frequency must be positive and finite")
    flat = f_arr.ravel()
    order = np.argsort(flat) if np.any(flat[1:] < flat[:-1]) else None
    psd = _psd_power_law(spectrum)
    out = psd(flat if order is None else flat[order], np.empty(flat.size))
    if order is not None:
        out[order] = out.copy()
    return out.reshape(f_arr.shape) if f_arr.ndim else float(out[0])


def _psd_power_law(spectrum: PhaseNoiseSpectrum):
    """S_phi as a function of (f, out): ``f`` ascending, positive and finite
    (unchecked), the values written into ``out``, of f's size, and returned.

    L is linear in ln f on each segment of the table (the hold below the
    first offset, each span between offsets, the extrapolation above the
    last), so S is one power law exp(a_i + b_i ln f) per segment, built here
    once.  Each call finds the segments' bounds by one search of the offsets
    in the ascending frequencies, so each segment is a slice with scalar
    a_i, b_i.  A segment of zero slope is filled with exp(a_i) and takes no
    log.  A power law is monotone on its segment, so only a segment whose
    end values fall below the floor of L is clamped.
    """
    offsets = np.asarray(spectrum.offsets_hz)
    laws = _power_laws(spectrum)
    floor = 2.0 * 10.0 ** (L_FLOOR_DBC / 10.0)
    # exp of each a_i by the same ufunc as the sloped segments; exp(a + 0 ln f)
    # is exp(a).
    levels = np.maximum(np.exp([a for a, _ in laws]), floor)

    def psd(f: np.ndarray, out: np.ndarray) -> np.ndarray:
        bounds = [0, *np.searchsorted(f, offsets), f.size]
        for (a, b), level, lo, hi in zip(laws, levels, bounds[:-1], bounds[1:]):
            if lo == hi:
                continue
            segment = out[lo:hi]
            if b == 0.0:
                segment.fill(level)
                continue
            np.log(f[lo:hi], out=segment)
            segment *= b
            segment += a
            np.exp(segment, out=segment)
            if min(segment[0], segment[-1]) < floor:
                np.maximum(segment, floor, out=segment)
        return out

    return psd


def _power_laws(spectrum: PhaseNoiseSpectrum) -> list[tuple[float, float]]:
    """(a_i, b_i) with S = exp(a_i + b_i ln f) on each segment of the table:
    below the first offset, between consecutive offsets, above the last."""
    x = [math.log(f_off) for f_off in spectrum.offsets_hz]
    l_tab = spectrum.l_dbc
    spans = [(l_tab[i + 1] - l_tab[i]) / (x[i + 1] - x[i]) for i in range(len(x) - 1)]
    # (knot, slope of L in dB per unit of ln f) through which each segment runs.
    segments = [(0, 0.0), *enumerate(spans), (len(x) - 1, spans[-1] if spans else 0.0)]
    db = math.log(10.0) / 10.0  # d ln S / d L
    return [(math.log(2.0) + db * (l_tab[i] - slope * x[i]), db * slope) for i, slope in segments]


def mix_spectra(
    a: PhaseNoiseSpectrum, b: PhaseNoiseSpectrum, mode: str = "sum"
) -> PhaseNoiseSpectrum:
    """Phase noise of an ideal mixer output.

    Phase fluctuations of the two inputs are statistically independent and
    add, so the output PSD is the pointwise sum S_a + S_b evaluated on the
    union of the two offset grids.  ``mode`` selects the output carrier
    a + b ("sum") or a - b ("difference").
    """
    if mode == "sum":
        carrier = a.carrier_hz + b.carrier_hz
    elif mode == "difference":
        carrier = a.carrier_hz - b.carrier_hz
        if carrier <= 0:
            raise ValueError("difference carrier must be positive")
    else:
        raise ValueError("mode must be 'sum' or 'difference'")
    offsets = np.union1d(np.asarray(a.offsets_hz), np.asarray(b.offsets_hz))
    s_total = ssb_to_psd(a, offsets) + ssb_to_psd(b, offsets)
    l_out = 10.0 * np.log10(s_total / 2.0)
    label = f"mix({a.label or 'a'},{b.label or 'b'})"
    return PhaseNoiseSpectrum(carrier, tuple(offsets), tuple(l_out), label)


# --- bundled spectra --------------------------------------------------------
# Hand-built piecewise approximations of the phase noise of two commercial
# generator families, anchored at the published -114 dBc/Hz (G1) and
# -134 dBc/Hz (G2) at 20 kHz offset from a 1 GHz carrier.  The shapes are
# digitization-quality only: good enough for floor budgeting and trend
# studies, not a substitute for the instrument's measured data.  Other
# carriers use the linear-with-carrier scaling model.

_G1_BASE = PhaseNoiseSpectrum(
    carrier_hz=1e9,
    offsets_hz=(1e1, 1e2, 1e3, 1e4, 2e4, 5e4, 1e5, 5e5, 8e5, 5e6, 1e7, 1e8),
    l_dbc=(-70.0, -84.0, -98.0, -112.0, -114.0, -116.0, -117.0, -117.0,
           -119.7, -138.8, -146.0, -155.0),
    label="g1",
)

_G2_BASE = PhaseNoiseSpectrum(
    carrier_hz=1e9,
    offsets_hz=(1e1, 1e2, 1e3, 1e4, 2e4, 1e5, 1e6, 2e6, 1e7, 1e8),
    l_dbc=(-80.0, -98.0, -116.0, -130.0, -134.0, -140.0, -148.0, -151.0,
           -152.0, -152.0),
    label="g2",
)

_PRESET_BASES: dict[str, tuple[PhaseNoiseSpectrum, float]] = {
    "g1-1ghz": (_G1_BASE, 1.0e9),
    "g1-2.5ghz": (_G1_BASE, 2.5e9),
    "g1-6ghz": (_G1_BASE, 6.0e9),
    "g2-0.85ghz": (_G2_BASE, 0.85e9),
    "g2-2.1ghz": (_G2_BASE, 2.1e9),
    "g2-5.7ghz": (_G2_BASE, 5.7e9),
}


def preset_names() -> list[str]:
    return sorted(_PRESET_BASES) + ["johnson-300k"]


def preset_spectrum(name: str) -> PhaseNoiseSpectrum:
    """A bundled approximate spectrum by name (see :func:`preset_names`)."""
    key = name.lower()
    if key == "johnson-300k":
        # Room-temperature thermal floor of a 0 dBm carrier: flat -177 dBc/Hz.
        return PhaseNoiseSpectrum(
            carrier_hz=2.87e9,
            offsets_hz=(1.0, 1e9),
            l_dbc=(-177.0, -177.0),
            label="johnson-300k",
        )
    try:
        base, carrier = _PRESET_BASES[key]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    out = base.scaled_to_carrier(carrier)
    return replace(out, label=key)


def flat_spectrum(
    l_dbc: DbcPerHz,
    carrier_hz: FrequencyHz = 2.87e9,
    f_max: FrequencyHz = 1e9,
    label: str = "flat",
) -> PhaseNoiseSpectrum:
    """Frequency-independent L(f) from 1 Hz to ``f_max``."""
    return PhaseNoiseSpectrum(carrier_hz, (1.0, f_max), (l_dbc, l_dbc), label)


# --- spectrum file I/O ------------------------------------------------------

def load_spectrum(path: str | Path, carrier_hz: FrequencyHz | None = None) -> PhaseNoiseSpectrum:
    """Read a two-column CSV table ``offset_hz,l_dbc_per_hz``.

    Lines starting with '#' are comments; a ``# carrier_hz=<value>`` comment
    sets the carrier unless overridden by the argument.
    """
    path = Path(path)
    metadata, data = read_csv(path, 2)
    carrier = carrier_hz if carrier_hz is not None else metadata.get("carrier_hz")
    if carrier is None:
        raise ValueError(f"{path}: no carrier given (use '# carrier_hz=...' or the argument)")
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    return PhaseNoiseSpectrum(
        float(carrier), tuple(data[:, 0]), tuple(data[:, 1]), label=path.stem
    )


def save_spectrum(spectrum: PhaseNoiseSpectrum, path: str | Path) -> None:
    rows = (
        f"{f_off:.10g},{l_val:.10g}" for f_off, l_val in zip(spectrum.offsets_hz, spectrum.l_dbc)
    )
    write_csv(
        Path(path), {"carrier_hz": f"{spectrum.carrier_hz:.10g}"}, "offset_hz,l_dbc_per_hz", rows
    )


# --- stochastic processes ---------------------------------------------------

@dataclass(frozen=True)
class WhiteNoise:
    """Independent Gaussian phase error per pulse, std ``sigma_wh`` (rad).

    Samples are deviations relative to the frame set by the initial pi/2
    pulse, which is taken as error-free.
    """

    sigma_wh: Radians
    seed: int = 0
    emulate_injection_bandwidth: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.sigma_wh < math.inf):
            raise ValueError("sigma_wh must be nonnegative and finite")

    @property
    def effective_sigma(self) -> Radians:
        gain = INJECTION_GAIN_WHITE if self.emulate_injection_bandwidth else 1.0
        return gain * self.sigma_wh


@dataclass(frozen=True)
class RandomWalkNoise:
    """Random-walk phase: N(0, sigma_rw^2) steps at rate ``r_samp``.

    By default consecutive samples differ by a Gaussian of variance
    sigma_rw^2 * r_samp * dt (the continuum limit); with
    ``discrete_jumps`` the walk advances only on ticks of a global clock at
    ``r_samp``, one Gaussian jump per tick.
    """

    sigma_rw: Radians
    r_samp: FrequencyHz
    seed: int = 0
    discrete_jumps: bool = False
    emulate_injection_bandwidth: bool = False

    def __post_init__(self) -> None:
        if not (0 <= self.sigma_rw < math.inf):
            raise ValueError("sigma_rw must be nonnegative and finite")
        if not (0 < self.r_samp < math.inf):
            raise ValueError("r_samp must be positive and finite")

    @property
    def effective_sigma(self) -> Radians:
        gain = INJECTION_GAIN_RANDOM_WALK if self.emulate_injection_bandwidth else 1.0
        return gain * self.sigma_rw


@dataclass(frozen=True)
class PsdDrivenNoise:
    """Phase samples read off a synthesized track with spectrum ``spectrum``
    band-limited to ``f_cutoff``.  Values are raw track reads; referencing
    to the frame of the first pulse is the simulator's job."""

    spectrum: PhaseNoiseSpectrum
    f_cutoff: FrequencyHz
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.f_cutoff < math.inf):
            raise ValueError("f_cutoff must be positive and finite")


NoiseProcess = Union[WhiteNoise, RandomWalkNoise, PsdDrivenNoise]

MAX_TRACK_SAMPLES = 1 << 26


def synthesize_phase_track(
    spectrum: PhaseNoiseSpectrum,
    duration: TimeSeconds,
    dt: TimeSeconds,
    seed: int,
    realization: int = 0,
    n_tracks: int = 1,
) -> np.ndarray:
    """Gaussian time series with one-sided PSD S_phi(f) on [1/duration, 1/(2 dt)].

    Standard Fourier synthesis: independent complex-normal coefficients with
    variance S(f_k) * n / (2 dt) per positive-frequency bin, inverse rFFT to
    a real track.  The DC bin is zero (absolute phase offset carries no
    information here).  Returns shape (n,) or (n_tracks, n).
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    n = int(round(duration / dt))
    if n < 2:
        raise ValueError("duration must cover at least two samples")
    if n * n_tracks > MAX_TRACK_SAMPLES:
        raise ValueError("requested track too large; reduce duration or raise dt")
    freqs = np.fft.rfftfreq(n, dt)
    s_vals = np.zeros_like(freqs)
    s_vals[1:] = ssb_to_psd(spectrum, freqs[1:])
    scale = np.sqrt(s_vals * n / (2.0 * dt))

    rng = _track_rng(seed, realization)
    re = rng.standard_normal((n_tracks, freqs.size))
    im = rng.standard_normal((n_tracks, freqs.size))
    coeff = (re + 1j * im) * (scale / math.sqrt(2.0))
    coeff[:, 0] = 0.0
    if n % 2 == 0:
        # Nyquist bin must be real; give it the full per-bin variance.
        coeff[:, -1] = re[:, -1] * scale[-1]
    tracks = np.fft.irfft(coeff, n=n, axis=1)
    return tracks[0] if n_tracks == 1 else tracks


def _track_rng(seed: int, realization: int) -> np.random.Generator:
    """Philox stream of the synthesis draws of tracks from ``realization`` on."""
    return philox_rng(seed, realization, 0x747261636B)


def _track_chunks(n: int, n_tracks: int):
    """(start, stop) realization ranges of n-sample tracks synthesized
    together, bounding each batch at a quarter of MAX_TRACK_SAMPLES.  A
    range's draws come from ``_track_rng(seed, start)``: all real parts of
    its coefficients, row by row, then all imaginary parts."""
    chunk = max(1, MAX_TRACK_SAMPLES // (4 * n))
    for start in range(0, n_tracks, chunk):
        yield start, min(start + chunk, n_tracks)


def _psd_track_layout(
    pulse_times: np.ndarray, f_cutoff: float
) -> tuple[float, float, np.ndarray]:
    """(duration, dt, sample indices) for reading pulses off a track.

    The track spans eight times the pulse window so its frequency comb
    (spacing 1/duration) resolves the filter passband, and it is sampled at
    the synthesis Nyquist rate of the cutoff.
    """
    t_max = float(pulse_times[-1]) if pulse_times.size else 0.0
    if t_max <= 0:
        t_max = 1.0 / f_cutoff
    dt = 1.0 / (2.0 * f_cutoff)
    duration = 8.0 * t_max
    n = int(round(duration / dt))
    if n > MAX_TRACK_SAMPLES:
        raise ValueError("pulse window too long for the requested cutoff")
    if n < 2:
        raise ValueError("pulse window too short for the requested cutoff")
    idx = np.clip(np.rint(pulse_times / dt).astype(int), 0, n - 1)
    return duration, dt, idx


def _walk_step_variances(process: RandomWalkNoise, times: np.ndarray) -> np.ndarray:
    """Variance of each random-walk step, from t = 0 to times[0], then
    between consecutive times."""
    sigma = process.effective_sigma
    bounds = np.concatenate(([0.0], times))
    if process.discrete_jumps:
        ticks = np.floor(bounds * process.r_samp)
        return sigma**2 * np.diff(ticks)
    return sigma**2 * process.r_samp * np.diff(bounds)


# Normal draws per block of the blocked samplers: 512 KB of float64, which
# stays in cache between the draw and its reduction.
_DRAW_BLOCK = 1 << 16


def _pulse_phase_blocks(
    process: WhiteNoise | RandomWalkNoise,
    times: np.ndarray,
    n_realizations: int,
    seed: int,
):
    """Yield (first row, block) of the white or random-walk realizations at
    ``times``, about ``_DRAW_BLOCK`` samples per block.

    The rows come in order from the process's one Philox stream, so the
    blocks joined are the matrix a single draw would give.  Each block is a
    view of one buffer that the next block overwrites.
    """
    if isinstance(process, WhiteNoise):
        rng = philox_rng(seed, 0x7768697465, 1)
        scale = process.effective_sigma
    else:
        rng = philox_rng(seed, 0x77616C6B, 1)
        scale = np.sqrt(_walk_step_variances(process, times))
    rows = max(1, min(_DRAW_BLOCK // max(times.size, 1), n_realizations))
    buf = np.empty((rows, times.size))
    for lo in range(0, n_realizations, rows):
        block = buf[: min(rows, n_realizations - lo)]
        rng.standard_normal(out=block)
        block *= scale
        if isinstance(process, RandomWalkNoise):
            np.cumsum(block, axis=1, out=block)
        yield lo, block


def sample_pulse_phases_batch(
    process: NoiseProcess,
    pulse_times,
    n_realizations: int,
    seed: int | None = None,
) -> np.ndarray:
    """Vectorized stack of realizations, shape (n_realizations, n_times).

    Row r is one realization of the source phase at the given times
    (radians).  ``pulse_times`` must be one-dimensional, nondecreasing and
    nonnegative.  ``seed`` overrides the process seed when given; the same
    seed always returns identical samples.
    """
    times = np.asarray(pulse_times, dtype=float)
    if times.ndim != 1:
        raise ValueError("pulse_times must be one-dimensional")
    if times.size and (np.any(np.diff(times) < 0) or times[0] < 0):
        raise ValueError("pulse_times must be nondecreasing and nonnegative")
    if n_realizations < 1:
        raise ValueError("n_realizations must be at least 1")
    base_seed = process.seed if seed is None else seed

    if isinstance(process, (WhiteNoise, RandomWalkNoise)):
        out = np.empty((n_realizations, times.size))
        for lo, block in _pulse_phase_blocks(process, times, n_realizations, base_seed):
            out[lo : lo + len(block)] = block
        return out

    if isinstance(process, PsdDrivenNoise):
        duration, dt, idx = _psd_track_layout(times, process.f_cutoff)
        out = np.empty((n_realizations, times.size))
        # Batch the fairly large tracks to bound peak memory.
        for start, stop in _track_chunks(int(round(duration / dt)), n_realizations):
            tracks = synthesize_phase_track(
                process.spectrum, duration, dt, base_seed,
                realization=start, n_tracks=stop - start,
            )
            tracks = np.atleast_2d(tracks)
            out[start:stop] = tracks[:, idx]
        return out

    raise TypeError(f"unknown noise process type: {type(process).__name__}")
