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
from one factory, ``_keyed_rng``: a numpy SFC64 generator seeded from a
128-bit key of (seed, stream, ...) tuples, so runs are reproducible and
realizations can be generated independently in any order.

Only the Monte Carlo draws per-realization noise: it is the check of the
closed forms (``spin_simulator.monte_carlo_sigma_phi``).  Every process
goes through its one draw plan: chunks of realizations of at most 2^19
samples (``_track_chunks``), each drawn from its own keyed generator
(``_chunk_rng``), as blocks of standard normal rows that are reduced to
phi_tot by fixed coefficients before the next block is drawn, so memory is
set by the block, not by the realization count.  White and random-walk rows
are the standard normals of :func:`sample_pulse_phases_batch`, which scales
them (and sums a walk's steps) into pulse samples; the Monte Carlo folds
that scaling and sum into its coefficients.  PSD-driven rows are the
synthesis draws of :func:`synthesize_phase_track`, read through the comb
transfer of the sample times, which gives the same phi_tot as the tracks
without building them.  :func:`sample_pulse_phases_batch` stays as the
time-domain oracle of every process.
Readout streams and the gradiometer draw each sequence's phi_tot directly
from its exact variance, which every process fixes in closed form (see
``spin_simulator._phi_tot_draws``).
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

_KEY_MASK = (1 << 64) - 1


def _mix_key(*parts: int) -> list[int]:
    """Fold integer identifiers and their count into a 128-bit key, as two
    64-bit words (splitmix-style).  Each part is taken modulo 2^64.

    ``SeedSequence`` would merge some tuples if given them directly: it
    splits ints into 32-bit words and pads its entropy with zero words, so
    (5, 7), (5, 7, 0) and (2^32 * 7 + 5,) would all seed the same state.
    """
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = (acc ^ (p & _KEY_MASK)) * 0xBF58476D1CE4E5B9 & _KEY_MASK
        acc = (acc ^ (acc >> 31)) * 0x94D049BB133111EB & _KEY_MASK
    return [acc, (acc * 0xD6E8FEB86659FD93 ^ len(parts)) & _KEY_MASK]


def _keyed_rng(*key_parts: int) -> np.random.Generator:
    """Generator for a (seed, stream, ...) tuple: SFC64 seeded by
    ``SeedSequence`` from the tuple's 128-bit :func:`_mix_key` key.

    Distinct tuples give statistically independent streams; the same tuple
    always reproduces the same draws regardless of what other streams were
    consumed before.  Every generator of the package comes from here.
    """
    low, high = _mix_key(*key_parts)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(low | high << 64)))


def _gaussian_stream(sigma: float, rng: np.random.Generator, skip: int = 0):
    """Function writing ``sigma`` times the next ``out.size`` normals of
    ``rng`` into ``out``, and returning ``out``.

    Consecutive calls continue the stream, so calls of sizes a, b, ... give
    the values of one call of size a + b + ....  The first call first
    discards ``skip`` normals, drawn into ``out`` in pieces.  A call
    allocates nothing, so a caller can draw every block into one buffer.
    """

    def draw(out: np.ndarray) -> np.ndarray:
        nonlocal skip
        while skip and out.size:
            piece = out[:skip]
            rng.standard_normal(out=piece)
            skip -= piece.size
        rng.standard_normal(out=out)
        out *= sigma
        return out

    return draw


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
    """S_phi as a function of (f, out): ``f`` ascending, nonnegative and
    finite (unchecked), the values written into ``out``, of f's size, and
    returned.

    L is linear in ln f on each segment of the table (the hold below the
    first offset, each span between offsets, the extrapolation above the
    last), so S is one power law exp(a_i + b_i ln f) per segment, built here
    once.  Each call finds the segments' bounds by one search of the offsets
    in the ascending frequencies, so each segment is a slice with scalar
    a_i, b_i.  A segment of zero slope is filled with exp(a_i) and takes no
    log; the hold has zero slope, so f = 0 reads the hold's level.  A power
    law is monotone on its segment, so only a segment whose end values fall
    below the floor of L is clamped.
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


def mix_spectra(a: PhaseNoiseSpectrum, b: PhaseNoiseSpectrum) -> PhaseNoiseSpectrum:
    """Phase noise of an ideal mixer's sum output, at carrier a + b.

    Phase fluctuations of the two inputs are statistically independent and
    add, so the output PSD is the pointwise sum S_a + S_b evaluated on the
    union of the two offset grids.
    """
    carrier = a.carrier_hz + b.carrier_hz
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

    def __post_init__(self) -> None:
        if not (0 <= self.sigma_wh < math.inf):
            raise ValueError("sigma_wh must be nonnegative and finite")


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

    def __post_init__(self) -> None:
        if not (0 <= self.sigma_rw < math.inf):
            raise ValueError("sigma_rw must be nonnegative and finite")
        if not (0 < self.r_samp < math.inf):
            raise ValueError("r_samp must be positive and finite")


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
    """Keyed stream of the synthesis draws of tracks from ``realization`` on."""
    return _keyed_rng(seed, realization, 0x747261636B)


def _track_chunks(n: int, n_tracks: int):
    """(start, stop) ranges of realizations of n samples each drawn
    together, bounding each batch at 2^19 samples, eight Monte Carlo draw
    blocks.  A range's draws come from ``_chunk_rng(process, seed, start)``.
    The ranges depend on n alone, so a smaller run's are a prefix of a
    larger run's.

    The Monte Carlo hands the ranges out in order to its threads, so the
    bound sets how evenly they share a run: at 458 kHz, XY8-1's 3 500-sample
    PSD tracks come in ranges of 149 realizations and XY8-8's 28 000-sample
    tracks in ranges of 18; white and random-walk samples at the 65 pulse
    times of XY8-8 come in ranges of 8 065, and at the 513 of XY8-64 in
    ranges of 1 022.  So 2 000 PSD realizations of XY8-1, 250 of XY8-8,
    100 000 white ones of XY8-8 and 20 000 random-walk ones of XY8-64 make
    14, 14, 13 and 20 ranges, and of two threads the busier draws at most
    one range more than the other.  Keying a range costs 12-15 us on a
    2-vCPU x86-64 host, against about 5 ms of draws.
    """
    chunk = max(1, (1 << 19) // max(n, 1))
    for start in range(0, n_tracks, chunk):
        yield start, min(start + chunk, n_tracks)


def _chunk_rng(process: NoiseProcess, seed: int, start: int) -> np.random.Generator:
    """Keyed generator of the draws of ``process``'s realizations from
    ``start`` on, the first of a range of :func:`_track_chunks`.

    PSD-driven: the synthesis draws of the range's tracks, all real parts of
    their coefficients, row by row, then all imaginary parts.  White and
    random walk: one standard normal per sample time, row by row.
    """
    if isinstance(process, PsdDrivenNoise):
        return _track_rng(seed, start)
    tag = 0x7768697465 if isinstance(process, WhiteNoise) else 0x77616C6B
    return _keyed_rng(seed, tag, 1 + start)


def _psd_track_layout(
    pulse_times: np.ndarray, f_cutoff: float
) -> tuple[float, float, np.ndarray]:
    """(duration, dt, sample indices) for reading pulses off a track.

    The track spans twice the pulse window t_max and is sampled at the
    synthesis Nyquist rate of the cutoff.  Fourier synthesis is periodic in
    the span D, so the samples' covariance on the grid is the continuous
    one plus copies aliased from lags of D - t_max and beyond, and the
    filter passband is resolved by a comb of spacing 1/D.  From D = 2 t_max
    on, both errors are below the one the grid already has: the grid std of
    XY8-1 at 458 kHz (g1-2.5ghz, 100 MHz cutoff) is 0.097 % under the
    filter-function value, against 1.39 % at D = t_max and 0.001 % at
    D = 8 t_max, while rounding pulse times onto the grid alone reaches
    0.83 % (g2-2.1ghz, XY8-2 at 3 MHz).  The sample count is then rounded
    up by :func:`_fft_length` (XY8-1 at 458 kHz and 100 MHz: 3 493 -> 3 500
    samples; XY8-8: 27 948 -> 28 000), so that no transform of the track,
    the comb transfer's above all, needs Bluestein's algorithm: at XY8-16
    the unrounded count's largest prime factor is 1 597.  Each realization
    draws about 4 t_max f_cutoff normals.
    """
    t_max = float(pulse_times[-1]) if pulse_times.size else 0.0
    if t_max <= 0:
        t_max = 1.0 / f_cutoff
    dt = 1.0 / (2.0 * f_cutoff)
    n = int(round(2.0 * t_max / dt))
    if n > MAX_TRACK_SAMPLES:
        raise ValueError("pulse window too long for the requested cutoff")
    if n < 2:
        raise ValueError("pulse window too short for the requested cutoff")
    n = _fft_length(n)
    idx = np.clip(np.rint(pulse_times / dt).astype(int), 0, n - 1)
    return n * dt, dt, idx


def _fft_length(n: int) -> int:
    """Smallest even length of at least ``n`` samples whose prime factors
    are 2, 3, 5, 7 and 11 only, each of which numpy's pocketfft transforms
    natively.  Such lengths lie at most 2.1 % apart from 3 500 on and 1.0 %
    from 28 000 on."""
    best = 2
    while best < n:
        best *= 2
    odd = [1]  # the odd such numbers below best
    for p in (3, 5, 7, 11):
        more = []
        for m in odd:
            while m < best:
                more.append(m)
                m *= p
        odd = more
    for m in odd:
        length = 2 * m
        while length < n:
            length *= 2
        best = min(best, length)
    return best


def _walk_step_variances(process: RandomWalkNoise, times: np.ndarray) -> np.ndarray:
    """Variance of each random-walk step, from t = 0 to times[0], then
    between consecutive times."""
    sigma = process.sigma_rw
    bounds = np.concatenate(([0.0], times))
    if process.discrete_jumps:
        ticks = np.floor(bounds * process.r_samp)
        return sigma**2 * np.diff(ticks)
    return sigma**2 * process.r_samp * np.diff(bounds)


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
        for start, stop in _track_chunks(times.size, n_realizations):
            _chunk_rng(process, base_seed, start).standard_normal(out=out[start:stop])
        if isinstance(process, WhiteNoise):
            out *= process.sigma_wh
        else:
            out *= np.sqrt(_walk_step_variances(process, times))
            np.cumsum(out, axis=1, out=out)
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
