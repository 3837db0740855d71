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
at least one, or to whole pairs of chunks where :class:`_ChunkTransform`
packs two chunks per row), in buffers allocated once per walk and reused for
every block: each block draws its share of the phase-noise and shot-noise
terms into one buffer per term, builds its readouts in place in those
buffers, and its chunk spectra are added one by one, in stream order, into
one running sum per stream.  Consecutive draws on one keyed generator equal
one draw of the total size, and numpy reduces a stack of chunk spectra along
its first axis one row after another, so the spectra equal those of the
whole stream transformed at once, bit for bit, while memory depends on the
interval and the block, not on the duration.  Each step of a block runs as tasks on the lanes of one
:func:`~mwnoise.spin_simulator._lanes` pool per walk: the draws one task per
generator, the elementwise build over equal ranges of the block, and the
transforms over equal shares of the block's chunks of every stream (see
:func:`_block_spectra`).  A lane writes only its own buffers and ranges and
returns its chunk spectra; the calling thread alone adds them to the sums,
in stream order.  Elementwise work is the same in any range, so every bit
is the same on any number of lanes.  :func:`stream_spectra` and
:func:`gradiometer_spectra` run the walk; :func:`synthesize_stream`,
:func:`simulate_gradiometer` and :func:`amplitude_spectrum` are wrappers
over it that copy the blocks out or feed it a given stream.
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
    _keep_freed_heap,
    write_csv,
)
from .noise_models import NoiseProcess, _gaussian_stream, _keyed_rng
from .pulse_sequences import PulseSequence
from .spin_simulator import _lanes, _phi_tot_draws


@dataclass(frozen=True, eq=False)
class ReadoutStream:
    """Per-sequence tesla-equivalent readouts at the sequence rate."""

    samples: np.ndarray
    f_samp: FrequencyHz

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not 0 < self.f_samp < math.inf:
            raise ValueError("f_samp must be positive and finite")
        object.__setattr__(self, "samples", arr)

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
        if not (0 < self.interval < math.inf and 0 < self.f_samp < math.inf):
            raise ValueError("interval and f_samp must be positive and finite")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "asd", asd)


def alias_frequency(f: FrequencyHz, f_samp: FrequencyHz) -> tuple[FrequencyHz, FrequencyHz]:
    """(f_alias, f_ref) of a tone at ``f`` sampled at ``f_samp``.

    f_ref is the integer multiple of f_samp nearest to f; at exact
    half-multiples the tie goes to the lower multiple so the alias is
    f_samp/2.  The alias is |f - f_ref| <= f_samp/2.
    """
    if not 0 <= f < math.inf:
        raise ValueError("frequency must be nonnegative and finite")
    if not 0 < f_samp < math.inf:
        raise ValueError("f_samp must be positive and finite")
    n = math.ceil(f / f_samp - 0.5)
    f_ref = n * f_samp
    return abs(f - f_ref), f_ref


# Samples per block of the chunked stream walk, rounded down to whole chunks:
# 4 MiB of float64, no more than the array whose freeing raises glibc's
# thresholds (:func:`~mwnoise.core._keep_freed_heap`), so the walk's buffers
# and the transforms' working arrays come from the heap.  Each transform call
# costs a fixed time on top of its rows: at n = 42 134 = 2 * 21 067 (XY8-1 at
# 1 s) that is about 1.5 rows' time for np.fft.rfft and one row's for the
# packed transform (fitted over 1 to 12 rows per call, with the heap kept;
# ``BENCH_packed_transforms.json``), so a block keeps about a dozen rows per
# call at XY8-1 and 44 at XY8-8, and a lane transforms its share of a block in
# one call per stream.  A block of odd packed chunks holds an even number of
# them (:class:`_ChunkTransform`).  The walk allocates its buffers once: one
# block array per stream (two for noise on and off, three for the
# gradiometer) and per lane one complex buffer of at most a block's rows,
# about one block array.  On two lanes that is four block arrays, 16 MiB, for
# noise on and off and five for the gradiometer.
_BLOCK_SAMPLES = 1 << 19

# Samples per strip of a block's elementwise build: each lane builds its range
# of a block one strip at a time in three strips of its own, 128 KiB each (the
# sequence start times, which become a field, and the gradiometer's second
# field and a channel's field); a readout without a field reads no times.
_STRIP = 1 << 14


def _stream_blocks(f_samp: FrequencyHz, n_seq: int, n: int, draws, build, run, lanes: int):
    """Yield the streams of each block of max(1, _BLOCK_SAMPLES // n) whole
    n-sample chunks of the ``n_seq`` sequences; the last block holds what is
    left, a trailing partial chunk included.

    There is one stream per item of ``draws``, each a view of one buffer
    that every block reuses, so a block is gone once the walk moves on.  A
    draw is None or a function that writes the next out.size values of its
    term into ``out``; a block's draws run as tasks of ``run`` (of
    :func:`~mwnoise.spin_simulator._lanes`), one per generator, which draws in
    order, so a term's values are those of one call of size n_seq.  Unless
    it is None, ``build(work, times, *streams)`` then turns the terms into
    the streams in place, elementwise, over ``lanes`` equal ranges of the
    block run as tasks, one strip at a time: ``work`` is three strips of the
    lane's own, and ``times()`` writes the strip's sequence start times over
    the first and returns it.
    """
    step = max(1, _BLOCK_SAMPLES // n) * n
    buffers = [np.empty(min(step, n_seq)) for _ in draws]
    strip = min(_STRIP, step)
    works = [np.empty((3, strip)) for _ in range(lanes)]
    ramp = np.arange(strip, dtype=float)

    def fill(draw, out):
        if draw is not None:
            draw(out)

    def times(t, a):
        # a + k is exact in float64, so these are arange(a, a + t.size) / f_samp.
        np.add(ramp[: t.size], a, out=t)
        t /= f_samp
        return t

    def build_range(work, lo, hi):
        # Runs on a lane: numpy calls on sequences lo to hi of every stream.
        for a in range(lo, hi, strip):
            b = min(a + strip, hi)
            part = work[:, : b - a]
            rows = (stream[a - start : b - start] for stream in streams)
            build(part, lambda: times(part[0], a), *rows)

    for start in range(0, n_seq, step):
        size = min(step, n_seq - start)
        streams = [buffer[:size] for buffer in buffers]
        run(fill, draws, streams)
        if build is not None:
            bounds = [start + size * lane // lanes for lane in range(lanes + 1)]
            run(build_range, works, bounds[:-1], bounds[1:])
        yield streams


def _sequence_count(duration: TimeSeconds, f_samp: FrequencyHz) -> int:
    n_seq = int(round(duration * f_samp))
    if n_seq < 10:
        raise ValueError("duration must cover at least 10 sequences")
    return n_seq


def _readout_terms(
    seq: PulseSequence,
    process: NoiseProcess | None,
    test_field_amp: Tesla,
    f_test: FrequencyHz,
    shot_sigma: Radians,
    seed: int,
):
    """(draws, build) of :func:`_stream_blocks` for the (on, off) tesla
    readouts, or for (off,) when ``process`` is None.

    ``on`` is tone + phase noise + shot noise, ``off`` the same tone and shot
    draws without the phase noise.
    """
    if not 0 <= shot_sigma < math.inf:
        raise ValueError("shot_sigma must be nonnegative and finite")
    scale = 4.0 * GAMMA_NV * seq.tau_tot
    shot = None
    if shot_sigma > 0:
        shot = _gaussian_stream(shot_sigma, _keyed_rng(seed, 0x73686F74))
    has_tone = test_field_amp != 0

    def readouts(work, times, *streams):
        # In the operation order of tone + phi / scale + z / scale with
        # tone = amp sqrt(2) cos(2 pi f t), so every bit is that of the
        # expression: the tone is built over the times, or in the noise-off
        # stream when there are no shot draws, phi becomes the noise-on
        # readout and z the noise-off one.  At amplitude 0 the tone is +-0,
        # and x + 0 = x, so it is not built; without shot draws z is then
        # zeros, written in every block over the last block's values.
        z = streams[-1]
        tone = None
        if has_tone:
            out = z if shot is None else work[0]
            tone = np.cos(np.multiply(times(), 2.0 * np.pi * f_test, out=out), out=out)
            tone *= test_field_amp * math.sqrt(2.0)
        elif shot is None:
            z.fill(0.0)
        if shot is not None:
            z /= scale
        if len(streams) == 2:
            phi = streams[0]
            phi /= scale
            if tone is not None:
                phi += tone
            if shot is not None:
                phi += z
        if shot is not None and tone is not None:
            z += tone

    if process is None:
        return (shot,), readouts
    return (_phi_tot_draws(seq, process, seed), shot), readouts


def _gradiometer_terms(
    seq: PulseSequence,
    process: NoiseProcess,
    uniform_signal: Tesla,
    gradient_signal: Tesla,
    shot_sigma: Radians,
    n_sequences: int,
    seed: int,
    f_uniform: FrequencyHz,
    f_gradient: FrequencyHz,
):
    """Checked arguments, then (draws, build) of :func:`_stream_blocks` for
    the (ch1, ch2, ch1 - ch2) tesla readouts.

    The two channels' shot draws are the first and second n_sequences
    normals of one keyed stream; channel 2 reads them from a second
    generator on that stream, whose first draw discards channel 1's.
    """
    if n_sequences < 2:
        raise ValueError("need at least 2 sequences")
    if not 0 <= shot_sigma < math.inf:
        raise ValueError("shot_sigma must be nonnegative and finite")
    scale = 4.0 * GAMMA_NV * seq.tau_tot
    draws = (
        _gaussian_stream(shot_sigma, _keyed_rng(seed, 0x67726164)),
        _gaussian_stream(shot_sigma, _keyed_rng(seed, 0x67726164), skip=n_sequences),
        _phi_tot_draws(seq, process, seed),
    )
    has_uniform, has_gradient = uniform_signal != 0, gradient_signal != 0

    def channels(work, times, shot_1, shot_2, common):
        # In the operation order of
        # (scale * (uniform + sign * gradient) + common + shot) / scale,
        # so every bit is that of the expression: each channel is built in
        # its shot draws and the difference in the common term, which both
        # have read.  A field of amplitude 0 is +-0, and x + 0 = x, so it is
        # not built; scale * (0 - g) = -(scale * g).
        t, second, third = work
        if has_uniform and has_gradient:
            gradient = np.multiply(times(), 2.0 * np.pi * f_gradient, out=second)
            np.cos(gradient, out=gradient)
            gradient *= gradient_signal * math.sqrt(2.0)
            uniform = np.multiply(t, 2.0 * np.pi * f_uniform, out=t)
            np.cos(uniform, out=uniform)
            uniform *= uniform_signal * math.sqrt(2.0)
            fields = (np.add(uniform, gradient, out=third), np.subtract(uniform, gradient, out=t))
            for each in fields:
                each *= scale
                each += common
        elif has_uniform or has_gradient:
            amp, f = (uniform_signal, f_uniform) if has_uniform else (gradient_signal, f_gradient)
            field = np.cos(np.multiply(times(), 2.0 * np.pi * f, out=third), out=third)
            field *= amp * math.sqrt(2.0)
            field *= scale
            fields = (field, np.subtract(common, field, out=second) if has_gradient else field)
            field += common
        else:
            fields = (common, common)
        for each, shot in zip(fields, (shot_1, shot_2)):
            shot += each
            shot /= scale
        np.subtract(shot_1, shot_2, out=common)

    return draws, channels


def _joined(f_samp: FrequencyHz, n_seq: int, draws, build, count: int) -> list[np.ndarray]:
    """The first ``count`` streams of :func:`_stream_blocks` (same
    arguments, one-sample chunks), each block copied out of the walk's
    buffers into one new array per stream."""
    out = [np.empty(n_seq) for _ in range(count)]
    with _lanes(len(draws)) as (run, lanes):
        lo = 0
        for block in _stream_blocks(f_samp, n_seq, 1, draws, build, run, lanes):
            hi = lo + block[0].size
            for whole, part in zip(out, block):
                whole[lo:hi] = part
            lo = hi
    return out


def synthesize_stream(
    seq: PulseSequence,
    process: NoiseProcess | None,
    test_field_amp: Tesla,
    f_test: FrequencyHz,
    shot_sigma: Radians,
    duration: TimeSeconds,
    seed: int = 0,
) -> ReadoutStream:
    """Simulated readout stream: aliased test field + phase noise + shot noise.

    The AC test field (rms amplitude ``test_field_amp`` at ``f_test``) is
    sampled at the sequence start times, which aliases it into the first
    Nyquist zone automatically.  Source phase noise enters through the
    per-sequence accumulated phase and is scaled to tesla by
    1/(4 gamma tau_tot), as is the independent Gaussian shot term of std
    ``shot_sigma`` radians per sequence (a readout model's
    :attr:`~mwnoise.analytic_sensitivity.ReadoutModel.shot_sigma`), which
    must be nonnegative and finite.  ``process`` may be None for a noiseless
    source.  The samples are those :func:`stream_spectra` transforms, joined
    from its blocks.
    """
    n_seq = _sequence_count(duration, seq.f_samp)
    draws, build = _readout_terms(seq, process, test_field_amp, f_test, shot_sigma, seed)
    return ReadoutStream(_joined(seq.f_samp, n_seq, draws, build, 1)[0], seq.f_samp)


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
    ``n_sequences`` normals of one keyed stream.
    """
    draws, build = _gradiometer_terms(
        seq, process, uniform_signal, gradient_signal, shot_sigma, n_sequences, seed,
        f_uniform, f_gradient,
    )
    streams = _joined(seq.f_samp, n_sequences, draws, build, 3)
    return tuple(ReadoutStream(samples, seq.f_samp) for samples in streams)


def _chunk_length(interval: TimeSeconds, f_samp: FrequencyHz, n_samples: int) -> int:
    n = int(round(interval * f_samp))
    if n < 2:
        raise ValueError("interval too short: each chunk needs at least 2 samples")
    if n_samples < n:
        raise ValueError("interval exceeds the stream duration")
    return n


# Chunk lengths whose largest prime factor exceeds this are transformed as
# packed complex rows (:class:`_ChunkTransform`), all others by np.fft.rfft.
_PACKED_PRIME = 211


def _largest_prime_factor(n: int) -> int:
    largest, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            largest, n = p, n // p
        p += 1
    return max(largest, n)


class _ChunkTransform:
    """Magnitudes of the one-sided DFT of n-sample chunk rows, those of
    ``np.abs(np.fft.rfft(chunks, axis=1))`` to rounding.

    ``transform(chunks, spectra)`` writes them over each row's first
    n // 2 + 1 samples and returns that view; the transforms go through the
    complex buffer ``spectra`` of at least ``size(rows)`` elements (a new one
    when None).  numpy transforms a length with a large prime factor by
    Bluestein's chirp-z algorithm, as a complex transform of the full length
    that gains nothing from the input being real.  So at such a length the
    rows are packed into complex rows (Cooley, Lewis and Welch, 1970): an
    even row as n/2 complex points, whose transform is untangled into the
    n/2 + 1 bins by twiddles computed once per transform, and an odd row with
    its partner as the real and imaginary parts of one complex row, whose
    transform splits by conjugate symmetry.  A row's rounding then depends on
    its partner, so ``unit`` is 2 at odd packed lengths: row 2j is always
    packed with row 2j + 1, and an odd last row with zeros.  Which path a
    length takes depends only on its largest prime factor
    (``_PACKED_PRIME``); every other length goes through ``np.fft.rfft``.
    """

    def __init__(self, n: int):
        self.n = n
        self.unit = 1
        self._rows = self._rfft
        if _largest_prime_factor(n) > _PACKED_PRIME:
            if n % 2:
                self.unit = 2
                self._rows = self._packed_pairs
            else:
                # (1 - i w) / 2 and (1 + i w) / 2 at w = exp(-2 pi i k / n),
                # k = 1 ... n/2 - 1.
                theta = np.pi * np.arange(1, n // 2) / (n // 2)
                i_w = np.sin(theta) + 1j * np.cos(theta)
                self._twiddles = (0.5 - 0.5 * i_w, 0.5 + 0.5 * i_w)
                self._rows = self._packed_halves

    def size(self, rows: int) -> int:
        """Complex elements of the buffer that transforms ``rows`` rows."""
        return -(-rows // self.unit) * self.unit * (self.n // 2 + 1)

    def __call__(self, chunks: np.ndarray, spectra: np.ndarray | None = None) -> np.ndarray:
        if spectra is None:
            spectra = np.empty(self.size(len(chunks)), complex)
        return self._rows(chunks, spectra)

    def _rfft(self, chunks, spectra):
        rows, n = chunks.shape
        spectrum = np.fft.rfft(chunks, axis=1, out=spectra[: rows * (n // 2 + 1)].reshape(rows, -1))
        return np.abs(spectrum, out=chunks[:, : n // 2 + 1])

    def _packed_halves(self, chunks, spectra):
        # X[k] = Z[k] (1 - i w^k) / 2 + conj(Z[m - k]) (1 + i w^k) / 2 for
        # the transform Z of the m = n/2 points x[2j] + i x[2j + 1].
        rows, n = chunks.shape
        m = n // 2
        z = spectra[: rows * (m + 1)].reshape(rows, m + 1)
        np.fft.fft(chunks.view(complex), axis=1, out=z[:, :m])
        # The rows are read, so they hold the mirrored terms.
        mirror = chunks.view(complex)[:, 1:]
        np.conjugate(z[:, m - 1 : 0 : -1], out=mirror)
        mirror *= self._twiddles[1]
        inner = z[:, 1:m]
        inner *= self._twiddles[0]
        inner += mirror
        dc = z[:, 0]
        z[:, m] = dc.real - dc.imag
        z[:, 0] = dc.real + dc.imag
        return np.abs(z, out=chunks[:, : m + 1])

    def _packed_pairs(self, chunks, spectra):
        # Z is the transform of (x[2j] + i x[2j + 1]) / 2, so row 2j's bins
        # are Z[k] + conj(Z[n - k]) and row 2j + 1's -i (Z[k] - conj(Z[n - k])).
        rows, n = chunks.shape
        h, odd = n // 2, rows // 2
        z = spectra[: -(-rows // 2) * n].reshape(-1, n)
        np.multiply(chunks[0::2], 0.5, out=z.real)
        np.multiply(chunks[1::2], 0.5, out=z.imag[:odd])
        z.imag[odd:] = 0.0
        np.fft.fft(z, axis=1, out=z)
        low, high = z[:, 1 : h + 1], z[:, :h:-1]
        np.conjugate(high, out=high)
        # Rows 2j are read, so they hold the differences until rows 2j + 1
        # have taken them.
        difference = chunks[0::2, : 2 * h].view(complex)
        np.subtract(low, high, out=difference)
        np.add(low, high, out=low)
        np.abs(difference[:odd], out=chunks[1::2, 1 : h + 1])
        np.abs(low, out=chunks[0::2, 1 : h + 1])
        np.abs(2.0 * z[:, 0].real, out=chunks[0::2, 0])
        np.abs(2.0 * z[:odd, 0].imag, out=chunks[1::2, 0])
        return chunks[:, : h + 1]


def _magnitudes(chunks: np.ndarray, spectra: np.ndarray, transform: _ChunkTransform) -> np.ndarray:
    """Amplitude-normalized magnitude spectra of the rows of ``chunks``,
    written over each row's first n // 2 + 1 samples and returned; the
    transform goes through the complex buffer ``spectra``."""
    n = chunks.shape[1]
    mags = transform(chunks, spectra)
    mags *= math.sqrt(2.0) / n
    mags[:, 0] /= math.sqrt(2.0)
    if n % 2 == 0:
        mags[:, -1] /= math.sqrt(2.0)
    return mags


def _pieces(count: int, chunks: int, lanes: int, unit: int) -> list[list[tuple[int, int, int]]]:
    """Per lane, its (stream, first chunk, end chunk) pieces of ``count``
    streams of ``chunks`` chunks each, laid stream after stream and split
    into ``lanes`` ranges that differ by at most one unit of ``unit`` chunks;
    a stream's units start at its first chunk, and its last may be short."""
    units = -(-chunks // unit)
    bounds = [count * units * lane // lanes for lane in range(lanes + 1)]
    return [
        [
            (k, max(lo - k * units, 0) * unit, min((hi - k * units) * unit, chunks))
            for k in range(count)
            if lo < (k + 1) * units and hi > k * units
        ]
        for lo, hi in zip(bounds, bounds[1:])
    ]


def _block_spectra(
    f_samp: FrequencyHz, n_seq: int, n: int, draws, build
) -> list[AmplitudeSpectrum]:
    """Spectra of the n-sample chunks of the streams of :func:`_stream_blocks`
    (same arguments).

    The walk runs on the lanes of one :func:`~mwnoise.spin_simulator._lanes`
    pool, one lane per stream up to the cap and the usable CPUs.  Each
    block's whole chunks, stream after stream, are split evenly over the
    lanes (:func:`_pieces`), between pairs of chunks where the transform
    packs them in pairs, so a chunk's partner is the same on any number of
    lanes.  A lane transforms each of its pieces in one call, through a
    complex buffer of its own, writes the magnitudes over the piece's
    samples and returns them; it writes no sum.  The calling
    thread adds the returned rows to one sum per stream in lane order, which
    is stream order, and numpy reduces a C-ordered matrix along axis 0 one
    row after another, so each sum divided by the chunk count is
    ``mean(axis=0)`` of the stream's stacked chunk spectra, and every bit is
    the same on any number of lanes.
    """
    # numpy's FFTs allocate and free their working arrays on every call, and
    # at a Bluestein length on every row, megabytes each: on the heap they
    # are not page-faulted anew (a 600 s XY8-1 pipeline takes 0.22 M page
    # faults instead of 0.98 M).
    _keep_freed_heap()
    count = len(draws)
    chunk_transform = _ChunkTransform(n)
    unit = chunk_transform.unit
    rows = max(1, _BLOCK_SAMPLES // (unit * n)) * unit
    totals = np.zeros((count, n // 2 + 1))

    def transform(buffer, pieces):
        # Runs on a lane: writes only this lane's buffer and pieces.
        return [
            (k, _magnitudes(block[k][lo * n : hi * n].reshape(-1, n), buffer, chunk_transform))
            for k, lo, hi in pieces
        ]

    with _lanes(count) as (run, lanes):
        spectra = [
            np.empty(chunk_transform.size(min(rows, -(-count * rows // lanes))), complex)
            for _ in range(lanes)
        ]
        for block in _stream_blocks(f_samp, n_seq, unit * n, draws, build, run, lanes):
            for pieces in run(transform, spectra, _pieces(count, block[0].size // n, lanes, unit)):
                for k, mags in pieces:
                    for row in mags:
                        totals[k] += row
    n_chunks = n_seq // n
    chunk_seconds = n / f_samp
    return [
        AmplitudeSpectrum(
            np.fft.rfftfreq(n, 1.0 / f_samp),
            total / n_chunks * math.sqrt(chunk_seconds),
            chunk_seconds,
            n_chunks,
            f_samp,
        )
        for total in totals
    ]


def amplitude_spectrum(stream: ReadoutStream, interval: TimeSeconds) -> AmplitudeSpectrum:
    """Chunked, averaged one-sided amplitude spectrum.

    The stream is split into floor(duration/interval) chunks (the remainder
    is dropped), each chunk is Fourier transformed without windowing
    (sequences are synchronized, so test tones are coherent), and the
    magnitude spectra are averaged pointwise.
    """
    n = _chunk_length(interval, stream.f_samp, stream.samples.size)
    samples = stream.samples
    pos = 0

    def copy(out):
        # The walk writes the magnitudes over its buffer, never over the stream.
        nonlocal pos
        out[:] = samples[pos : pos + out.size]
        pos += out.size

    return _block_spectra(stream.f_samp, samples.size // n * n, n, [copy], None)[0]


def stream_spectra(
    seq: PulseSequence,
    process: NoiseProcess | None,
    test_field_amp: Tesla,
    f_test: FrequencyHz,
    shot_sigma: Radians,
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
    draws, build = _readout_terms(seq, process, test_field_amp, f_test, shot_sigma, seed)
    spectra = _block_spectra(seq.f_samp, n_seq, n, draws, build)
    return spectra[0], None if process is None else spectra[1]


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
) -> tuple[AmplitudeSpectrum, AmplitudeSpectrum, AmplitudeSpectrum]:
    """Amplitude spectra of the channels of :func:`simulate_gradiometer`
    (same arguments), computed one block of chunks at a time: (channel 1,
    channel 2, difference).
    """
    n = _chunk_length(interval, seq.f_samp, n_sequences)
    draws, build = _gradiometer_terms(
        seq, process, uniform_signal, gradient_signal, shot_sigma, n_sequences, seed,
        f_uniform, f_gradient,
    )
    return tuple(_block_spectra(seq.f_samp, n_sequences, n, draws, build))


# Thresholds of the noise-floor estimator: the half-width of the band set
# aside around the (aliased) test tone, the share of the highest bins set
# aside before the spike statistics, and the spike threshold in standard
# deviations above the median.
_TEST_HALFWIDTH_HZ = 500.0
_TRIM_FRACTION = 0.10
_SPIKE_NSIGMA = 4.0


def estimate_noise_floor(
    spectrum: AmplitudeSpectrum, f_test: FrequencyHz | None = None
) -> tuple[SensitivityTeslaSqrtS, np.ndarray]:
    """(noise floor, spike bin indices) of an amplitude spectrum.

    Bins below min(1 kHz, f_samp / 4) and within 500 Hz of the (aliased)
    test frequency are excluded: a stream sampled below 4 kHz keeps the
    upper half of its spectrum, where a fixed 1 kHz cut leaves less, and
    below 2 kHz nothing.  Of the remaining bins the top 10 % are set aside,
    a median and std are computed from the rest, bins above median + 4 std
    are flagged as spikes, and the floor is the median of the unflagged
    bins.  Indices refer to the full spectrum arrays.
    """
    include = spectrum.freqs >= min(1e3, spectrum.f_samp / 4.0)
    if f_test is not None:
        f_alias, _ = alias_frequency(f_test, spectrum.f_samp)
        include &= np.abs(spectrum.freqs - f_alias) > _TEST_HALFWIDTH_HZ
    if not np.any(include):
        raise ValueError("exclusion bands cover the whole spectrum")

    vals = spectrum.asd[include]
    # int(0.1 * size) < size, so at least one bin is left.
    core = np.sort(vals)[: vals.size - int(vals.size * _TRIM_FRACTION)]
    median = float(np.median(core))
    std = float(np.std(core))
    threshold = median + _SPIKE_NSIGMA * std

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
    if not (0 <= eta_on < math.inf and 0 <= eta_off < math.inf):
        raise ValueError("noise floors must be nonnegative and finite")
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


def _calibration_rows(
    arg_scale: float, v_test: np.ndarray, v_nv: np.ndarray, kappa: np.ndarray, slope: bool
) -> np.ndarray:
    """Rows (best v_max, cost) at each kappa, and the cost's slope / (2a) if ``slope``."""
    rows = max(1, _CAL_BLOCK // v_test.size)
    out = np.empty((3 if slope else 2, kappa.size))
    for start in range(0, kappa.size, rows):
        arg = arg_scale * kappa[start : start + rows, None] * v_test
        sin = np.sin(arg)
        s = np.abs(sin)
        v_max = np.sum(s * v_nv, axis=1) / np.sum(s * s, axis=1)
        residuals = v_max[:, None] * s - v_nv
        block = out[:, start : start + rows]
        block[0], block[1] = v_max, np.sum(residuals**2, axis=1)
        if slope:
            # At the best v_max the slope is 2 v_max <ds/dkappa, residuals>,
            # and ds/dkappa = a v_test sign(sin(arg)) cos(arg).
            block[2] = v_max * np.sum(residuals * v_test * np.sign(sin) * np.cos(arg), axis=1)
    return out


def _calibration_bounds(
    arg_scale: float, v_test: np.ndarray, v_nv: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the projected cost over each bracket [lo, hi].

    Over a bracket each s_i = |sin(a kappa v_i)| lies between its values at
    the two ends, widened to 0 where the argument crosses a multiple of pi
    and to 1 where it crosses pi/2 + k pi.  With v_nv >= 0 that bounds
    <s, v_nv> and <s, s>, and so the cost ||v_nv||^2 - <s, v_nv>^2 / <s, s>;
    the lower bound is -inf where s can vanish at every point.  The argument
    is rounded as :func:`_calibration_rows` rounds it, so every kappa it
    evaluates in the bracket lies between the two ends' arguments.
    """
    rows = max(1, _CAL_BLOCK // v_test.size)
    sums = np.empty((4, lo.size))
    for start in range(0, lo.size, rows):
        arg_lo = arg_scale * lo[start : start + rows, None] * v_test
        arg_hi = arg_scale * hi[start : start + rows, None] * v_test
        s_lo, s_hi = np.abs(np.sin(arg_lo)), np.abs(np.sin(arg_hi))
        s_max = np.maximum(s_lo, s_hi)
        s_min = np.minimum(s_lo, s_hi, out=s_lo)
        del s_hi
        arg_lo /= math.pi
        arg_hi /= math.pi
        s_min[np.floor(arg_hi) > np.floor(arg_lo)] = 0.0
        s_max[np.floor(arg_hi + 0.5) > np.floor(arg_lo + 0.5)] = 1.0
        sums[:, start : start + rows] = (
            np.sum(s_min * v_nv, axis=1),
            np.sum(s_max * v_nv, axis=1),
            np.sum(s_min * s_min, axis=1),
            np.sum(s_max * s_max, axis=1),
        )
    low_dot, high_dot, low_norm, high_norm = sums
    norm = np.sum(v_nv**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return norm - high_dot**2 / low_norm, norm - low_dot**2 / high_norm


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
    Before each bisection step, interval bounds on the cost over every
    bracket (:func:`_calibration_bounds`) drop the brackets whose lower bound
    lies above the least upper bound by more than that tie band: their
    refined cost could be neither the lowest nor a near-tie.  The bounds are
    taken again while they still drop brackets.  Every kept bracket is
    bisected exactly as without the pruning and each kappa's cost is
    computed alone, so kappa, v_max and the residual are those of bisecting
    every grid minimum, bit for bit, in a fraction of the time.
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

    tie = 1e-6 * float(np.sum(v_nv**2))
    grid = kappa_scale * np.logspace(-1.0, 3.0, _CAL_GRID_POINTS)
    cost = _calibration_rows(arg_scale, v_test, v_nv, grid, slope=False)[1]
    padded = np.concatenate(([np.inf], cost, [np.inf]))
    minima = np.flatnonzero((cost < padded[:-2]) & (cost <= padded[2:]))
    lo = grid[np.maximum(minima - 1, 0)]
    hi = grid[np.minimum(minima + 1, grid.size - 1)]
    pruning = True
    for _ in range(_CAL_BISECTIONS):
        if pruning:
            # Each bracket ends with its kappa inside it, so one whose lower
            # bound exceeds the least upper bound by more than the tie band
            # (plus 1e-9 of sum(v_nv^2) for rounding) can be neither the best
            # nor a near-tie.  Narrower brackets give tighter bounds, so they
            # are taken again while they still drop brackets.
            low, high = _calibration_bounds(arg_scale, v_test, v_nv, lo, hi)
            keep = ~(low > np.min(high) + tie + 1e-3 * tie)
            pruning = not keep.all()
            lo, hi = lo[keep], hi[keep]
        mid = 0.5 * (lo + hi)
        rising = _calibration_rows(arg_scale, v_test, v_nv, mid, slope=True)[2] > 0
        new_lo, new_hi = np.where(rising, lo, mid), np.where(rising, mid, hi)
        # A step that moves no bracket is a fixed point: every later step
        # would recompute the same midpoints and slope signs.
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    kappa = 0.5 * (lo + hi)
    v_max, cost = _calibration_rows(arg_scale, v_test, v_nv, kappa, slope=False)
    # A rectified sine sampled on a grid aliases: kappa values whose argument
    # spacing agrees modulo pi reproduce the same points exactly, so several
    # minima can have equal cost.  The fundamental is the smallest such
    # kappa; prefer it among near-ties.
    tied = np.flatnonzero(cost <= cost.min() + tie)
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
