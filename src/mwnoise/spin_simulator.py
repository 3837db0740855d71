"""Time-domain spin-phase propagation under microwave phase errors.

Each pi pulse about an axis rotated by the instantaneous source phase error
alpha reflects the accumulated spin phase: phi -> 2 alpha - phi.  Starting
from phi = 0 after the initial pi/2 pulse, N pulses and a final readout
pulse with phase error alpha_f leave

    phi_tot = -alpha_f + sum_{i=1..N} (-1)^(N-i) 2 alpha_i.

The XY8 axis pattern adds desired phases that cancel in this alternating
sum, so its phase-error statistics match CPMG's exactly; the Monte Carlo
therefore uses the CPMG timing with instantaneous pulses at the sequence's
pulse centers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic_sensitivity import eta_phi, sigma_phi_filter
from .core import GAMMA_NV, FrequencyHz, Radians, Tesla, TimeSeconds, _check_range
from .noise_models import (
    NoiseProcess,
    PhaseNoiseSpectrum,
    PsdDrivenNoise,
    RandomWalkNoise,
    WhiteNoise,
    _chunk_rng,
    _gaussian_stream,
    _keyed_rng,
    _psd_track_layout,
    _track_chunks,
    _walk_step_variances,
    mix_spectra,
    ssb_to_psd,
    synthesize_phase_track,
)
from .pulse_sequences import PulseSequence


def propagate_phase(alphas, alpha_f: Radians) -> Radians:
    """Spin phase after the full pulse train, by the reflection recursion.

    ``alphas`` are the per-pulse source phase errors in pulse order,
    ``alpha_f`` the error of the final readout pulse, all relative to the
    frame of the (assumed perfect) initial pi/2 pulse.
    """
    phi = 0.0
    for alpha in np.asarray(alphas, dtype=float):
        phi = 2.0 * alpha - phi
    return float(phi - alpha_f)


def _alternating_weights(n_pi: int) -> np.ndarray:
    """Coefficients of alpha_1..alpha_N in the closed form of the recursion."""
    signs = np.where((n_pi - np.arange(1, n_pi + 1)) % 2 == 0, 1.0, -1.0)
    return 2.0 * signs


# Fewest realizations whose sample std is a usable estimate.
_MIN_REALIZATIONS = 100

# Normal draws per block of the Monte Carlo: 512 KB of float64, which stays
# in cache between the draw and its reduction.
_DRAW_BLOCK = 1 << 16

# Most threads of one lane pool (:func:`_lanes`): those that draw one Monte
# Carlo's chunks or build and transform one stream block.  A Monte Carlo lane
# holds a draw buffer of up to max(_DRAW_BLOCK, row width) floats and a stream
# lane the FFT of its share of one block, so the cap keeps that memory within
# a constant factor of the coefficient arrays or the block on any host.  The
# sweep's worker processes set it to 1 (:func:`_one_lane`), so processes and
# threads never multiply.
_LANE_CAP = 4


def _one_lane() -> None:
    """Initializer of a sweep's worker processes: one lane, so every Monte
    Carlo draws and every stream block transforms on the worker's own
    thread."""
    global _LANE_CAP
    _LANE_CAP = 1


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _lanes(tasks: int):
    """Context of (run, lanes): ``run(fn, *iterables)`` calls ``fn`` on the
    zipped items, at most ``tasks`` per run, and returns the results in
    order, on ``lanes`` = min(tasks, ``_LANE_CAP``, usable CPUs) threads.

    The calls run on one pool of ``lanes`` threads, kept for every ``run`` of
    the context, or inline when that is one; either way they start in item
    order, and ``run`` raises the error of the first failing call in item
    order.  Calls not yet started are cancelled once the context's block
    raises; an interrupt (a ``BaseException`` that is no ``Exception``)
    leaves at once, and the calls already running finish on their own.
    ``fn`` must release the GIL for the lanes to overlap and must write
    nothing another call of the same ``run`` reads or writes; what the calls
    make together, such as a sum, the calling thread makes from their
    results.
    """
    lanes = min(tasks, _LANE_CAP, _usable_cpus())
    if lanes <= 1:
        yield (lambda fn, *items: list(map(fn, *items))), 1
        return

    pool = ThreadPoolExecutor(max_workers=lanes)
    try:
        yield (lambda fn, *items: list(pool.map(fn, *items))), lanes
    except BaseException as exc:
        pool.shutdown(wait=isinstance(exc, Exception), cancel_futures=True)
        raise
    pool.shutdown()


@dataclass(frozen=True)
class MonteCarloResult:
    n_realizations: int
    sigma_phi_empirical: Radians
    standard_error: Radians
    seed: int


def monte_carlo_sigma_phi(
    seq: PulseSequence,
    process: NoiseProcess,
    n_realizations: int,
    seed: int | None = None,
) -> MonteCarloResult:
    """Empirical std of phi_tot over independent noise realizations.

    Pulses are treated as instantaneous at the sequence's pulse centers and
    the final readout pulse at tau_tot.  phi_tot is that of the samples
    :func:`~mwnoise.noise_models.sample_pulse_phases_batch` draws at those
    times; for the PSD-driven process the source phase at t = 0 is
    subtracted from every sample to reference the errors to the initial
    pulse's frame (white and random-walk samples are frame-referenced by
    construction).  One draw loop, :func:`_monte_carlo_phi_tot`, reduces the
    same normal draws to phi_tot a block at a time, without the sample
    matrix or the PSD tracks, and draws its chunks of realizations on up to
    four threads.  No reduction calls BLAS, so the result depends neither on
    the number of threads nor on ``OPENBLAS_NUM_THREADS``.  ``seed``
    defaults to the process's seed; the result records the seed used.
    """
    _check_range(f"[{_MIN_REALIZATIONS}, inf)", n_realizations=n_realizations)
    seed = process.seed if seed is None else seed
    phi_tot = _monte_carlo_phi_tot(seq, process, n_realizations, seed)
    sigma = float(np.std(phi_tot, ddof=1))
    std_err = sigma / math.sqrt(2.0 * (n_realizations - 1))
    return MonteCarloResult(n_realizations, sigma, std_err, seed)


def _monte_carlo_phi_tot(
    seq: PulseSequence, process: NoiseProcess, n_realizations: int, seed: int
) -> np.ndarray:
    """phi_tot of ``n_realizations`` realizations of ``process``.

    The realizations come in the chunks of :func:`_track_chunks` of the
    process's samples per realization, each drawn from its own
    ``_chunk_rng(process, seed, start)``, which are the generators of
    :func:`~mwnoise.noise_models.sample_pulse_phases_batch`.  For each pass
    of :func:`_phi_tot_coefficients`, a chunk draws blocks of standard normal
    rows and adds each block times the pass's coefficients to its
    realizations.

    Chunks are drawn on the lanes of :func:`_lanes`: min(chunks, usable CPUs,
    ``_LANE_CAP``) threads, and inline when that is one.  The lanes take the
    chunks in order, and a chunk holds at most 2^19 samples, so they finish
    within one chunk of each other: of two lanes, the busier draws 1 043 of
    2 000 XY8-1 PSD realizations and 126 of 250 at XY8-8.  A chunk makes its
    generator and buffer on its thread, writes only its own realizations and
    keeps its sum order, so every realization is bit-identical whatever the
    number of threads.
    """
    samples, passes = _phi_tot_coefficients(seq, process)
    # Allocated first: a count too large for memory fails here, before the
    # chunk list is built.
    phi_tot = np.zeros(n_realizations)
    chunks = list(_track_chunks(samples, n_realizations))
    width = passes[0].size
    rows = max(1, min(_DRAW_BLOCK // width, n_realizations))

    def draw(chunk: tuple[int, int]) -> None:
        # Runs on a lane thread: numpy calls only, which release the GIL, and
        # writes to this chunk's rows alone.
        start, stop = chunk
        rng = _chunk_rng(process, seed, start)
        buf = np.empty((min(rows, stop - start), width))
        for coef in passes:
            for lo in range(start, stop, rows):
                hi = min(lo + rows, stop)
                block = buf[: hi - lo]
                rng.standard_normal(out=block)
                # einsum (not optimized) never calls BLAS, whose threads
                # would make the sum's bits depend on their number.
                phi_tot[lo:hi] += np.einsum("ij,j->i", block, coef)

    # Each task makes its own generator and buffer, so at most one per lane
    # exists at once.
    with _lanes(len(chunks)) as (run, _):
        run(draw, chunks)
    return phi_tot


def _phi_tot_draws(
    seq: PulseSequence, process: NoiseProcess, seed: int
) -> Callable[[np.ndarray], np.ndarray]:
    """Function writing the next ``out.size`` phi_tot samples of one stream
    of independent sequences into ``out``.

    Per-sequence draws are independent: each sequence is referenced to the
    frame of its own initial pi/2 pulse, so a source phase track contributes
    only through its increments inside that sequence's interrogation window,
    and consecutive windows occupy disjoint time intervals.  The weights of
    the pulse phases, final pulse included, sum to -1 for an even pulse
    count and +1 for an odd one; that remainder multiplies the frame phase
    at the sequence start, which the reference removes.

    phi_tot is a fixed linear combination of Gaussian source phases, so it is
    Gaussian with a variance every process fixes in closed form.  Each
    sequence is one draw at that std, which costs the same whatever the
    pulse count; :func:`monte_carlo_sigma_phi` keeps per-realization
    sampling as the check.

    Consecutive calls continue one keyed stream, so the samples of calls of
    sizes a, b, ... equal those of one call of size a + b + ...; the chunked
    readout-stream walk of :mod:`mwnoise.signal_pipeline` relies on that.
    """
    return _gaussian_stream(_phi_tot_sigma(seq, process), _keyed_rng(seed, 0x70736453))


def _phi_tot_sigma(seq: PulseSequence, process: NoiseProcess) -> Radians:
    """Exact std of phi_tot for one sequence under ``process``: phi_tot is
    the sum over :func:`_phi_tot_coefficients`' passes of independent
    standard normals times the pass's coefficients."""
    _, passes = _phi_tot_coefficients(seq, process)
    return math.sqrt(float(sum(np.sum(coef * coef) for coef in passes)))


def _phi_tot_coefficients(
    seq: PulseSequence, process: NoiseProcess
) -> tuple[int, tuple[np.ndarray, ...]]:
    """(samples, passes): the samples each realization of ``process`` draws
    for one sequence, and the coefficients with which phi_tot is
    sum_p rows_p @ passes[p] for consecutive rows of standard normals.

    - White: one normal per sample time (the pulse centers and tau_tot),
      each scaled by sigma, so one pass of sigma times the pulse weights w.
    - Random walk: one normal per step, scaled by the step's std s_k.
      phi_tot = sum_i w_i sum_{k<=i} s_k z_k = sum_k s_k T_k z_k with the
      tail weights T_k = sum_{i>=k} w_i, so one pass of s_k T_k.
    - PSD-driven: the synthesis draws (re, im) of one n-sample track of
      :func:`synthesize_phase_track`, with phi_tot = re @ u + im @ v.  The
      track layout is that of :func:`sample_pulse_phases_batch` for the
      sample times 0, the pulse centers and tau_tot.  The weights of those
      samples in phi_tot include the frame reference at t = 0, w_0 = -sum
      of the others.  Samples sit on the track grid (idx * dt) and line k is
      at k / (n dt), so F, the rfft of the weighted comb, gives the transfer
      of every line in O(n log n) time and O(n) memory.  A track is the
      irfft of c_k = s_k (re_k + i im_k) with s_k = sqrt(S_k n / (4 dt)),
      and the irfft's weight 2/n on interior bins gives u_k = sqrt(S_k /
      (n dt)) Re(F_k) and v_k = sqrt(S_k / (n dt)) Im(F_k); S is zero at DC.
      The Nyquist coefficient of an even n is re sqrt(2) s and enters the
      track once, so there u is divided by sqrt(2) and v is zero.
    """
    weights = np.concatenate((_alternating_weights(seq.n_pi), [-1.0]))
    if isinstance(process, WhiteNoise):
        return weights.size, (process.sigma_wh * weights,)
    if isinstance(process, RandomWalkNoise):
        times = np.concatenate((seq.pulse_times(), [seq.tau_tot]))
        tail = np.cumsum(weights[::-1])[::-1]
        return weights.size, (np.sqrt(_walk_step_variances(process, times)) * tail,)
    if not isinstance(process, PsdDrivenNoise):
        raise TypeError(f"unknown noise process type: {type(process).__name__}")
    times = np.concatenate(([0.0], seq.pulse_times(), [seq.tau_tot]))
    duration, dt, idx = _psd_track_layout(times, process.f_cutoff)
    n = int(round(duration / dt))
    comb = np.zeros(n)
    np.add.at(comb, idx, np.concatenate(([-np.sum(weights)], weights)))
    transfer = np.fft.rfft(comb)
    del comb
    # gain = sqrt(S / (n dt)) and then v, in one array: at XY8-512 each of
    # these arrays takes 7 MB.
    gain = np.zeros(n // 2 + 1)
    gain[1:] = ssb_to_psd(process.spectrum, np.fft.rfftfreq(n, dt)[1:])
    gain /= n * dt
    np.sqrt(gain, out=gain)
    u = gain * transfer.real
    v = np.multiply(gain, transfer.imag, out=gain)
    if n % 2 == 0:
        u[-1] /= math.sqrt(2.0)
        v[-1] = 0.0
    return n, (u, v)


def psd_sigma_phi_grid(process: PsdDrivenNoise, seq: PulseSequence) -> Radians:
    """Per-sequence phase std implied by the discrete synthesis grid.

    This is the exact std of the phi_tot that :func:`monte_carlo_sigma_phi`
    samples for the PSD-driven process: phi_tot = re @ u + im @ v of
    independent standard normals, so its variance is sum u^2 + sum v^2.
    """
    return _phi_tot_sigma(seq, process)


# --- double-quantum magnetometry -------------------------------------------

def dq_ramsey_probability(
    delta_alpha: Radians,
    delta_alpha_prime: Radians,
    b_z: Tesla,
    tau: TimeSeconds,
) -> float:
    """Bright-state probability of a double-quantum Ramsey measurement.

    ``delta_alpha`` and ``delta_alpha_prime`` are the two-tone phase
    differences at the first and second pulse.  Only their change and the
    accumulated field phase matter:

        p = cos^2((delta_alpha' - delta_alpha)/2 - 2 pi gamma b_z tau).
    """
    _check_range(
        "(-inf, inf)", delta_alpha=delta_alpha, delta_alpha_prime=delta_alpha_prime, b_z=b_z
    )
    _check_range("[0, inf)", tau=tau)
    arg = 0.5 * (delta_alpha_prime - delta_alpha) - 2.0 * math.pi * GAMMA_NV * b_z * tau
    return math.cos(arg) ** 2


def dq_ramsey_probability_tones(
    alpha_low: Radians,
    alpha_high: Radians,
    alpha_low_prime: Radians,
    alpha_high_prime: Radians,
    b_z: Tesla,
    tau: TimeSeconds,
) -> float:
    """Same, from the four individual tone phases.

    A carrier phase shift common to both tones of a pulse cancels in the
    differences, which is the point of the scheme: only the lower-frequency
    (LO) source contributes.
    """
    return dq_ramsey_probability(
        alpha_high - alpha_low, alpha_high_prime - alpha_low_prime, b_z, tau
    )


def dq_noise_suppression(
    lo_spectrum: PhaseNoiseSpectrum,
    carrier_spectrum: PhaseNoiseSpectrum,
    seq: PulseSequence,
    f_cutoff: FrequencyHz = 1e8,
) -> tuple[float, float]:
    """(eta_dq, eta_single): sensitivity with the two-tone scheme vs a
    single mixed tone.

    The double-quantum drive sees only the LO's phase noise; a conventional
    single-tone drive built by mixing sees the sum of carrier and LO noise.
    """
    eta_dq = eta_phi(sigma_phi_filter(lo_spectrum, seq, f_cutoff), seq)
    mixed = mix_spectra(carrier_spectrum, lo_spectrum)
    eta_single = eta_phi(sigma_phi_filter(mixed, seq, f_cutoff), seq)
    return eta_dq, eta_single


# --- cw magnetometry ---------------------------------------------------------

def simulate_cw_trace(
    model,
    spectrum: PhaseNoiseSpectrum,
    b_series,
    dt: TimeSeconds,
    duration: TimeSeconds,
    seed: int = 0,
) -> np.ndarray:
    """Fluorescence trace of a cw (ODMR) magnetometer on the slope.

    The normalized fluorescence responds linearly to the detuning from the
    lock point: F(t) = 1 - contrast * (3 sqrt(3) / 4) * df(t) / linewidth,
    where df = gamma * B(t) + (1 / 2 pi) dphi/dt combines the magnetic
    signal and the instantaneous frequency deviation of the drive.

    ``b_series`` may be a scalar or an array of length round(duration/dt).
    """
    _check_range("(0, inf)", dt=dt, duration=duration)
    n = int(round(duration / dt))
    if n < 2:
        raise ValueError("duration must cover at least two samples")
    b_arr = np.broadcast_to(np.asarray(b_series, dtype=float), (n,))
    # One extra phase sample so the finite difference covers n intervals.
    track = synthesize_phase_track(spectrum, (n + 1) * dt, dt, seed)
    delta_f = np.diff(track) / (2.0 * math.pi * dt)
    detuning = GAMMA_NV * b_arr + delta_f
    slope = model.contrast * (3.0 * math.sqrt(3.0) / 4.0) / model.linewidth
    return 1.0 - slope * detuning


def cw_detuning_from_trace(model, trace: np.ndarray) -> np.ndarray:
    """Invert :func:`simulate_cw_trace` back to the detuning in Hz."""
    slope = model.contrast * (3.0 * math.sqrt(3.0) / 4.0) / model.linewidth
    return (1.0 - np.asarray(trace, dtype=float)) / slope
