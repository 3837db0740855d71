"""Time-domain spin simulation: phase recursion, Monte Carlo statistics,
double-quantum readout, gradiometer channels and cw traces."""

import concurrent.futures
import math
import pickle
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import mwnoise as mw
from mwnoise import spin_simulator
from mwnoise.noise_models import (
    _fft_length,
    _psd_track_layout,
    _track_chunks,
    sample_pulse_phases_batch,
)
from mwnoise.spin_simulator import (
    _alternating_weights,
    _monte_carlo_phi_tot,
    _phi_tot_draws,
    _phi_tot_sigma,
    monte_carlo_sigma_phi,
    psd_sigma_phi_grid,
)

T_PI = 48e-9
T_DEAD = 15e-6


def _table_seq():
    return mw.PulseSequence(mw.SequenceKind.XY8, 64, 521.85e-9, T_PI, T_DEAD)


def _phi_tot(seq, process, n, seed):
    """phi_tot of ``n`` consecutive sequences of a readout stream."""
    return _phi_tot_draws(seq, process, seed)(np.empty(n))


# --- phase recursion ------------------------------------------------------------

def test_propagate_phase_hand_cases():
    assert mw.propagate_phase([0.0, 0.0, 0.0], 0.0) == 0.0
    a, b, c = 0.31, -0.17, 0.05
    assert mw.propagate_phase([a], 0.0) == pytest.approx(2 * a, rel=1e-15)
    assert mw.propagate_phase([a, b], c) == pytest.approx(
        -c - 2 * a + 2 * b, rel=1e-12
    )


def test_propagate_phase_matches_closed_form():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        alphas = rng.normal(0.0, 0.5, n)
        alpha_f = float(rng.normal(0.0, 0.5))
        closed = -alpha_f + np.sum(
            [(-1.0) ** (n - i) * 2.0 * alphas[i - 1] for i in range(1, n + 1)]
        )
        assert mw.propagate_phase(alphas, alpha_f) == pytest.approx(
            closed, rel=1e-12, abs=1e-12
        )


# --- Monte Carlo ---------------------------------------------------------------

def test_monte_carlo_white_example():
    seq = mw.PulseSequence(mw.SequenceKind.CPMG, 64, 521.85e-9, T_PI, T_DEAD)
    res = mw.monte_carlo_sigma_phi(seq, mw.WhiteNoise(0.01), 100_000, seed=11)
    want = 2.0 * 0.01 * math.sqrt(64.25)
    assert want == pytest.approx(0.1603, rel=1e-3)
    assert res.sigma_phi_empirical == pytest.approx(want, rel=0.02)
    assert res.standard_error == pytest.approx(
        res.sigma_phi_empirical / math.sqrt(2.0 * (100_000 - 1)), rel=1e-12
    )
    assert res.n_realizations == 100_000
    assert res.seed == 11


def test_monte_carlo_random_walk_example():
    seq = mw.make_xy8_fixed_duration(8, 70e-6, 0.0, T_DEAD)
    res = mw.monte_carlo_sigma_phi(
        seq, mw.RandomWalkNoise(1e-3, 1e6), 100_000, seed=13
    )
    want = 1e-3 * math.sqrt(70e-6 * 1e6)  # 8.37 mrad
    assert res.sigma_phi_empirical == pytest.approx(want, rel=0.02)


def test_monte_carlo_zero_noise_and_validation():
    seq = _table_seq()
    res = mw.monte_carlo_sigma_phi(seq, mw.WhiteNoise(0.0), 200, seed=0)
    assert res.sigma_phi_empirical == 0.0
    with pytest.raises(ValueError):
        mw.monte_carlo_sigma_phi(seq, mw.WhiteNoise(0.01), 99, seed=0)


def test_monte_carlo_seed_defaults_to_process_seed():
    # Without a seed, the Monte Carlo draws with the process's seed, as
    # sample_pulse_phases_batch does, and records that seed.
    seq = _table_seq()
    for proc in (mw.WhiteNoise(0.01, seed=7), mw.RandomWalkNoise(1e-3, 1e6, seed=7)):
        res = mw.monte_carlo_sigma_phi(seq, proc, 200)
        assert res.seed == 7
        assert res == mw.monte_carlo_sigma_phi(seq, proc, 200, seed=7)
        assert res != mw.monte_carlo_sigma_phi(seq, proc, 200, seed=0)


def test_white_noise_pulse_count_scaling():
    sigmas = {}
    for n_pi in (8, 64):
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 521.85e-9, T_PI, T_DEAD)
        sigmas[n_pi] = mw.monte_carlo_sigma_phi(
            seq, mw.WhiteNoise(0.01), 100_000, seed=17
        ).sigma_phi_empirical
    want = math.sqrt((64 + 0.25) / (8 + 0.25))
    assert sigmas[64] / sigmas[8] == pytest.approx(want, rel=0.03)


def test_random_walk_independent_of_pulse_count():
    # Fixed total interrogation time: splitting it over more pulses does not
    # change the end-to-end random-walk phase spread.
    vals = []
    for n_r in (1, 2, 4, 8):
        seq = mw.make_xy8_fixed_duration(n_r, 69.8688e-6, T_PI, T_DEAD)
        vals.append(
            mw.monte_carlo_sigma_phi(
                seq, mw.RandomWalkNoise(1e-3, 1e6), 30_000, seed=19
            ).sigma_phi_empirical
        )
    vals = np.array(vals)
    assert float(np.max(np.abs(vals / vals.mean() - 1.0))) < 0.03


def test_xy8_and_cpmg_identical_statistics():
    xy8 = mw.PulseSequence(mw.SequenceKind.XY8, 64, 521.85e-9, T_PI, T_DEAD)
    cpmg = mw.PulseSequence(mw.SequenceKind.CPMG, 64, 521.85e-9, T_PI, T_DEAD)
    a = _phi_tot(xy8, mw.WhiteNoise(0.01), 5000, seed=23)
    b = _phi_tot(cpmg, mw.WhiteNoise(0.01), 5000, seed=23)
    assert_array_equal(a, b)


def test_phi_tot_batch_white_std():
    seq = _table_seq()
    batch = _phi_tot(seq, mw.WhiteNoise(0.01), 100_000, seed=29)
    want = 2.0 * 0.01 * math.sqrt(seq.n_pi + 0.25)
    assert float(batch.std(ddof=1)) == pytest.approx(want, rel=0.02)


def test_psd_grid_matches_filter_prediction():
    seq = _table_seq()
    spec = mw.preset_spectrum("g1-2.5ghz")
    proc = mw.PsdDrivenNoise(spec, f_cutoff=1e8, seed=31)
    grid_sigma = psd_sigma_phi_grid(proc, seq)
    filter_sigma = mw.sigma_phi_filter(spec, seq, 1e8, finite_pulse_correction=False)
    assert grid_sigma == pytest.approx(filter_sigma, rel=0.01)
    batch = _phi_tot(seq, proc, 100_000, seed=31)
    assert float(batch.std(ddof=1)) == pytest.approx(grid_sigma, rel=0.02)


def test_exact_sigma_matches_time_domain_sampler():
    # The per-pulse sampler is the oracle for the closed-form variances.
    seq = _table_seq()
    times = np.concatenate((seq.pulse_times(), [seq.tau_tot]))
    weights = np.concatenate((_alternating_weights(seq.n_pi), [-1.0]))
    n = 50_000
    for proc in (
        mw.WhiteNoise(0.01),
        mw.RandomWalkNoise(1e-3, 1e6),
        mw.RandomWalkNoise(1e-3, 1e6, discrete_jumps=True),
    ):
        phi = sample_pulse_phases_batch(proc, times, n, seed=37) @ weights
        empirical = float(phi.std(ddof=1))
        exact = _phi_tot_sigma(seq, proc)
        std_err = exact / math.sqrt(2.0 * (n - 1))
        assert abs(empirical - exact) < 5.0 * std_err, type(proc).__name__


def test_psd_grid_matches_outer_product_reference():
    spec = mw.preset_spectrum("g1-2.5ghz")
    proc = mw.PsdDrivenNoise(spec, f_cutoff=1e8)
    for n_pi in (8, 64):
        seq = mw.PulseSequence(mw.SequenceKind.XY8, n_pi, 521.85e-9, T_PI, T_DEAD)
        times = np.concatenate(([0.0], seq.pulse_times(), [seq.tau_tot]))
        duration, dt, idx = _psd_track_layout(times, proc.f_cutoff)
        n = int(round(duration / dt))
        freqs = np.fft.rfftfreq(n, dt)[1:]
        weights = np.concatenate(([0.0], _alternating_weights(n_pi), [-1.0]))
        weights[0] = -np.sum(weights)
        h = np.exp(2j * np.pi * np.outer(freqs, idx * dt)) @ weights
        contrib = mw.ssb_to_psd(spec, freqs) * np.abs(h) ** 2
        if n % 2 == 0:
            contrib[-1] *= 0.5
        want = math.sqrt(np.sum(contrib) / (n * dt))
        assert psd_sigma_phi_grid(proc, seq) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("preset", ["g1-2.5ghz", "g2-2.1ghz"])
@pytest.mark.parametrize("n_r", [1, 2, 8, 64])
def test_psd_grid_track_span_within_filter_accuracy(preset, n_r):
    # The synthesis is periodic in the track span, so the grid misses the
    # covariance aliased from lags of span - t_max and beyond.  A span of
    # twice the pulse window keeps the grid std within 0.1 % of the filter
    # value (worst: XY8-1 on g1-2.5ghz, -0.097 %); one pulse window is off
    # by 1.39 % there.
    spec = mw.preset_spectrum(preset)
    proc = mw.PsdDrivenNoise(spec, f_cutoff=1e8)
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    want = mw.sigma_phi_filter(spec, seq, f_cutoff=1e8, finite_pulse_correction=False)
    assert abs(psd_sigma_phi_grid(proc, seq) / want - 1.0) <= 2e-3


def test_psd_track_length_is_the_next_even_11_smooth_length():
    # The track length is rounded up to an even length with no prime factor
    # above 11, so no transform of the track needs Bluestein's algorithm;
    # unrounded, XY8-16's comb has the prime factor 1 597.
    def smooth(m):
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        return m == 1

    lengths = [m for m in range(2, 6000, 2) if smooth(m)]
    for n in range(2, 5000):
        assert _fft_length(n) == next(m for m in lengths if m >= n), n
    proc = mw.PsdDrivenNoise(mw.preset_spectrum("g1-2.5ghz"), f_cutoff=1e8)
    for n_r, want in ((1, 3500), (8, 28000), (16, 55902)):
        seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
        times = np.concatenate(([0.0], seq.pulse_times(), [seq.tau_tot]))
        duration, dt, _ = _psd_track_layout(times, proc.f_cutoff)
        assert int(round(duration / dt)) == want


def test_psd_monte_carlo_matches_time_domain_tracks():
    # The frequency-domain Monte Carlo reads the same draws as the tracks of
    # the time-domain sampler, chunk by chunk, so each realization agrees.
    proc = mw.PsdDrivenNoise(mw.preset_spectrum("g1-2.5ghz"), f_cutoff=1e8)
    for n_r in (1, 8):
        seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
        times = np.concatenate(([0.0], seq.pulse_times(), [seq.tau_tot]))
        duration, dt, _ = _psd_track_layout(times, proc.f_cutoff)
        n = int(round(duration / dt))
        first_stop = next(_track_chunks(n, 10**9))[1]
        count = first_stop + 5
        assert len(list(_track_chunks(n, count))) == 2
        samples = sample_pulse_phases_batch(proc, times, count, seed=43)
        weights = np.concatenate((_alternating_weights(seq.n_pi), [-1.0]))
        want = (samples[:, 1:] - samples[:, :1]) @ weights
        got = _monte_carlo_phi_tot(seq, proc, count, seed=43)
        sigma = psd_sigma_phi_grid(proc, seq)
        assert np.max(np.abs(got - want)) <= 1e-12 * sigma, n_r


def _assert_bits_independent_of_lanes(force_lanes, seq, proc, samples, n_chunks):
    # Each chunk keeps its key, its rows and its sum order on any
    # thread, so every realization is bit-identical on one lane and on up to
    # four, with more chunks than lanes too.  A short switch interval interleaves
    # the lanes' Python code as often as it can.  The draw loop is called
    # directly: an XY8-8 PSD chunk holds 18 realizations, fewer than the
    # public Monte Carlo's minimum of 100.
    chunk = next(_track_chunks(samples, 10**9))[1]
    count = (n_chunks - 1) * chunk + min(37, chunk)
    assert len(list(_track_chunks(samples, count))) == n_chunks
    draws = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cap in (1, 4):
            sizes = force_lanes(cap)
            draws.append(_monte_carlo_phi_tot(seq, proc, count, 61))
            lanes = min(n_chunks, cap)
            assert sizes == ([lanes] if lanes > 1 else [])
    finally:
        sys.setswitchinterval(switch)
    assert_array_equal(draws[0], draws[1])


@pytest.mark.parametrize("n_r", [1, 8])
@pytest.mark.parametrize("n_chunks", [1, 2, 5])
def test_psd_monte_carlo_bits_independent_of_lanes(force_lanes, n_r, n_chunks):
    proc = mw.PsdDrivenNoise(mw.preset_spectrum("g1-2.5ghz"), f_cutoff=1e8)
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    times = np.concatenate(([0.0], seq.pulse_times(), [seq.tau_tot]))
    duration, dt, _ = _psd_track_layout(times, proc.f_cutoff)
    samples = int(round(duration / dt))
    _assert_bits_independent_of_lanes(force_lanes, seq, proc, samples, n_chunks)


@pytest.mark.parametrize(
    "n_r, proc",
    [(8, mw.WhiteNoise(0.01)), (64, mw.RandomWalkNoise(1e-3, 1e6))],
    ids=["white-xy8-8", "random-walk-xy8-64"],
)
@pytest.mark.parametrize("n_chunks", [1, 2, 5])
def test_pulse_monte_carlo_bits_independent_of_lanes(force_lanes, n_r, proc, n_chunks):
    # White and random-walk realizations draw one normal per pulse and one
    # for the final pulse, in chunks keyed like the PSD tracks'.
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    _assert_bits_independent_of_lanes(force_lanes, seq, proc, seq.n_pi + 1, n_chunks)


def test_psd_monte_carlo_keeps_lanes_at_xy8_8(force_lanes):
    # 250 realizations of XY8-8 make 14 chunks of at most 18 realizations
    # of its 28 000-sample tracks, so the run draws on all four threads.
    proc = mw.PsdDrivenNoise(mw.preset_spectrum("g1-2.5ghz"), f_cutoff=1e8)
    seq = mw.make_xy8(8, 458e3, T_PI, T_DEAD)
    times = np.concatenate(([0.0], seq.pulse_times(), [seq.tau_tot]))
    duration, dt, _ = _psd_track_layout(times, proc.f_cutoff)
    n_chunks = len(list(_track_chunks(int(round(duration / dt)), 250)))
    assert n_chunks == 14
    sizes = force_lanes(4)
    monte_carlo_sigma_phi(seq, proc, 250, seed=71)
    assert sizes == [min(n_chunks, 4)]


@pytest.mark.parametrize(
    "n_r, proc, count, n_chunks",
    [
        (8, mw.WhiteNoise(0.01), 100_000, 13),
        (64, mw.RandomWalkNoise(1e-3, 1e6), 20_000, 20),
    ],
    ids=["white-xy8-8", "random-walk-xy8-64"],
)
def test_pulse_monte_carlo_keeps_lanes(force_lanes, n_r, proc, count, n_chunks):
    # Chunks bound a batch at 2^19 samples: 8 065 realizations of XY8-8's
    # 65 pulse times, 1 022 of XY8-64's 513, so both runs draw on all four
    # threads.
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    assert len(list(_track_chunks(seq.n_pi + 1, count))) == n_chunks
    sizes = force_lanes(4)
    monte_carlo_sigma_phi(seq, proc, count, seed=73)
    assert sizes == [min(n_chunks, 4)]


def _inner_lanes(_):
    with spin_simulator._lanes(3) as (_, lanes):
        return lanes


def test_lanes_open_inline_only_on_a_lane(force_lanes):
    # A one-lane context calls on this thread and opens no pool, so a call
    # it runs, such as a single point's Monte Carlo, keeps its own lanes.
    sizes = force_lanes(4)
    with spin_simulator._lanes(1) as (run, lanes):
        assert lanes == 1
        assert run(_inner_lanes, [0]) == [3]
    assert sizes == [3]


def test_lanes_interrupt_cancels_queued_tasks_and_leaves_at_once(force_lanes, monkeypatch):
    # Six tasks on two lanes, submitted in order: tasks 0 and 1 hold the
    # lanes until released, and once all six are queued task 0 interrupts
    # the calling thread, once that thread waits for a result: a signal that
    # lands before it blocks is only seen when it wakes.  The interrupt
    # cancels tasks 2 to 5 and leaves the context without waiting for the
    # running two, which finish on their own.
    force_lanes(2)
    queued, release = threading.Event(), threading.Event()
    started, finished, pools, futures = [], [], [], []

    class KeptPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(self)
            super().__init__(max_workers)

        def submit(self, *args):
            futures.append(super().submit(*args))
            if len(futures) == 6:
                queued.set()
            return futures[-1]

    def task(i):
        started.append(i)
        if i == 0:
            assert queued.wait(timeout=30)
            main = threading.main_thread().ident
            deadline = time.monotonic() + 30
            while sys._current_frames()[main].f_code.co_name != "wait":
                assert time.monotonic() < deadline
                time.sleep(1e-3)
            time.sleep(0.05)
            signal.pthread_kill(main, signal.SIGINT)
        assert release.wait(timeout=30)
        finished.append(i)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", KeptPool)
    with pytest.raises(KeyboardInterrupt):
        with spin_simulator._lanes(6) as (run, lanes):
            assert lanes == 2
            run(task, range(6))
    assert finished == []
    release.set()
    pools[0].shutdown()
    assert [future.cancelled() for future in futures[2:]] == [True] * 4
    assert 0 in started and set(started) <= {0, 1}
    assert sorted(finished) == sorted(started)

_DRAWS_SCRIPT = """
import pickle, sys
import numpy as np
from mwnoise.spin_simulator import _monte_carlo_phi_tot
with open(sys.argv[1], "rb") as f:
    cases = pickle.load(f)
np.savez(sys.argv[2], *[_monte_carlo_phi_tot(*case) for case in cases])
"""


def test_monte_carlo_bits_independent_of_blas_threads(tmp_path, child_env):
    # OpenBLAS splits a long dot product into per-thread partial sums, so a
    # reduction through BLAS changes its last bits with OPENBLAS_NUM_THREADS.
    # No Monte Carlo reduction calls BLAS: the draws of a PSD XY8-8 run over
    # two chunks (14 001-bin rows), of 100 000 white XY8-8 realizations in 13
    # chunks and of a random walk at XY8-64 are bit-identical in processes
    # with one and with two BLAS threads.
    psd = mw.PsdDrivenNoise(mw.preset_spectrum("g1-2.5ghz"), f_cutoff=1e8)
    xy8_8 = mw.make_xy8(8, 458e3, T_PI, T_DEAD)
    times = np.concatenate(([0.0], xy8_8.pulse_times(), [xy8_8.tau_tot]))
    duration, dt, _ = _psd_track_layout(times, psd.f_cutoff)
    count = next(_track_chunks(int(round(duration / dt)), 10**9))[1] + 5
    cases = [
        (xy8_8, psd, count, 67),
        (xy8_8, mw.WhiteNoise(0.01), 100_000, 67),
        (_table_seq(), mw.RandomWalkNoise(1e-3, 1e6), 1000, 67),
    ]
    with open(tmp_path / "cases.pkl", "wb") as f:
        pickle.dump(cases, f)
    draws = []
    for threads in ("1", "2"):
        env = dict(child_env, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / f"draws-{threads}.npz"
        subprocess.run(
            [sys.executable, "-c", _DRAWS_SCRIPT, str(tmp_path / "cases.pkl"), str(out)],
            env=env, check=True,
        )
        with np.load(out) as saved:
            draws.append([saved[name] for name in saved.files])
    for one, two in zip(*draws):
        assert_array_equal(one, two)


def test_pulse_monte_carlo_matches_time_domain_sampler():
    # The Monte Carlo draws the sampler's normals with the same chunk keys and
    # reduces them by the scaled weights (white) or tail weights (random
    # walk), so each realization, in the first chunk and in the second,
    # agrees with the sampler's scaled samples or summed walk times the
    # weights.
    seq = _table_seq()
    times = np.concatenate((seq.pulse_times(), [seq.tau_tot]))
    weights = np.concatenate((_alternating_weights(seq.n_pi), [-1.0]))
    count = next(_track_chunks(times.size, 10**9))[1] + 37
    assert len(list(_track_chunks(times.size, count))) == 2
    for proc in (
        mw.WhiteNoise(0.01),
        mw.RandomWalkNoise(1e-3, 1e6),
        mw.RandomWalkNoise(1e-3, 1e6, discrete_jumps=True),
    ):
        want = sample_pulse_phases_batch(proc, times, count, seed=53) @ weights
        got = _monte_carlo_phi_tot(seq, proc, count, seed=53)
        sigma = _phi_tot_sigma(seq, proc)
        assert np.max(np.abs(got - want)) <= 1e-12 * sigma, type(proc).__name__


def _peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_stream_draws_bounded_memory_at_xy8_64():
    # A per-pulse matrix would need 10^6 x 513 x 8 bytes = 4.1 GB here, and
    # an outer product over the PSD comb 3.7 GB.
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 512, 521.85e-9, T_PI, T_DEAD)
    psd = mw.PsdDrivenNoise(mw.preset_spectrum("g1-2.5ghz"), f_cutoff=1e8)
    assert _peak_alloc_mb(lambda: psd_sigma_phi_grid(psd, seq)) < 64.0
    for proc in (mw.WhiteNoise(0.01), psd):
        assert _peak_alloc_mb(lambda: _phi_tot(seq, proc, 1_000_000, seed=41)) < 64.0


def test_psd_monte_carlo_bounded_memory_at_xy8_64():
    # Synthesized tracks would take 18 x 223 580 samples per chunk here, and
    # their complex coefficients and normal draws several times that.
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 512, 521.85e-9, T_PI, T_DEAD)
    psd = mw.PsdDrivenNoise(mw.preset_spectrum("g1-2.5ghz"), f_cutoff=1e8)
    assert _peak_alloc_mb(lambda: monte_carlo_sigma_phi(seq, psd, 100, seed=47)) < 64.0


def test_psd_monte_carlo_bounded_memory_on_four_lanes(force_lanes):
    # The same run drawn on four threads, each with its own draw buffer of
    # one 111 791-bin row (0.9 MB), stays under the same bound (about 7 MB
    # peak, as on one thread).
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 512, 521.85e-9, T_PI, T_DEAD)
    psd = mw.PsdDrivenNoise(mw.preset_spectrum("g1-2.5ghz"), f_cutoff=1e8)
    sizes = force_lanes(4)
    assert _peak_alloc_mb(lambda: monte_carlo_sigma_phi(seq, psd, 100, seed=47)) < 64.0
    assert sizes == [4]


def test_pulse_monte_carlo_bounded_memory_at_xy8_64():
    # The realization-by-pulse matrix would take 10^5 x 513 x 8 bytes = 410 MB.
    seq = mw.PulseSequence(mw.SequenceKind.XY8, 512, 521.85e-9, T_PI, T_DEAD)
    for proc in (mw.WhiteNoise(0.01), mw.RandomWalkNoise(1e-3, 1e6)):
        mc = lambda: monte_carlo_sigma_phi(seq, proc, 100_000, seed=59)  # noqa: E731
        assert _peak_alloc_mb(mc) < 16.0, type(proc).__name__


# --- double-quantum readout -------------------------------------------------------

def test_dq_probability_trivial_points():
    assert mw.dq_ramsey_probability(0.3, 0.3, 0.0, 1e-5) == pytest.approx(1.0)
    assert mw.dq_ramsey_probability(0.0, math.pi, 0.0, 1e-5) == pytest.approx(
        0.0, abs=1e-15
    )
    with pytest.raises(ValueError):
        mw.dq_ramsey_probability(0.0, 0.0, 0.0, -1e-6)


def test_dq_probability_field_phase():
    b_z, tau = 3.7e-7, 2.1e-5
    want = math.cos(2.0 * math.pi * mw.GAMMA_NV * b_z * tau) ** 2
    assert mw.dq_ramsey_probability(0.0, 0.0, b_z, tau) == pytest.approx(
        want, rel=1e-12
    )


def test_dq_tones_invariant_under_carrier_shift():
    rng = np.random.default_rng(13)
    for _ in range(200):
        al, ah, alp, ahp = rng.normal(0.0, 0.3, 4)
        b_z = float(rng.normal(0.0, 1e-6))
        tau = float(rng.uniform(1e-7, 1e-4))
        base = mw.dq_ramsey_probability_tones(al, ah, alp, ahp, b_z, tau)
        for shift in (0.7, -2.4, 13.9):
            moved = mw.dq_ramsey_probability_tones(
                al + shift, ah + shift, alp + shift, ahp + shift, b_z, tau
            )
            assert moved == pytest.approx(base, abs=1e-12)


def test_dq_suppression_limits():
    seq = _table_seq()
    lo = mw.preset_spectrum("g1-2.5ghz").scaled_to_carrier(0.61e9)
    quiet = mw.flat_spectrum(-200.0, carrier_hz=2.87e9)
    # Noiseless carrier: the mixed tone is LO-limited.
    eta_dq, eta_single = mw.dq_noise_suppression(lo, quiet, seq)
    assert eta_single == pytest.approx(eta_dq, rel=1e-3)
    # Noiseless LO: the two-tone scheme loses the noise entirely.
    loud = mw.preset_spectrum("g1-2.5ghz").scaled_to_carrier(2.87e9)
    eta_dq, eta_single = mw.dq_noise_suppression(
        mw.flat_spectrum(-200.0, carrier_hz=0.61e9), loud, seq
    )
    assert eta_dq < 1e-3 * eta_single


def test_dq_suppression_linear_scaling_ratio():
    # When L scales linearly with carrier frequency the suppression follows
    # from quadrature arithmetic alone.
    seq = _table_seq()
    f_lo, f_car = 0.61e9, 2.87e9
    lo = mw.preset_spectrum("g1-2.5ghz").scaled_to_carrier(f_lo)
    carrier = lo.scaled_to_carrier(f_car)
    eta_dq, eta_single = mw.dq_noise_suppression(lo, carrier, seq)
    want = math.sqrt(1.0 + (f_car / f_lo) ** 2)
    assert eta_single / eta_dq == pytest.approx(want, rel=1e-9)


# --- gradiometer ----------------------------------------------------------------

def test_gradiometer_common_mode_cancels_exactly():
    seq = _table_seq()
    proc = mw.RandomWalkNoise(2e-3, 1e6, seed=5)
    ch1, ch2, diff = mw.simulate_gradiometer(
        seq, proc, 0.0, 0.0, shot_sigma=0.0, n_sequences=512, seed=5
    )
    assert np.any(ch1.samples != 0.0)
    assert_array_equal(ch1.samples, ch2.samples)
    assert_array_equal(diff.samples, np.zeros(512))
    assert diff.f_samp == seq.f_samp


def test_gradiometer_gradient_doubles_in_diff():
    seq = _table_seq()
    ch1, ch2, diff = mw.simulate_gradiometer(
        seq,
        mw.WhiteNoise(0.0),
        uniform_signal=0.0,
        gradient_signal=80e-12,
        shot_sigma=0.0,
        n_sequences=1024,
        seed=7,
        f_gradient=3e3,
    )
    # Channels see equal and opposite gradient fields.
    assert_allclose(ch2.samples, -ch1.samples, rtol=1e-12)
    assert_allclose(diff.samples, 2.0 * ch1.samples, rtol=1e-12)


def test_gradiometer_uniform_cancels_in_diff():
    seq = _table_seq()
    ch1, ch2, diff = mw.simulate_gradiometer(
        seq,
        mw.WhiteNoise(0.0),
        uniform_signal=120e-12,
        gradient_signal=0.0,
        shot_sigma=0.0,
        n_sequences=1024,
        seed=7,
        f_uniform=3e3,
    )
    assert np.max(np.abs(ch1.samples)) > 0.0
    assert_array_equal(ch1.samples, ch2.samples)
    assert_array_equal(diff.samples, np.zeros(1024))


def test_gradiometer_determinism_and_validation():
    seq = _table_seq()
    proc = mw.WhiteNoise(1e-3)
    a = mw.simulate_gradiometer(seq, proc, 1e-12, 1e-12, 1e-3, 64, seed=9)
    b = mw.simulate_gradiometer(seq, proc, 1e-12, 1e-12, 1e-3, 64, seed=9)
    for left, right in zip(a, b):
        assert_array_equal(left.samples, right.samples)
    c = mw.simulate_gradiometer(seq, proc, 1e-12, 1e-12, 1e-3, 64, seed=10)
    assert not np.array_equal(a[0].samples, c[0].samples)
    with pytest.raises(ValueError):
        mw.simulate_gradiometer(seq, proc, 0.0, 0.0, 1e-3, 1, seed=0)
    with pytest.raises(ValueError):
        mw.simulate_gradiometer(seq, proc, 0.0, 0.0, -1e-3, 64, seed=0)


# --- cw traces ------------------------------------------------------------------

def test_cw_trace_quiet_is_constant():
    model = mw.CwModel(contrast=0.02, linewidth=1e6)
    trace = mw.simulate_cw_trace(model, mw.flat_spectrum(-200.0), 0.0, 1e-6, 1e-3)
    assert trace.shape == (1000,)
    assert_allclose(trace, 1.0, atol=1e-6)


def test_cw_trace_constant_field_round_trip():
    model = mw.CwModel(contrast=0.02, linewidth=1e6)
    b0 = 2e-6
    trace = mw.simulate_cw_trace(
        model, mw.flat_spectrum(-200.0), b0, 1e-6, 1e-3, seed=1
    )
    detuning = mw.cw_detuning_from_trace(model, trace)
    assert float(detuning.mean()) == pytest.approx(mw.GAMMA_NV * b0, rel=1e-3)


def test_cw_trace_detuning_inversion_is_exact():
    model = mw.CwModel(contrast=0.01, linewidth=2e6)
    spec = mw.preset_spectrum("g1-2.5ghz")
    trace = mw.simulate_cw_trace(model, spec, 1e-6, 1e-6, 5e-4, seed=4)
    slope = model.contrast * (3.0 * math.sqrt(3.0) / 4.0) / model.linewidth
    recovered = 1.0 - slope * mw.cw_detuning_from_trace(model, trace)
    assert_allclose(recovered, trace, rtol=1e-12)


def test_cw_trace_sine_recovery():
    model = mw.CwModel(contrast=0.02, linewidth=1e6)
    f_sig, dt, duration = 200.0, 1e-5, 0.2
    t = np.arange(int(round(duration / dt))) * dt
    amp = 1e-6
    b_series = amp * np.sin(2.0 * math.pi * f_sig * t)
    trace = mw.simulate_cw_trace(
        model, mw.flat_spectrum(-200.0), b_series, dt, duration, seed=2
    )
    field = mw.cw_detuning_from_trace(model, trace) / mw.GAMMA_NV
    # Average over tau = 100 us windows; the signal sits well inside the
    # 1/(2 tau) = 5 kHz bandwidth.
    window = 10
    n_win = field.size // window
    averaged = field[: n_win * window].reshape(n_win, window).mean(axis=1)
    t_win = (np.arange(n_win) + 0.5) * window * dt
    recovered = 2.0 * abs(
        np.mean(averaged * np.exp(-2j * math.pi * f_sig * t_win))
    )
    assert recovered == pytest.approx(amp, rel=0.02)


def test_cw_trace_validation():
    model = mw.CwModel(contrast=0.02, linewidth=1e6)
    with pytest.raises(ValueError):
        mw.simulate_cw_trace(model, mw.flat_spectrum(-200.0), 0.0, 1e-6, 1e-6)
