"""Analytic sensitivity formulas: pulsed eta family and the cw model."""

import math
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import mwnoise as mw
from mwnoise import pulse_sequences
from mwnoise.noise_models import _psd_power_law
from mwnoise.pulse_sequences import _BLOCK, _lattice_filter, band_integral_weighted

GAMMA = mw.GAMMA_NV
T_PI = 48e-9
T_DEAD = 15e-6


def _table_seq():
    return mw.PulseSequence(mw.SequenceKind.XY8, 64, 521.85e-9, T_PI, T_DEAD)


# --- sigma_phi from the filter function ---------------------------------------

def test_sigma_phi_flat_spectrum_band_average():
    # Delta pulses on a flat PSD: variance is S0 times the band-averaged
    # filter area (4N+2) * f_cutoff.
    s0 = 2e-10
    flat = mw.flat_spectrum(-100.0, f_max=1e9)
    for n_pi in (8, 64):
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 521.85e-9)
        got = mw.sigma_phi_filter(flat, seq, 1e8, finite_pulse_correction=False)
        want = math.sqrt(s0 * (4 * n_pi + 2) * 1e8)
        assert got == pytest.approx(want, rel=0.10)


def test_sigma_phi_goldens_g1_at_5ghz():
    # Frozen first-computation values for the 458 kHz / 64-pulse timing.
    spec = mw.preset_spectrum("g1-2.5ghz").scaled_to_carrier(5.0e9)
    seq = _table_seq()
    delta = mw.sigma_phi_filter(spec, seq, 1e8, finite_pulse_correction=False)
    finite = mw.sigma_phi_filter(spec, seq, 1e8, finite_pulse_correction=True)
    assert delta == pytest.approx(0.17296556740564067, rel=1e-9)
    assert finite == pytest.approx(0.16918328355667683, rel=1e-9)
    # The finite-pulse correction only removes response, never adds it.
    assert finite < delta


# sigma_phi_filter at XY8-n, 458 kHz, 48 ns pulses, default 100 MHz cutoff,
# frozen from the complex-phasor evaluation of the filter function.
SIGMA_PHI_GOLDENS = {
    ("g1-2.5ghz", 1, True): 0.03029399608363118,
    ("g1-2.5ghz", 1, False): 0.030956894492693964,
    ("g1-2.5ghz", 8, True): 0.0845915821932596,
    ("g1-2.5ghz", 8, False): 0.08648272421189088,
    ("g1-2.5ghz", 64, True): 0.2388669547761185,
    ("g1-2.5ghz", 64, False): 0.24422185337764385,
    ("g2-2.1ghz", 1, True): 0.003249990983349474,
    ("g2-2.1ghz", 1, False): 0.0044500778047933025,
    ("g2-2.1ghz", 8, True): 0.008747262557927162,
    ("g2-2.1ghz", 8, False): 0.012263494337163859,
    ("g2-2.1ghz", 64, True): 0.024579094485325095,
    ("g2-2.1ghz", 64, False): 0.034570333369735425,
}


@pytest.mark.parametrize("preset, n_r, finite", sorted(SIGMA_PHI_GOLDENS))
def test_sigma_phi_goldens_presets(preset, n_r, finite):
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    got = mw.sigma_phi_filter(mw.preset_spectrum(preset), seq, finite_pulse_correction=finite)
    assert got == pytest.approx(SIGMA_PHI_GOLDENS[preset, n_r, finite], rel=1e-12, abs=0)


@pytest.mark.parametrize("n_r", [4, 8, 16, 64])
@pytest.mark.parametrize(
    "spectrum",
    [mw.preset_spectrum("g1-2.5ghz"), mw.preset_spectrum("g2-2.1ghz"), mw.flat_spectrum(-150.3)],
    ids=["g1-2.5ghz", "g2-2.1ghz", "flat"],
)
def test_sigma_phi_matches_exact_sum_of_lattice_terms(spectrum, n_r):
    # The reference is the quadrature's own trapezoid over its lattice terms
    # 4 (F / 4)(f_k) S(f_k), summed exactly rounded by math.fsum.  A running
    # sum over the 0.22 M (XY8-8) and 1.79 M (XY8-64) terms drifted from it
    # by up to 3.8e-14; block-wise pairwise sums stay within 1e-15.
    seq = mw.make_xy8(n_r, 458e3, 47.3e-9, T_DEAD)
    f_cutoff = 1e8
    step = 1.0 / (32 * seq.tau_tot)
    k_end = math.ceil(f_cutoff / step)
    values = _lattice_filter(mw.FilterFunction(seq), k_end + 1)
    terms = []
    for k in range(0, k_end + 1, _BLOCK):
        f = np.arange(k, min(k + _BLOCK, k_end + 1)) * step
        psd = np.zeros_like(f)
        psd[f > 0] = mw.ssb_to_psd(spectrum, f[f > 0])
        terms.append(4.0 * values(k, k + f.size, np.empty(f.size)) * psd)
    t = np.concatenate(terms)
    # Whole panels up to p, then the part of panel (p, p + 1) below f_cutoff.
    p = k_end - 1
    x0 = p * step
    vx = t[p] + (t[p + 1] - t[p]) * ((f_cutoff - x0) / step)
    var = step * (math.fsum(t[: p + 1]) - 0.5 * (t[0] + t[p])) + 0.5 * (t[p] + vx) * (f_cutoff - x0)
    got = mw.sigma_phi_filter(spectrum, seq, f_cutoff)
    assert got == pytest.approx(math.sqrt(var), rel=1e-15, abs=0)


def test_sigma_phi_bounded_memory_at_xy8_512():
    # The XY8-512 lattice has 14.3 M points; holding it whole took several
    # 114 MB arrays at once.
    seq = mw.make_xy8(512, 458e3, T_PI, T_DEAD)
    tracemalloc.start()
    try:
        sigma = mw.sigma_phi_filter(mw.preset_spectrum("g1-2.5ghz"), seq)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert math.isfinite(sigma)
    assert peak_mb < 32.0


_FAULTS_SCRIPT = """
import resource
import mwnoise as mw
spec = mw.preset_spectrum("g1-2.5ghz")
for n_r in (8, 64):
    seq = mw.make_xy8(n_r, 458e3, 48e-9, 15e-6)
    mw.sigma_phi_filter(spec, seq, 1e8)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    mw.sigma_phi_filter(spec, seq, 1e8)
    print(n_r, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's malloc")
def test_sigma_phi_repeat_call_keeps_its_pages(child_env):
    # The lattice walk's tables and block buffers, 1.5-5 MB a call, stay on
    # the heap once freed, so a second call at XY8-8 or XY8-64 page-faults
    # almost nothing; when glibc handed them back, each took about 1 000
    # minor faults.  A fresh interpreter, since any earlier walk in this one
    # has already raised glibc's thresholds; glibc's own tuning variables
    # are left out of its environment.
    env = {k: v for k, v in child_env.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    done = subprocess.run(
        [sys.executable, "-c", _FAULTS_SCRIPT], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    faults = dict(map(int, line.split()) for line in done.stdout.splitlines())
    assert set(faults) == {8, 64}
    assert all(count < 50 for count in faults.values()), faults


# --- the lattice walk by periods --------------------------------------------------
# sigma_phi_filter sums each whole period of F on which the spectrum is one
# smooth power law from the weight at a few nodes (the period path); with
# the private threshold raised past every lattice, the walk evaluates F at
# every lattice point (the direct walk).  Both stay within a few ulps of the
# exactly rounded lattice sum, so they agree to 2e-15.


def _variance(spectrum, seq, finite, f_lo=0.0, f_hi=1e8):
    """sigma_phi_filter's integral, from f_lo to f_hi."""
    ff = mw.FilterFunction(seq, finite_pulse_correction=finite)
    return band_integral_weighted(ff, _psd_power_law(spectrum), f_lo, f_hi)


def _both_paths(monkeypatch, call):
    """(period path, direct walk) results of ``call()``."""
    fast = call()
    with monkeypatch.context() as patch:
        patch.setattr(pulse_sequences, "_DIRECT_POINTS", 2**62)
        return fast, call()


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "delta"])
@pytest.mark.parametrize("n_r", [4, 8, 16, 64])
@pytest.mark.parametrize("preset", mw.preset_names())
def test_period_path_matches_direct_walk_on_presets(monkeypatch, preset, n_r, finite):
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    fast, direct = _both_paths(
        monkeypatch, lambda: _variance(mw.preset_spectrum(preset), seq, finite)
    )
    assert fast == pytest.approx(direct, rel=2e-15, abs=0)


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "delta"])
@pytest.mark.parametrize("n_r", [2**i for i in range(10)])
def test_period_path_matches_direct_walk_in_pulse_count(monkeypatch, n_r, finite):
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    fast, direct = _both_paths(
        monkeypatch, lambda: _variance(mw.preset_spectrum("g1-2.5ghz"), seq, finite)
    )
    assert fast == pytest.approx(direct, rel=2e-15, abs=0)


# Odd and even pulse counts whose periods of F (64 N lattice points) are
# short, at cutoffs from 100 kHz up, and lower bounds inside the lattice.
BAND_CASES = {
    "cpmg-5": (mw.make_cpmg(5, 20e3, T_PI), [(0.0, 1e7), (0.0, 1e8), (3.3e6, 4.1e7)]),
    "cpmg-13": (mw.make_cpmg(13, 300.0, T_PI), [(0.0, 1e5), (0.0, 1e6), (2.2e5, 1e7)]),
    "xy8-64": (mw.make_xy8(64, 458e3, T_PI), [(0.0, 1e7), (12.345e6, 1e8), (0.0, 98.7e6)]),
}


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "delta"])
@pytest.mark.parametrize("case", sorted(BAND_CASES))
def test_period_path_matches_direct_walk_on_bands(monkeypatch, case, finite):
    seq, bands = BAND_CASES[case]
    for preset in ("g1-2.5ghz", "g2-2.1ghz"):
        for f_lo, f_hi in bands:
            fast, direct = _both_paths(
                monkeypatch,
                lambda: _variance(mw.preset_spectrum(preset), seq, finite, f_lo, f_hi),
            )
            assert fast == pytest.approx(direct, rel=2e-15, abs=0), (preset, f_lo, f_hi)


def test_period_path_skips_the_floor_crossing(monkeypatch, tmp_path):
    # Extrapolated at -30 dB/decade past 1 MHz, this file's L crosses the
    # -200 dBc/Hz floor at 21.5 MHz, where S has a kink inside a period.
    path = tmp_path / "steep.csv"
    path.write_text("# carrier_hz=2.87e9\noffset_hz,l_dbc_per_hz\n1e3,-100\n1e5,-130\n1e6,-160\n")
    spectrum = mw.load_spectrum(path)
    kinks = _psd_power_law(spectrum).kinks
    assert kinks[:3].tolist() == [1e3, 1e5, 1e6]
    assert kinks[3] == pytest.approx(1e6 * 10 ** (40 / 30), rel=1e-12)
    for n_r in (8, 64):
        for finite in (True, False):
            seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
            fast, direct = _both_paths(monkeypatch, lambda: _variance(spectrum, seq, finite))
            assert fast == pytest.approx(direct, rel=2e-15, abs=0), (n_r, finite)


def test_period_path_array_bounds_across_a_period_edge(monkeypatch):
    # Bounds on both sides of the edge of a summed period, on it, on the
    # lattice points next to it, inside the period and several periods on
    # give the same bits in one array call as in one scalar call each, from
    # zero and from a lower bound just below the edge, for F alone and for
    # the spectrum weight; and they agree with the direct walk.
    seq = mw.make_xy8(8, 458e3, T_PI, T_DEAD)
    ff = mw.FilterFunction(seq)
    step = 1.0 / (seq.tau_tot * 32)
    period = 64 * seq.n_pi
    edge = 20 * period  # past the first block, where whole periods are summed
    f_hi = step * np.array(
        [edge - 0.3, edge - 1, edge, edge + 1e-3, edge + 1, edge + period / 2 + 0.7,
         edge + period - 1, edge + period, edge + 3 * period + 17]
    )
    psd = _psd_power_law(mw.preset_spectrum("g1-2.5ghz"))
    for weight in (None, psd):
        for f_lo in (0.0, (edge - 5.5) * step):
            def integrals():
                return pulse_sequences._lattice_integral(ff, weight, f_lo, f_hi)

            fast, direct = _both_paths(monkeypatch, integrals)
            assert fast.tolist() == [
                pulse_sequences._lattice_integral(ff, weight, f_lo, f) for f in f_hi
            ]
            assert fast == pytest.approx(direct, rel=2e-15, abs=0)


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "delta"])
def test_period_path_array_bounds_across_one_block(finite):
    # A lattice past one block sums periods from the third on, a shorter
    # one is read point by point: bounds whose own lattice fits in one
    # block keep the bits of one scalar call each in an array call whose
    # other bounds reach past it, from zero and from inside the head.
    seq = mw.make_xy8(8, 458e3, T_PI, T_DEAD)
    ff = mw.FilterFunction(seq, finite_pulse_correction=finite)
    step = 1.0 / (seq.tau_tot * 32)
    period = 64 * seq.n_pi
    block = pulse_sequences._BLOCK
    f_hi = step * np.array(
        [2 * period - 0.5, 3 * period + 17.3, block - 1.5, block - 1, block - 0.5, block,
         block + 0.5, 5 * block + 3.7]
    )
    psd = _psd_power_law(mw.preset_spectrum("g1-2.5ghz"))
    for weight in (None, psd):
        for f_lo in (0.0, 1.3 * period * step):
            got = pulse_sequences._lattice_integral(ff, weight, f_lo, f_hi)
            assert got.tolist() == [
                pulse_sequences._lattice_integral(ff, weight, f_lo, f) for f in f_hi
            ], (weight, f_lo)


def _count_reads(monkeypatch) -> list:
    """The list to which every later lattice walk appends the length of
    each run of F it reads point by point."""
    points = []
    lattice_filter = pulse_sequences._lattice_filter

    def counted_filter(ff, n_points):
        values = lattice_filter(ff, n_points)

        def counted(k_start, k_stop, out):
            points.append(k_stop - k_start)
            return values(k_start, k_stop, out)

        counted.tables = values.tables
        return counted

    monkeypatch.setattr(pulse_sequences, "_lattice_filter", counted_filter)
    return points


def test_period_path_evaluates_a_tenth_of_the_lattice(monkeypatch):
    # XY8-512 to 100 MHz has 14.3 M lattice points: the period path reads F
    # directly only on the first two periods, the periods that hold a knot
    # of the spectrum and the last, partial one.  A weight that is not the
    # power law is walked point by point.
    points = _count_reads(monkeypatch)
    spectrum = mw.preset_spectrum("g1-2.5ghz")
    seq = mw.make_xy8(512, 458e3, T_PI, T_DEAD)
    lattice = math.ceil(1e8 * 32 * seq.tau_tot) + 1
    assert lattice > 14.3e6
    fast = _variance(spectrum, seq, True)
    assert 0 < sum(points) <= 0.1 * lattice

    seq = mw.make_xy8(8, 458e3, T_PI, T_DEAD)
    points.clear()
    ff = mw.FilterFunction(seq)
    psd = _psd_power_law(spectrum)
    plain = band_integral_weighted(ff, lambda f: psd(f), 0.0, 1e8)
    assert sum(points) == math.ceil(1e8 * 32 * seq.tau_tot) + 1
    assert plain == pytest.approx(_variance(spectrum, seq, True), rel=2e-15, abs=0)
    with monkeypatch.context() as patch:
        patch.setattr(pulse_sequences, "_DIRECT_POINTS", 2**62)
        assert band_integral_weighted(ff, lambda f: psd(f), 0.0, 1e8) == plain
        assert _variance(spectrum, mw.make_xy8(512, 458e3, T_PI, T_DEAD), True) == pytest.approx(
            fast, rel=2e-15, abs=0
        )


@pytest.mark.parametrize("finite", [True, False], ids=["finite", "delta"])
@pytest.mark.parametrize("n_r", [4, 16])
def test_period_path_reads_two_head_periods(monkeypatch, n_r, finite):
    # Once the lattice is longer than one block, the period path starts at
    # the third period of F, however short the periods: it reads F directly
    # on at most the first two periods, the periods that hold a kink of the
    # spectrum and the last, partial one.  At XY8-4 and XY8-16 that is well
    # under the 2^16 points of one block.
    spectrum = mw.preset_spectrum("g1-2.5ghz")
    seq = mw.make_xy8(n_r, 458e3, T_PI, T_DEAD)
    step = 1.0 / (32 * seq.tau_tot)
    period = 64 * seq.n_pi
    k_end = math.ceil(1e8 / step)
    assert k_end >= pulse_sequences._BLOCK
    edges = np.arange(2, k_end // period + 2) * period * step
    kinks = _psd_power_law(spectrum).kinks
    kinked = np.searchsorted(kinks, edges[:-1]) < np.searchsorted(kinks, edges[1:], "right")
    bound = period * (2 + np.count_nonzero(kinked) + 1)
    assert bound < pulse_sequences._BLOCK
    points = _count_reads(monkeypatch)
    _variance(spectrum, seq, finite)
    assert 0 < sum(points) <= bound


def test_sigma_phi_scales_with_level():
    spec = mw.preset_spectrum("g1-2.5ghz")
    seq = _table_seq()
    base = mw.sigma_phi_filter(spec, seq)
    up = mw.sigma_phi_filter(spec.shifted_db(20.0), seq)
    assert up == pytest.approx(10.0 * base, rel=1e-9)


# --- eta_phi -------------------------------------------------------------------

def test_eta_phi_zero_and_example():
    seq70 = mw.make_xy8_fixed_duration(8, 70e-6, 0.0, 0.0)
    assert mw.eta_phi(0.0, seq70) == 0.0
    assert mw.eta_phi(8.37e-3, seq70) == pytest.approx(8.9e-12, rel=0.01, abs=0)


def test_eta_phi_formula():
    rng = np.random.default_rng(10)
    for _ in range(20):
        sigma = float(rng.uniform(1e-4, 0.3))
        seq = mw.PulseSequence(
            mw.SequenceKind.CPMG,
            int(rng.integers(1, 100)),
            float(rng.uniform(1e-7, 1e-6)),
            t_dead=float(rng.uniform(0.0, 3e-5)),
        )
        want = (
            sigma
            / (4.0 * GAMMA * math.sqrt(seq.tau_tot))
            * math.sqrt(1.0 + seq.t_dead / seq.tau_tot)
        )
        assert mw.eta_phi(sigma, seq) == pytest.approx(want, rel=1e-12, abs=0)
    with pytest.raises(ValueError):
        mw.eta_phi(-1e-3, seq)


# --- white / random-walk eta -----------------------------------------------------

def test_eta_white_example():
    assert mw.eta_white(0.01, 458e3, 1.0) == pytest.approx(171e-12, rel=0.01, abs=0)
    assert mw.eta_white(0.0, 458e3, 1.0) == 0.0


def test_eta_white_sqrt_f_growth():
    # Fixed tau_tot, doubled pulse count doubles f_xy8: eta grows by sqrt(2).
    ratio = mw.eta_white(0.01, 916e3, 1.0) / mw.eta_white(0.01, 458e3, 1.0)
    assert ratio == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_eta_white_matches_phase_chain():
    # Same algebra as eta_phi applied to sigma_phi = 2 sigma_wh sqrt(N),
    # with f_xy8 = N/(2 tau_tot).
    sigma_wh = 0.013
    for n_pi, t_dead in ((8, 0.0), (64, T_DEAD), (136, 5e-6)):
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 521.85e-9, T_PI, t_dead)
        direct = mw.eta_white(sigma_wh, seq.f_center, seq.duty)
        chained = mw.eta_phi(2.0 * sigma_wh * math.sqrt(n_pi), seq)
        assert direct == pytest.approx(chained, rel=1e-12, abs=0)


def test_eta_random_walk_example_and_chain():
    assert mw.eta_random_walk(1e-3, 1e6, 1.0) == pytest.approx(8.9e-12, rel=0.01, abs=0)
    assert mw.eta_random_walk(0.0, 1e6, 1.0) == 0.0
    sigma_rw, r_samp = 2.3e-3, 4e5
    for n_pi in (8, 64):
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 521.85e-9, T_PI, T_DEAD)
        direct = mw.eta_random_walk(sigma_rw, r_samp, seq.duty)
        chained = mw.eta_phi(sigma_rw * math.sqrt(seq.tau_tot * r_samp), seq)
        assert direct == pytest.approx(chained, rel=1e-12, abs=0)


def test_eta_random_walk_independent_of_sequence():
    # At fixed (sigma_rw, r_samp, duty) the result carries no N or f_xy8.
    a = mw.eta_random_walk(1e-3, 1e6, 0.8)
    b = mw.eta_random_walk(1e-3, 1e6, 0.8)
    assert a == b


def test_duty_cycle_law():
    for duty in (0.25, 0.5, 0.9):
        assert mw.eta_white(0.01, 458e3, duty) == pytest.approx(
            mw.eta_white(0.01, 458e3, 1.0) / math.sqrt(duty), rel=1e-12, abs=0
        )
        assert mw.eta_random_walk(1e-3, 1e6, duty) == pytest.approx(
            mw.eta_random_walk(1e-3, 1e6, 1.0) / math.sqrt(duty), rel=1e-12, abs=0
        )
    # For the sequence-based etas the duty enters through t_dead.
    tau_tot = 69.9e-6
    busy = mw.make_xy8_fixed_duration(8, tau_tot, T_PI, 0.0)
    idle = mw.make_xy8_fixed_duration(8, tau_tot, T_PI, T_DEAD)
    model = mw.ReadoutModel(0.013, 1.23e9, 1.5e-6, 4e-6)
    factor = 1.0 / math.sqrt(idle.duty)
    assert mw.eta_phi(0.1, idle) == pytest.approx(
        mw.eta_phi(0.1, busy) * factor, rel=1e-12, abs=0
    )
    assert mw.eta_shot_noise(model, idle) == pytest.approx(
        mw.eta_shot_noise(model, busy) * factor, rel=1e-12, abs=0
    )


def test_eta_linearity_and_monotonicity():
    sigmas = np.linspace(0.0, 0.2, 9)
    for eta in (
        lambda s: mw.eta_white(s, 458e3, 0.8),
        lambda s: mw.eta_random_walk(s, 1e6, 0.8),
    ):
        vals = np.array([eta(float(s)) for s in sigmas])
        assert np.all(np.diff(vals) > 0.0)
        nonzero = sigmas > 0
        assert np.allclose(vals[nonzero] / sigmas[nonzero], vals[1] / sigmas[1], rtol=1e-12)


def test_eta_validation():
    with pytest.raises(ValueError):
        mw.eta_white(0.01, 458e3, 0.0)
    with pytest.raises(ValueError):
        mw.eta_white(0.01, 458e3, 1.2)
    with pytest.raises(ValueError):
        mw.eta_white(-0.01, 458e3, 1.0)
    with pytest.raises(ValueError):
        mw.eta_random_walk(1e-3, -1e6, 1.0)


# --- shot noise -----------------------------------------------------------------

def test_eta_shot_golden():
    model = mw.ReadoutModel(0.013, 1.23e9, 1.5e-6, 4e-6)
    seq = mw.PulseSequence(
        mw.SequenceKind.XY8, 64, (69.9e-6 / 64 - T_PI) / 2, T_PI, T_DEAD
    )
    eta = mw.eta_shot_noise(model, seq)
    assert eta == pytest.approx(4.3e-12, rel=0.03, abs=0)
    assert eta * mw.FFT_FLOOR_FACTOR == pytest.approx(5.4e-12, rel=0.03, abs=0)
    # Frozen regression value.
    assert eta == pytest.approx(4.276259176719905e-12, rel=1e-12, abs=0)


def test_eta_shot_formula_and_scalings():
    model = mw.ReadoutModel(0.013, 1.23e9, 1.5e-6, 4e-6)
    seq = _table_seq()
    xi = math.sqrt(2.0 * (1.0 + model.t_read / model.t_norm))
    want = (
        xi
        / math.sqrt(seq.duty)
        / (4.0 * GAMMA * model.contrast * math.sqrt(seq.tau_tot * model.n_photons))
    )
    assert mw.eta_shot_noise(model, seq) == pytest.approx(want, rel=1e-12, abs=0)
    double_c = mw.ReadoutModel(0.026, 1.23e9, 1.5e-6, 4e-6)
    assert mw.eta_shot_noise(double_c, seq) == pytest.approx(
        mw.eta_shot_noise(model, seq) / 2.0, rel=1e-12, abs=0
    )
    quad_ph = mw.ReadoutModel(0.013, 4 * 1.23e9, 1.5e-6, 4e-6)
    assert mw.eta_shot_noise(quad_ph, seq) == pytest.approx(
        mw.eta_shot_noise(model, seq) / 2.0, rel=1e-12, abs=0
    )


def test_readout_model_validation():
    with pytest.raises(ValueError):
        mw.ReadoutModel(0.0, 1e9, 1.5e-6, 4e-6)
    with pytest.raises(ValueError):
        mw.ReadoutModel(1.5, 1e9, 1.5e-6, 4e-6)
    with pytest.raises(ValueError):
        mw.ReadoutModel(0.013, -1e9, 1.5e-6, 4e-6)


# --- oscillator thermal floor ------------------------------------------------------

def test_eta_johnson_pulsed_example():
    eta = mw.eta_johnson_pulsed(-177.0, 40, 50e-6, 1e7)
    assert eta == pytest.approx(1.8e-13, rel=0.01, abs=0)


def test_eta_johnson_pulsed_scalings():
    base = mw.eta_johnson_pulsed(-177.0, 40, 50e-6, 1e7)
    assert mw.eta_johnson_pulsed(-177.0, 40, 50e-6, 1e8) == pytest.approx(
        base * math.sqrt(10.0), rel=1e-12, abs=0
    )
    # (N+1) quadrupled: 4 * 41 - 1 = 163 pulses.
    assert mw.eta_johnson_pulsed(-177.0, 163, 50e-6, 1e7) == pytest.approx(
        base * 2.0, rel=1e-12, abs=0
    )
    with pytest.raises(ValueError):
        mw.eta_johnson_pulsed(-177.0, 0, 50e-6)


# --- cw model -------------------------------------------------------------------

def test_cw_sigma_f_flat_closed_form():
    s0 = 2e-10
    flat = mw.flat_spectrum(-100.0)
    fc = 1e6
    for tau in (2e-4, 1e-3, 1e-2):
        assert fc * tau > 100
        got = mw.cw_sigma_f(flat, tau, f_cutoff=fc)
        want = math.sqrt(2.0 * s0 * fc) / (2.0 * math.pi * tau)
        assert got == pytest.approx(want, rel=0.05)


def test_cw_sigma_f_level_scaling():
    flat = mw.flat_spectrum(-100.0)
    base = mw.cw_sigma_f(flat, 1e-3, f_cutoff=1e6)
    half = mw.cw_sigma_f(mw.flat_spectrum(-106.0206), 1e-3, f_cutoff=1e6)
    assert half == pytest.approx(base / 2.0, rel=1e-4)


def test_cw_eta_f_identity():
    assert mw.cw_eta_f(0.0, 1e-3) == 0.0
    rng = np.random.default_rng(11)
    for _ in range(10):
        sigma_f = float(rng.uniform(1.0, 1e4))
        tau = float(rng.uniform(1e-5, 1e-2))
        assert mw.cw_eta_f(sigma_f, tau) == pytest.approx(
            sigma_f * math.sqrt(tau) / GAMMA, rel=1e-12, abs=0
        )


def test_cw_eta_inverse_sqrt_tau_for_white_noise():
    flat = mw.flat_spectrum(-100.0)
    fc = 1e6

    def eta(tau):
        return mw.cw_eta_f(mw.cw_sigma_f(flat, tau, f_cutoff=fc), tau)

    assert eta(1e-3) / eta(4e-3) == pytest.approx(2.0, rel=0.02)


def test_cw_johnson_floor():
    johnson = mw.preset_spectrum("johnson-300k")
    tau = 5e-6  # measurement bandwidth 1/(2 tau) = 100 kHz
    fc = 1e6
    sigma_f = mw.cw_sigma_f(johnson, tau, f_cutoff=fc)
    eta = mw.cw_eta_f(sigma_f, tau)
    s0 = 2.0 * 10.0 ** (-17.7)
    closed = (1.0 / (math.pi * GAMMA)) * math.sqrt(s0 * fc / (2.0 * tau))
    assert eta == pytest.approx(closed, rel=0.05, abs=0)
    # Within a factor 3 of the 10 fT*s^1/2 scale.
    assert 10e-15 / 3.0 < eta < 10e-15 * 3.0


def test_cw_g1_sensitivity_scale():
    g1 = mw.preset_spectrum("g1-2.5ghz")
    tau = 0.5e-3
    eta = mw.cw_eta_f(mw.cw_sigma_f(g1, tau, f_cutoff=1e6), tau)
    assert 1.4e-12 / 2.0 < eta < 1.4e-12 * 2.0


def test_cw_validation():
    with pytest.raises(ValueError):
        mw.cw_sigma_f(mw.flat_spectrum(-100.0), 0.0)
    with pytest.raises(ValueError):
        mw.cw_eta_f(-1.0, 1e-3)
    with pytest.raises(ValueError):
        mw.cw_eta_f(100.0, 0.0)
    with pytest.raises(ValueError):
        mw.CwModel(0.02, 0.0)
