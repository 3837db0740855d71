"""Analytic sensitivity formulas: pulsed eta family and the cw model."""

import math

import numpy as np
import pytest

import mwnoise as mw

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
    assert mw.eta_phi(8.37e-3, seq70) == pytest.approx(8.9e-12, rel=0.01)


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
        assert mw.eta_phi(sigma, seq) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        mw.eta_phi(-1e-3, seq)


# --- white / random-walk eta -----------------------------------------------------

def test_eta_white_example():
    assert mw.eta_white(0.01, 458e3, 1.0) == pytest.approx(171e-12, rel=0.01)
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
        assert direct == pytest.approx(chained, rel=1e-12)


def test_eta_random_walk_example_and_chain():
    assert mw.eta_random_walk(1e-3, 1e6, 1.0) == pytest.approx(8.9e-12, rel=0.01)
    assert mw.eta_random_walk(0.0, 1e6, 1.0) == 0.0
    sigma_rw, r_samp = 2.3e-3, 4e5
    for n_pi in (8, 64):
        seq = mw.PulseSequence(mw.SequenceKind.CPMG, n_pi, 521.85e-9, T_PI, T_DEAD)
        direct = mw.eta_random_walk(sigma_rw, r_samp, seq.duty)
        chained = mw.eta_phi(sigma_rw * math.sqrt(seq.tau_tot * r_samp), seq)
        assert direct == pytest.approx(chained, rel=1e-12)


def test_eta_random_walk_independent_of_sequence():
    # At fixed (sigma_rw, r_samp, duty) the result carries no N or f_xy8.
    a = mw.eta_random_walk(1e-3, 1e6, 0.8)
    b = mw.eta_random_walk(1e-3, 1e6, 0.8)
    assert a == b


def test_duty_cycle_law():
    for duty in (0.25, 0.5, 0.9):
        assert mw.eta_white(0.01, 458e3, duty) == pytest.approx(
            mw.eta_white(0.01, 458e3, 1.0) / math.sqrt(duty), rel=1e-12
        )
        assert mw.eta_random_walk(1e-3, 1e6, duty) == pytest.approx(
            mw.eta_random_walk(1e-3, 1e6, 1.0) / math.sqrt(duty), rel=1e-12
        )
    # For the sequence-based etas the duty enters through t_dead.
    tau_tot = 69.9e-6
    busy = mw.make_xy8_fixed_duration(8, tau_tot, T_PI, 0.0)
    idle = mw.make_xy8_fixed_duration(8, tau_tot, T_PI, T_DEAD)
    model = mw.ReadoutModel(0.013, 1.23e9, 1.5e-6, 4e-6)
    factor = 1.0 / math.sqrt(idle.duty)
    assert mw.eta_phi(0.1, idle) == pytest.approx(
        mw.eta_phi(0.1, busy) * factor, rel=1e-12
    )
    assert mw.eta_shot_noise(model, idle) == pytest.approx(
        mw.eta_shot_noise(model, busy) * factor, rel=1e-12
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
    assert eta == pytest.approx(4.3e-12, rel=0.03)
    assert eta * mw.FFT_FLOOR_FACTOR == pytest.approx(5.4e-12, rel=0.03)
    # Frozen regression value.
    assert eta == pytest.approx(4.276259176719905e-12, rel=1e-12)


def test_eta_shot_formula_and_scalings():
    model = mw.ReadoutModel(0.013, 1.23e9, 1.5e-6, 4e-6)
    seq = _table_seq()
    xi = math.sqrt(2.0 * (1.0 + model.t_read / model.t_norm))
    want = (
        xi
        / math.sqrt(seq.duty)
        / (4.0 * GAMMA * model.contrast * math.sqrt(seq.tau_tot * model.n_photons))
    )
    assert mw.eta_shot_noise(model, seq) == pytest.approx(want, rel=1e-12)
    double_c = mw.ReadoutModel(0.026, 1.23e9, 1.5e-6, 4e-6)
    assert mw.eta_shot_noise(double_c, seq) == pytest.approx(
        mw.eta_shot_noise(model, seq) / 2.0, rel=1e-12
    )
    quad_ph = mw.ReadoutModel(0.013, 4 * 1.23e9, 1.5e-6, 4e-6)
    assert mw.eta_shot_noise(quad_ph, seq) == pytest.approx(
        mw.eta_shot_noise(model, seq) / 2.0, rel=1e-12
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
    assert eta == pytest.approx(1.8e-13, rel=0.01)


def test_eta_johnson_pulsed_scalings():
    base = mw.eta_johnson_pulsed(-177.0, 40, 50e-6, 1e7)
    assert mw.eta_johnson_pulsed(-177.0, 40, 50e-6, 1e8) == pytest.approx(
        base * math.sqrt(10.0), rel=1e-12
    )
    # (N+1) quadrupled: 4 * 41 - 1 = 163 pulses.
    assert mw.eta_johnson_pulsed(-177.0, 163, 50e-6, 1e7) == pytest.approx(
        base * 2.0, rel=1e-12
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
            sigma_f * math.sqrt(tau) / GAMMA, rel=1e-12
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
    assert eta == pytest.approx(closed, rel=0.05)
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
