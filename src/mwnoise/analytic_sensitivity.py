"""Closed-form and quadrature sensitivity limits.

Pulsed magnetometry: the phase standard deviation accumulated from source
phase noise over one sequence is

    sigma_phi^2 = integral_0^fc S_phi(f) * F(f) df,

with F the sequence filter function, and converts to a sensitivity through

    eta = sigma_phi / (4 gamma sqrt(tau_tot)) * sqrt(1 + t_dead / tau_tot).

White and random-walk source noise additionally admit closed forms that
bypass the quadrature.  Photon shot noise and the room-temperature thermal
(Johnson) floor give the corresponding fundamental limits.  For cw (ODMR)
magnetometry the lock-in output follows the instantaneous frequency
deviation of the drive, low-passed by the averaging window.

Quoted noise floors of magnitude-FFT spectra sit a factor sqrt(pi/2) above
these rms sensitivities (FFT_FLOOR_FACTOR below).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    GAMMA_NV,
    DbcPerHz,
    FrequencyHz,
    Radians,
    SensitivityTeslaSqrtS,
    TimeSeconds,
    _check_range,
)
from .noise_models import PhaseNoiseSpectrum, _psd_power_law, ssb_to_psd
from .pulse_sequences import FilterFunction, PulseSequence, band_integral_weighted

# Mean of the magnitude of a complex-normal FFT bin relative to its rms:
# multiply an rms sensitivity by this to predict a magnitude-spectrum floor.
FFT_FLOOR_FACTOR = math.sqrt(math.pi / 2.0)

# Default integration cutoffs: the pulsed filter function keeps averaging
# broadband noise far above the passband, the cw lock-in does not.
DEFAULT_F_CUTOFF_PULSED: FrequencyHz = 1e8
DEFAULT_F_CUTOFF_CW: FrequencyHz = 1e6

# cw_sigma_f's uniform grid: points per 1/tau oscillation, and a cap on the
# grid length.
_CW_OVERSAMPLE = 16
_CW_MAX_POINTS = 20_000_000


@dataclass(frozen=True)
class ReadoutModel:
    """Photon-counting readout parameters of a pulsed measurement."""

    contrast: float
    n_photons: float
    t_read: TimeSeconds
    t_norm: TimeSeconds

    def __post_init__(self) -> None:
        _check_range("(0, 1]", contrast=self.contrast)
        _check_range("(0, inf)", n_photons=self.n_photons, t_read=self.t_read, t_norm=self.t_norm)

    @property
    def overhead_factor(self) -> float:
        """xi = sqrt(2 (1 + t_read / t_norm)): signal-plus-reference shot noise."""
        return math.sqrt(2.0 * (1.0 + self.t_read / self.t_norm))

    @property
    def shot_sigma(self) -> Radians:
        """Per-sequence shot-noise phase std xi / (C sqrt(n_photons)) (Barry
        et al., Rev. Mod. Phys. 92, 015004, 2020)."""
        return self.overhead_factor / (self.contrast * math.sqrt(self.n_photons))


@dataclass(frozen=True)
class CwModel:
    """Lock-in cw (ODMR) magnetometry parameters."""

    contrast: float
    linewidth: FrequencyHz

    def __post_init__(self) -> None:
        _check_range("(0, 1]", contrast=self.contrast)
        _check_range("(0, inf)", linewidth=self.linewidth)


def sigma_phi_filter(
    spectrum: PhaseNoiseSpectrum,
    seq: PulseSequence,
    f_cutoff: FrequencyHz = DEFAULT_F_CUTOFF_PULSED,
    finite_pulse_correction: bool = True,
) -> Radians:
    """Per-sequence phase noise sqrt(int_0^fc S_phi(f) F(f) df)."""
    _check_range("(0, inf)", f_cutoff=f_cutoff)
    ff = FilterFunction(seq, finite_pulse_correction=finite_pulse_correction)
    psd = _psd_power_law(spectrum)
    var = band_integral_weighted(ff, lambda f: psd(f, np.empty(f.size)), 0.0, f_cutoff)
    if not math.isfinite(var) or var < 0:
        raise ArithmeticError("phase-noise integral did not converge to a finite value")
    return math.sqrt(var)


def eta_phi(
    sigma_phi: Radians,
    seq: PulseSequence,
) -> SensitivityTeslaSqrtS:
    """Sensitivity from a per-sequence phase std, including dead-time cost."""
    _check_range("[0, inf)", sigma_phi=sigma_phi)
    tau_tot = seq.tau_tot
    dead_penalty = math.sqrt(1.0 + seq.t_dead / tau_tot)
    return sigma_phi / (4.0 * GAMMA_NV * math.sqrt(tau_tot)) * dead_penalty


def eta_white(
    sigma_wh: Radians,
    f_xy8: FrequencyHz,
    duty: float,
) -> SensitivityTeslaSqrtS:
    """White per-pulse phase noise: eta = (sigma_wh / gamma) sqrt(f_xy8 / 2) sqrt(1/duty).

    Notably independent of the number of pulses: more pulses at the same
    spacing accumulate noise exactly as fast as they accumulate signal time.
    """
    _check_range("[0, inf)", sigma_wh=sigma_wh)
    _check_range("(0, inf)", f_xy8=f_xy8)
    _check_range("(0, 1]", duty=duty)
    return sigma_wh / GAMMA_NV * math.sqrt(f_xy8 / 2.0) * math.sqrt(1.0 / duty)


def eta_random_walk(
    sigma_rw: Radians,
    r_samp: FrequencyHz,
    duty: float,
) -> SensitivityTeslaSqrtS:
    """Random-walk phase noise: eta = sigma_rw sqrt(r_samp) / (4 gamma) sqrt(1/duty).

    Independent of both pulse number and interrogation time; valid while the
    walk is well sampled over a pulse spacing (r_samp at least ~1/(2 tau)).
    """
    _check_range("[0, inf)", sigma_rw=sigma_rw)
    _check_range("(0, inf)", r_samp=r_samp)
    _check_range("(0, 1]", duty=duty)
    return sigma_rw * math.sqrt(r_samp) / (4.0 * GAMMA_NV) * math.sqrt(1.0 / duty)


def eta_shot_noise(
    model: ReadoutModel,
    seq: PulseSequence,
) -> SensitivityTeslaSqrtS:
    """Photon-shot-noise-limited sensitivity of the pulsed readout:
    :func:`eta_phi` of the model's per-sequence shot sigma."""
    return eta_phi(model.shot_sigma, seq)


def eta_johnson_pulsed(
    l_min: DbcPerHz,
    n_pi: int,
    tau_tot: TimeSeconds,
    f_cutoff: FrequencyHz = DEFAULT_F_CUTOFF_PULSED,
) -> SensitivityTeslaSqrtS:
    """Pulsed sensitivity floor for a flat thermal spectrum at ``l_min``.

    Closed form of the broadband-noise limit: the finite-pulse filter
    integral over a flat spectrum scales as (2 n_pi + 2) and reduces to
    eta = (1/gamma) sqrt(pi fc (n_pi + 1) 10^(l_min/10) / (2 tau_tot)).
    """
    _check_range("(-inf, inf)", l_min=l_min)
    _check_range("[1, inf)", n_pi=n_pi)
    _check_range("(0, inf)", tau_tot=tau_tot, f_cutoff=f_cutoff)
    s_lin = 10.0 ** (l_min / 10.0)
    return math.sqrt(math.pi * f_cutoff * (n_pi + 1) * s_lin / (2.0 * tau_tot)) / GAMMA_NV


def cw_sigma_f(
    spectrum: PhaseNoiseSpectrum,
    tau: TimeSeconds,
    f_cutoff: FrequencyHz = DEFAULT_F_CUTOFF_CW,
) -> float:
    """Std of the drive frequency deviation averaged over a window ``tau``.

    sigma_f^2 = int_0^fc f^2 S_phi(f) sinc^2(pi f tau) df, evaluated as
    S(f) sin^2(pi f tau) / (pi tau)^2 on a uniform grid resolving the 1/tau
    oscillation.  For a flat spectrum and fc*tau >> 1 this approaches
    sqrt(2 S0 fc) / (2 pi tau).
    """
    _check_range("(0, inf)", tau=tau, f_cutoff=f_cutoff)
    n_points = int(min(max(f_cutoff * tau * _CW_OVERSAMPLE, 2048), _CW_MAX_POINTS))
    freqs = np.linspace(0.0, f_cutoff, n_points)
    integrand = np.zeros_like(freqs)
    pos = freqs > 0
    integrand[pos] = (
        ssb_to_psd(spectrum, freqs[pos])
        * np.sin(np.pi * freqs[pos] * tau) ** 2
        / (np.pi * tau) ** 2
    )
    var = float(np.trapezoid(integrand, freqs))
    if not math.isfinite(var):
        raise ArithmeticError("cw frequency-noise integral is not finite")
    return math.sqrt(var)


def cw_eta_f(
    sigma_f: float,
    tau: TimeSeconds,
) -> SensitivityTeslaSqrtS:
    """Sensitivity of a cw measurement whose frequency std over a window
    ``tau`` is ``sigma_f``: eta = (sigma_f / gamma) sqrt(tau)."""
    _check_range("[0, inf)", sigma_f=sigma_f)
    _check_range("(0, inf)", tau=tau)
    return sigma_f / GAMMA_NV * math.sqrt(tau)
