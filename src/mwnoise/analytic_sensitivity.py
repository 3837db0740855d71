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
        if not 0 < self.contrast <= 1:
            raise ValueError("contrast must be in (0, 1]")
        if not 0 < self.n_photons < math.inf:
            raise ValueError("n_photons must be positive and finite")
        if not (0 < self.t_read < math.inf and 0 < self.t_norm < math.inf):
            raise ValueError("readout and normalization windows must be positive and finite")

    @property
    def overhead_factor(self) -> float:
        """xi = sqrt(2 (1 + t_read / t_norm)): signal-plus-reference shot noise."""
        return math.sqrt(2.0 * (1.0 + self.t_read / self.t_norm))


@dataclass(frozen=True)
class CwModel:
    """Lock-in cw (ODMR) magnetometry parameters."""

    contrast: float
    linewidth: FrequencyHz

    def __post_init__(self) -> None:
        if not 0 < self.contrast <= 1:
            raise ValueError("contrast must be in (0, 1]")
        if self.linewidth <= 0:
            raise ValueError("linewidth must be positive")


def sigma_phi_filter(
    spectrum: PhaseNoiseSpectrum,
    seq: PulseSequence,
    f_cutoff: FrequencyHz = DEFAULT_F_CUTOFF_PULSED,
    finite_pulse_correction: bool = True,
) -> Radians:
    """Per-sequence phase noise sqrt(int_0^fc S_phi(f) F(f) df)."""
    if f_cutoff <= 0:
        raise ValueError("f_cutoff must be positive")
    ff = FilterFunction(seq, finite_pulse_correction=finite_pulse_correction)
    psd = _psd_power_law(spectrum)

    def weight(f: np.ndarray) -> np.ndarray:
        # Lattice blocks ascend and are finite, so only leading points can
        # sit at f = 0, where S(0) counts as 0, and the rest need no check.
        out = np.empty(f.size)
        zeros = int(np.searchsorted(f, 0.0, side="right"))
        out[:zeros] = 0.0
        psd(f[zeros:], out[zeros:])
        return out

    var = band_integral_weighted(ff, weight, 0.0, f_cutoff)
    if not math.isfinite(var) or var < 0:
        raise ArithmeticError("phase-noise integral did not converge to a finite value")
    return math.sqrt(var)


def eta_phi(
    sigma_phi: Radians,
    seq: PulseSequence,
) -> SensitivityTeslaSqrtS:
    """Sensitivity from a per-sequence phase std, including dead-time cost."""
    if sigma_phi < 0:
        raise ValueError("sigma_phi must be nonnegative")
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
    if sigma_wh < 0:
        raise ValueError("sigma_wh must be nonnegative")
    if f_xy8 <= 0:
        raise ValueError("f_xy8 must be positive")
    if not 0 < duty <= 1:
        raise ValueError("duty must be in (0, 1]")
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
    if sigma_rw < 0:
        raise ValueError("sigma_rw must be nonnegative")
    if r_samp <= 0:
        raise ValueError("r_samp must be positive")
    if not 0 < duty <= 1:
        raise ValueError("duty must be in (0, 1]")
    return sigma_rw * math.sqrt(r_samp) / (4.0 * GAMMA_NV) * math.sqrt(1.0 / duty)


def eta_shot_noise(
    model: ReadoutModel,
    seq: PulseSequence,
) -> SensitivityTeslaSqrtS:
    """Photon-shot-noise-limited sensitivity of the pulsed readout."""
    tau_tot = seq.tau_tot
    return (
        model.overhead_factor
        / math.sqrt(seq.duty)
        / (4.0 * GAMMA_NV * model.contrast * math.sqrt(tau_tot * model.n_photons))
    )


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
    if n_pi < 1:
        raise ValueError("n_pi must be at least 1")
    if tau_tot <= 0 or f_cutoff <= 0:
        raise ValueError("tau_tot and f_cutoff must be positive")
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
    if tau <= 0:
        raise ValueError("tau must be positive")
    if f_cutoff <= 0:
        raise ValueError("f_cutoff must be positive")
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
    if sigma_f < 0:
        raise ValueError("sigma_f must be nonnegative")
    if tau <= 0:
        raise ValueError("tau must be positive")
    return sigma_f / GAMMA_NV * math.sqrt(tau)
