"""Constants, config-unit converters and the package's public names."""

import math
import types

import numpy as np
import pytest

import mwnoise as mw
from mwnoise import core


def test_constants_values():
    assert mw.GAMMA_NV == 28.03e9
    assert mw.ZERO_FIELD_SPLITTING_D == 2.87e9
    assert mw.DEFAULT_CONSTANTS.gamma_nv == mw.GAMMA_NV
    assert mw.DEFAULT_CONSTANTS.zero_field_splitting_d == mw.ZERO_FIELD_SPLITTING_D


def test_constants_validation():
    with pytest.raises(ValueError):
        mw.Constants(gamma_nv=0.0)
    with pytest.raises(ValueError):
        mw.Constants(zero_field_splitting_d=-1.0)


_SPECTRUM_ARRAYS = (np.arange(3.0), np.ones(3))


@pytest.mark.parametrize(
    "build",
    [
        lambda: mw.CwModel(0.5, math.nan),
        lambda: mw.CwModel(0.5, math.inf),
        lambda: mw.Constants(gamma_nv=math.nan),
        lambda: mw.Constants(zero_field_splitting_d=math.inf),
        lambda: mw.ReadoutStream(np.zeros(4), math.nan),
        lambda: mw.ReadoutStream(np.zeros(4), math.inf),
        lambda: mw.AmplitudeSpectrum(*_SPECTRUM_ARRAYS, math.nan, 10, 1e3),
        lambda: mw.AmplitudeSpectrum(*_SPECTRUM_ARRAYS, 1.0, 10, math.nan),
        lambda: mw.AmplitudeSpectrum(*_SPECTRUM_ARRAYS, math.inf, 10, 1e3),
    ],
    ids=[
        "cw-linewidth-nan",
        "cw-linewidth-inf",
        "gamma-nan",
        "zfs-inf",
        "stream-f-samp-nan",
        "stream-f-samp-inf",
        "spectrum-interval-nan",
        "spectrum-f-samp-nan",
        "spectrum-interval-inf",
    ],
)
def test_non_finite_scalars_rejected_at_construction(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "call",
    [
        lambda: mw.alias_frequency(1.0, math.inf),
        lambda: mw.alias_frequency(math.inf, 1.0),
        lambda: mw.alias_frequency(math.nan, 1.0),
        lambda: mw.alias_frequency(1.0, math.nan),
        lambda: mw.excess_noise(math.nan, 1.0),
        lambda: mw.excess_noise(1.0, math.nan),
        lambda: mw.excess_noise(math.inf, math.inf),
        lambda: mw.excess_noise(math.inf, 1.0),
    ],
    ids=[
        "alias-f-samp-inf",
        "alias-f-inf",
        "alias-f-nan",
        "alias-f-samp-nan",
        "excess-on-nan",
        "excess-off-nan",
        "excess-both-inf",
        "excess-on-inf",
    ],
)
def test_non_finite_arguments_rejected(call):
    with pytest.raises(ValueError):
        call()


def test_unit_conversion_round_trips():
    assert core.khz_to_hz(394.0) == pytest.approx(394e3, rel=1e-15)
    assert core.us_to_s(15.0) == pytest.approx(15e-6, rel=1e-15)
    assert core.ns_to_s(40.0) == pytest.approx(40e-9, rel=1e-15)


def test_all_is_sorted_and_matches_the_package_namespace():
    public = {
        name
        for name, obj in vars(mw).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert mw.__all__ == sorted(mw.__all__)
    assert mw.__all__ == sorted(public)


def test_fft_floor_factor_is_sqrt_pi_over_two():
    assert mw.FFT_FLOOR_FACTOR == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-15)
