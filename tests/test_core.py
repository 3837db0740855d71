"""Constants, config-unit converters and the package's public names."""

import ast
import math
import types
from pathlib import Path

import numpy as np
import pytest

import mwnoise as mw
from mwnoise import core, noise_models


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


def _named(name):
    """The ValueError of the range rule for argument ``name``."""
    return rf"^{name} must be a finite number in "


@pytest.mark.parametrize(
    "name, build",
    [
        ("linewidth", lambda: mw.CwModel(0.5, math.nan)),
        ("linewidth", lambda: mw.CwModel(0.5, math.inf)),
        ("gamma_nv", lambda: mw.Constants(gamma_nv=math.nan)),
        ("zero_field_splitting_d", lambda: mw.Constants(zero_field_splitting_d=math.inf)),
        ("f_samp", lambda: mw.ReadoutStream(np.zeros(4), math.nan)),
        ("f_samp", lambda: mw.ReadoutStream(np.zeros(4), math.inf)),
        ("interval", lambda: mw.AmplitudeSpectrum(*_SPECTRUM_ARRAYS, math.nan, 10, 1e3)),
        ("f_samp", lambda: mw.AmplitudeSpectrum(*_SPECTRUM_ARRAYS, 1.0, 10, math.nan)),
        ("interval", lambda: mw.AmplitudeSpectrum(*_SPECTRUM_ARRAYS, math.inf, 10, 1e3)),
        ("n_pi", lambda: mw.PulseSequence(mw.SequenceKind.CPMG, math.nan, 1e-6)),
        ("n_pi", lambda: mw.PulseSequence(mw.SequenceKind.CPMG, math.inf, 1e-6)),
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
        "cpmg-n-pi-nan",
        "cpmg-n-pi-inf",
    ],
)
def test_non_finite_scalars_rejected_at_construction(name, build):
    with pytest.raises(ValueError, match=_named(name)):
        build()


_SEQ = mw.PulseSequence(mw.SequenceKind.CPMG, 8, 1e-6)
_FLAT = mw.flat_spectrum(-120.0)


@pytest.mark.parametrize(
    "name, call",
    [
        ("f_samp", lambda: mw.alias_frequency(1.0, math.inf)),
        ("f", lambda: mw.alias_frequency(math.inf, 1.0)),
        ("f", lambda: mw.alias_frequency(math.nan, 1.0)),
        ("f_samp", lambda: mw.alias_frequency(1.0, math.nan)),
        ("eta_on", lambda: mw.excess_noise(math.nan, 1.0)),
        ("eta_off", lambda: mw.excess_noise(1.0, math.nan)),
        ("eta_on", lambda: mw.excess_noise(math.inf, math.inf)),
        ("eta_on", lambda: mw.excess_noise(math.inf, 1.0)),
        ("sigma_phi", lambda: mw.eta_phi(math.nan, _SEQ)),
        ("sigma_phi", lambda: mw.eta_phi(math.inf, _SEQ)),
        ("sigma_wh", lambda: mw.eta_white(math.nan, 458e3, 1.0)),
        ("f_xy8", lambda: mw.eta_white(0.01, math.inf, 1.0)),
        ("sigma_rw", lambda: mw.eta_random_walk(math.nan, 1e6, 1.0)),
        ("r_samp", lambda: mw.eta_random_walk(0.01, math.inf, 1.0)),
        ("l_min", lambda: mw.eta_johnson_pulsed(math.nan, 8, 1e-5)),
        ("n_pi", lambda: mw.eta_johnson_pulsed(-177.0, math.nan, 1e-5)),
        ("f_cutoff", lambda: mw.eta_johnson_pulsed(-177.0, 8, 1e-5, f_cutoff=math.inf)),
        ("sigma_f", lambda: mw.cw_eta_f(math.nan, 1e-3)),
        ("tau", lambda: mw.cw_eta_f(1.0, math.inf)),
        ("tau", lambda: mw.cw_sigma_f(_FLAT, math.nan)),
        ("f_cutoff", lambda: mw.sigma_phi_filter(_FLAT, _SEQ, f_cutoff=math.nan)),
        ("tau", lambda: mw.dq_ramsey_probability(0.0, 0.0, 0.0, math.nan)),
        ("new_carrier_hz", lambda: _FLAT.scaled_to_carrier(math.nan)),
        ("new_carrier_hz", lambda: _FLAT.scaled_to_carrier(math.inf)),
        ("duration", lambda: mw.synthesize_phase_track(_FLAT, math.nan, 1e-6, 0)),
        ("dt", lambda: mw.simulate_cw_trace(mw.CwModel(0.02, 1e6), _FLAT, 0.0, math.nan, 1e-3)),
        (
            "n_realizations",
            lambda: noise_models.sample_pulse_phases_batch(mw.WhiteNoise(0.01), [1e-6], math.nan),
        ),
        (
            "n_realizations",
            lambda: mw.monte_carlo_sigma_phi(_SEQ, mw.WhiteNoise(0.01), math.nan),
        ),
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
        "eta-phi-nan",
        "eta-phi-inf",
        "eta-white-sigma-nan",
        "eta-white-f-xy8-inf",
        "eta-rw-sigma-nan",
        "eta-rw-r-samp-inf",
        "eta-johnson-l-min-nan",
        "eta-johnson-n-pi-nan",
        "eta-johnson-f-cutoff-inf",
        "cw-eta-sigma-nan",
        "cw-eta-tau-inf",
        "cw-sigma-tau-nan",
        "sigma-phi-f-cutoff-nan",
        "dq-ramsey-tau-nan",
        "carrier-nan",
        "carrier-inf",
        "track-duration-nan",
        "cw-trace-dt-nan",
        "pulse-phases-realizations-nan",
        "monte-carlo-realizations-nan",
    ],
)
def test_non_finite_arguments_rejected(name, call):
    with pytest.raises(ValueError, match=_named(name)):
        call()


@pytest.mark.parametrize(
    "value, interval, inside",
    [
        (0.0, "(0, inf)", False),
        (0.0, "[0, inf)", True),
        (5e-324, "(0, inf)", True),
        (1.0, "(0, 1]", True),
        (1.0, "(0, 1)", False),
        (math.nextafter(1.0, 2.0), "(0, 1]", False),
        (math.nan, "(-inf, inf)", False),
        (math.nan, "[0, inf)", False),
        (math.inf, "(0, inf)", False),
        (-math.inf, "(-inf, inf)", False),
        (-1e308, "(-inf, inf)", True),
        (1, "[1, inf)", True),
        (0, "[1, inf)", False),
        (np.int64(100), "[100, inf)", True),
        (np.int64(99), "[100, inf)", False),
        (np.float64(math.nan), "[0, inf)", False),
        (np.float32(0.5), "(0, 1]", True),
        (np.float64(-0.0), "[0, inf)", True),
    ],
)
def test_in_range_ends(value, interval, inside):
    assert core._in_range(value, interval) == inside


def test_check_range_names_the_first_value_outside():
    core._check_range("(0, 1]", a=0.5, b=1.0)
    with pytest.raises(ValueError, match=r"^b must be a finite number in \(0, 1\], got nan$"):
        core._check_range("(0, 1]", a=0.5, b=math.nan, c=-1.0)
    # ``interval`` is positional only, so an argument may take that name.
    with pytest.raises(ValueError, match=r"^interval must be"):
        core._check_range("(0, inf)", interval=0.0)


# --- one range rule ---------------------------------------------------------------
# Every scalar range check of the package goes through core._check_range; a
# hand-written ``if <parameter> < 0: raise ValueError(...)`` is the kind of
# check that lets NaN through.

_RULE = {"_in_range", "_check_range"}


def _is_bound(node):
    """A number, a signed number, ``math.inf`` or an UPPER_CASE constant."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and (node.value.id, node.attr) == ("math", "inf")
    return isinstance(node, ast.Name) and node.id.lstrip("_").isupper()


def _scalar_compares(test):
    """The comparisons of an ``if`` test outside calls: a comparison inside
    ``np.any(...)`` or ``np.all(...)`` is an array check."""
    if isinstance(test, ast.Compare):
        yield test
    if not isinstance(test, ast.Call):
        for child in ast.iter_child_nodes(test):
            yield from _scalar_compares(child)


def _raises_value_error(statements):
    for node in (n for stmt in statements for n in ast.walk(stmt)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                return True
    return False


def _hand_written_range_checks(source, filename):
    """``file:line`` of each ``if`` that compares a parameter of its function
    (or a ``self.<field>``) with a number and raises ValueError, outside the
    core rule."""
    found = []

    def visit(node, params):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name in _RULE:
                    continue
                args = child.args
                names = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                visit(child, params | {a.arg for a in names if a is not None})
                continue
            if isinstance(child, ast.If) and _raises_value_error(child.body):
                for cmp in _scalar_compares(child.test):
                    operands = [cmp.left, *cmp.comparators]
                    subject = any(
                        (isinstance(o, ast.Name) and o.id in params)
                        or (
                            isinstance(o, ast.Attribute)
                            and isinstance(o.value, ast.Name)
                            and o.value.id == "self"
                        )
                        for o in operands
                    )
                    if subject and any(map(_is_bound, operands)):
                        found.append(f"{filename}:{child.lineno}")
                        break
            visit(child, params)

    visit(ast.parse(source), frozenset())
    return found


def test_every_scalar_range_check_uses_the_core_rule():
    package = Path(core.__file__).parent
    found = [
        line
        for path in sorted(package.glob("*.py"))
        for line in _hand_written_range_checks(path.read_text(), path.name)
    ]
    assert found == []


def test_range_check_lint_finds_a_hand_written_check():
    source = """
def cw_eta_f(sigma_f, tau):
    if tau <= 0:
        raise ValueError("tau must be positive")

class Model:
    def __post_init__(self):
        if not 0 < self.linewidth < math.inf:
            raise ValueError("linewidth must be positive and finite")

def kept(duration, dt):
    n = int(duration / dt)
    if n < 2:
        raise ValueError("too short")
    if dt >= duration:
        raise ValueError("dt too long")
    if np.any(duration < 0):
        raise ValueError("an array check")
"""
    assert _hand_written_range_checks(source, "x.py") == ["x.py:3", "x.py:8"]


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
