"""Output checks run (untimed) in the worker after each job.

Each check compares the CSV a job wrote with a reference that does not come
from the number being checked: a closed form written here, one quadrature
call over the whole grid, the generating value of seeded data, or the
Monte Carlo's own standard error.  A check returns None when the output is
right and a one-line reason otherwise.
"""

from __future__ import annotations

import math
from pathlib import Path

from mwnoise import (
    FFT_FLOOR_FACTOR,
    FilterFunction,
    eta_phi,
    filter_function_integral,
    make_xy8,
    preset_spectrum,
    sigma_phi_filter,
)


def read_table(path: str) -> list[dict[str, float]]:
    """Rows of a CLI result CSV as {column: value}; '#' lines are provenance."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    return [dict(zip(columns, map(float, ln.split(",")))) for ln in lines[1:]]


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def _sequence(spec: dict):
    return make_xy8(spec["n_r"], spec["f_xy8_khz"] * 1e3, spec["t_pi_ns"] * 1e-9,
                    spec["t_dead_us"] * 1e-6)


def predict_finite(rows, spec):
    for row in rows:
        if not (row["sigma_phi_rad"] > 0 and math.isfinite(row["eta_filter_t_sqrts"])):
            return f"n_r={row['n_r']}: sigma_phi={row['sigma_phi_rad']}"
    return None


def predict_flat(rows, spec):
    """Broadband limit of the finite-pulse filter integral over a flat L:
    sigma_phi^2 -> S_phi * (2N + 2) * f_cutoff with S_phi = 2 * 10^(L/10)."""
    if [row["n_r"] for row in rows] != spec["n_r"]:
        return "sweep rows do not match the configured n_r values"
    s_phi = 2.0 * 10.0 ** (spec["l_dbc"] / 10.0)
    for row in rows:
        ref = s_phi * (2 * 8 * row["n_r"] + 2) * spec["f_cutoff"]
        if _rel(row["sigma_phi_rad"] ** 2, ref) > 0.10:
            return f"n_r={row['n_r']}: sigma_phi^2/ref={row['sigma_phi_rad'] ** 2 / ref:.4f}"
    return None


def filter_fn(rows, spec):
    """The running integral's last value equals one integral over the whole
    grid, because the lattice integral is additive over adjacent intervals."""
    ff = FilterFunction(_sequence(spec), finite_pulse_correction=True)
    ref = filter_function_integral(ff, rows[0]["f_hz"], rows[-1]["f_hz"])
    got = rows[-1]["integral_rad_hz"]
    if _rel(got, ref) > 1e-9:
        return f"running integral {got!r} vs one-pass {ref!r}"
    return None


def calibrate(rows, spec):
    got = rows[0]["kappa_t_per_v"]
    if _rel(got, spec["kappa"]) > 0.01:
        return f"kappa {got:.6g} vs generating {spec['kappa']:.6g}"
    return None


def montecarlo(rows, spec):
    row = rows[0]
    emp, stderr = row["sigma_phi_rad"], row["sigma_phi_stderr_rad"]
    ref = spec.get("analytic", row["sigma_phi_analytic_rad"])
    if abs(emp - ref) > 5.0 * stderr + 0.01 * ref:
        return f"empirical {emp:.6g} +- {stderr:.2g} vs analytic {ref:.6g}"
    return None


def pipeline_floor(rows, spec):
    """White readout noise of rms sensitivity eta shows a magnitude-spectrum
    floor FFT_FLOOR_FACTOR * eta; source and shot noise add in quadrature.

    The source term is a closed form (white, random walk) or, for a preset
    spectrum, the delta-pulse filter-function quadrature, which is
    independent of the synthesis-grid variance the stream is drawn with.
    """
    row = rows[0]
    seq = _sequence(spec)
    if "preset" in spec:
        sigma_src = sigma_phi_filter(preset_spectrum(spec["preset"]), seq,
                                     f_cutoff=spec["f_cutoff"], finite_pulse_correction=False)
    else:
        sigma_src = spec["sigma_src"]
    ref = FFT_FLOOR_FACTOR * eta_phi(math.hypot(sigma_src, spec["shot_sigma"]), seq)
    if _rel(row["floor_on_t_sqrts"], ref) > 0.10:
        return f"floor_on/ref={row['floor_on_t_sqrts'] / ref:.4f}"
    if row["floor_on_t_sqrts"] < row["floor_off_t_sqrts"]:
        return f"floor_on {row['floor_on_t_sqrts']:.4g} < floor_off {row['floor_off_t_sqrts']:.4g}"
    return None


def gradiometer(rows, spec):
    ratio = rows[0]["suppression_ratio"]
    if not ratio > spec["min_suppression"]:
        return f"suppression ratio {ratio:.3g} <= {spec['min_suppression']}"
    return None


CHECKS = {fn.__name__: fn for fn in (predict_finite, predict_flat, filter_fn, calibrate,
                                     montecarlo, pipeline_floor, gradiometer)}


def check(job: dict) -> str | None:
    try:
        rows = read_table(job["out"])
        if not rows:
            return "no result rows"
        return CHECKS[job["check"]["type"]](rows, job["check"])
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
