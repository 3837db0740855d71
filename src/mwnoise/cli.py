"""Command-line front end.

Subcommands:
  filter-fn    evaluate a sequence's filter function over a frequency grid
  predict      analytic noise-floor table (filter-function, white, random
               walk, shot, oscillator-thermal) per sweep point
  montecarlo   time-domain Monte Carlo sigma_phi with analytic reference
  pipeline     synthesize a readout stream, spectrum, floors and excess
  calibrate    fit the test-coil volts-to-tesla factor from a data file

Runs are configured by an INI file (``--config``) plus flag overrides, and
are deterministic in (config, seed): rerunning a command writes a
byte-identical table.  Tables honor ``--units``; stream and spectrum CSV
files are always SI because their column headers are part of the file
format.  Exit codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import functools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .analytic_sensitivity import (
    ReadoutModel,
    eta_johnson_pulsed,
    eta_phi,
    eta_random_walk,
    eta_shot_noise,
    eta_white,
    sigma_phi_filter,
)
from .core import khz_to_hz, ns_to_s, read_csv, us_to_s
from .noise_models import (
    NoiseProcess,
    PhaseNoiseSpectrum,
    PsdDrivenNoise,
    RandomWalkNoise,
    WhiteNoise,
    flat_spectrum,
    load_spectrum,
    preset_spectrum,
)
from .pulse_sequences import (
    FilterFunction,
    PulseSequence,
    SequenceKind,
    filter_function_integral,
    filter_function_value,
    make_cpmg,
    make_xy8,
    make_xy8_fixed_duration,
)
from .signal_pipeline import (
    FitError,
    amplitude_spectrum,
    estimate_noise_floor,
    excess_noise,
    fit_calibration,
    save_amplitude_spectrum,
    shot_sigma_from_readout,
    synthesize_stream,
)
from .spin_simulator import monte_carlo_sigma_phi, simulate_gradiometer

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Bad configuration: unknown key, missing value, inconsistent request."""


# Resolved-config schema: every key the INI file and sweeps may set, with its
# default.  Sections/keys outside this schema are configuration errors.
_DEFAULTS: dict[str, dict] = {
    "sequence": {
        "kind": "xy8",
        "n_r": 1,
        "t_pi_ns": 0.0,
        "t_dead_us": 0.0,
        "f_xy8_khz": None,
        "tau_ns": None,
        "tau_tot_us": None,
        "finite_pulses": True,
    },
    "noise": {
        "source": "none",
        "preset": None,
        "file": None,
        "carrier_ghz": None,
        "shift_db": None,
        "l_dbc": None,
        "sigma_wh": None,
        "sigma_rw": None,
        "r_samp_hz": None,
        "f_cutoff_hz": 1e8,
        "l_johnson_dbc": -177.0,
    },
    "readout": {
        "shot_sigma": None,
        "contrast": None,
        "n_photons": None,
        "t_read_us": 1.5,
        "t_norm_us": 4.0,
    },
    "pipeline": {
        "duration_s": 150.0,
        "interval_s": 1.0,
        "f_test_khz": None,
        "test_field_pt": 0.0,
        "gradiometer": False,
        "uniform_pt": 0.0,
        "gradient_pt": 0.0,
        "f_uniform_khz": 394.0,
        "f_gradient_khz": 394.0,
    },
    "run": {
        "seed": 0,
        "n_realizations": 10000,
        "workers": 1,
    },
}

_INT_KEYS = {("sequence", "n_r"), ("run", "seed"), ("run", "n_realizations"), ("run", "workers")}
_BOOL_KEYS = {("sequence", "finite_pulses"), ("pipeline", "gradiometer")}
_STR_KEYS = {("sequence", "kind"), ("noise", "source"), ("noise", "preset"), ("noise", "file")}

# Sweepable parameters, by the name used in [sweep] axis = ...
_SWEEP_AXES: dict[str, tuple[str, str]] = {
    "n_r": ("sequence", "n_r"),
    "t_pi_ns": ("sequence", "t_pi_ns"),
    "t_dead_us": ("sequence", "t_dead_us"),
    "f_xy8_khz": ("sequence", "f_xy8_khz"),
    "tau_ns": ("sequence", "tau_ns"),
    "tau_tot_us": ("sequence", "tau_tot_us"),
    "sigma_wh": ("noise", "sigma_wh"),
    "sigma_rw": ("noise", "sigma_rw"),
    "r_samp_hz": ("noise", "r_samp_hz"),
    "carrier_ghz": ("noise", "carrier_ghz"),
    "shift_db": ("noise", "shift_db"),
    "l_dbc": ("noise", "l_dbc"),
    "test_field_pt": ("pipeline", "test_field_pt"),
}


def _coerce(section: str, key: str, raw: str):
    if (section, key) in _STR_KEYS:
        return raw
    if (section, key) in _BOOL_KEYS:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None
    if (section, key) in _INT_KEYS:
        return _integer(f"[{section}] {key}", value, raw)
    return value


def _integer(label: str, value: float, raw) -> int:
    if not value.is_integer():
        raise ConfigError(f"{label}: expected an integer, got {raw!r}")
    return int(value)


def load_config(path: str | Path | None) -> dict:
    """Resolved configuration: schema defaults overlaid with the INI file."""
    cfg = copy.deepcopy(_DEFAULTS)
    cfg["sweep"] = {"axis": None, "values": None}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section in parser.sections():
        if section == "sweep":
            axis = parser.get(section, "axis", fallback=None)
            values = parser.get(section, "values", fallback=None)
            for key in parser.options(section):
                if key not in ("axis", "values"):
                    raise ConfigError(f"[sweep] has unknown key {key!r}")
            cfg["sweep"]["axis"] = axis
            if values is not None:
                cfg["sweep"]["values"] = [
                    _coerce(section, "values", v) for v in values.split(",") if v.strip()
                ]
            continue
        if section not in _DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _DEFAULTS[section]:
                raise ConfigError(f"[{section}] has unknown key {key!r}")
            cfg[section][key] = _coerce(section, key, parser.get(section, key))
    return cfg


def build_sequence(cfg: dict) -> PulseSequence:
    seq_cfg = cfg["sequence"]
    timing = [k for k in ("f_xy8_khz", "tau_ns", "tau_tot_us") if seq_cfg[k] is not None]
    if len(timing) != 1:
        raise ConfigError(
            "give exactly one of f_xy8_khz, tau_ns, tau_tot_us in [sequence]"
        )
    kind = seq_cfg["kind"].lower()
    n_r = seq_cfg["n_r"]
    t_pi = ns_to_s(seq_cfg["t_pi_ns"])
    t_dead = us_to_s(seq_cfg["t_dead_us"])
    try:
        if kind == "xy8":
            if timing[0] == "f_xy8_khz":
                return make_xy8(n_r, khz_to_hz(seq_cfg["f_xy8_khz"]), t_pi, t_dead)
            if timing[0] == "tau_ns":
                return PulseSequence(
                    SequenceKind.XY8, 8 * n_r, ns_to_s(seq_cfg["tau_ns"]), t_pi, t_dead
                )
            return make_xy8_fixed_duration(n_r, us_to_s(seq_cfg["tau_tot_us"]), t_pi, t_dead)
        if kind == "cpmg":
            # For CPMG, n_r counts individual pi pulses.
            if timing[0] == "f_xy8_khz":
                return make_cpmg(n_r, khz_to_hz(seq_cfg["f_xy8_khz"]), t_pi, t_dead)
            if timing[0] == "tau_ns":
                return PulseSequence(
                    SequenceKind.CPMG, n_r, ns_to_s(seq_cfg["tau_ns"]), t_pi, t_dead
                )
            raise ConfigError("cpmg timing must be given as f_xy8_khz or tau_ns")
    except ValueError as exc:
        raise ConfigError(f"invalid sequence parameters: {exc}") from None
    raise ConfigError(f"unknown sequence kind {seq_cfg['kind']!r} (use xy8 or cpmg)")


_SOURCE_KEYS = {
    "none": (),
    "white": ("sigma_wh",),
    "random-walk": ("sigma_rw", "r_samp_hz"),
    "preset": ("preset",),
    "file": ("file",),
    "flat": ("l_dbc",),
}


def _check_single_source(noise_cfg: dict) -> str:
    source = noise_cfg["source"].lower()
    if source not in _SOURCE_KEYS:
        raise ConfigError(
            f"unknown noise source {noise_cfg['source']!r}; "
            f"use one of {', '.join(sorted(_SOURCE_KEYS))}"
        )
    for key in _SOURCE_KEYS[source]:
        if noise_cfg[key] is None:
            raise ConfigError(f"noise source {source!r} requires [noise] {key}")
    owners = {k: s for s, keys in _SOURCE_KEYS.items() for k in keys}
    for key, owner in owners.items():
        if noise_cfg[key] is not None and owner != source and key not in _SOURCE_KEYS[source]:
            raise ConfigError(
                f"[noise] {key} belongs to source {owner!r} but source is {source!r}; "
                "configure exactly one noise source"
            )
    return source


def build_noise_spectrum(cfg: dict) -> PhaseNoiseSpectrum | None:
    """The L(f) spectrum of the configured source, or None for sample-based ones."""
    noise_cfg = cfg["noise"]
    source = _check_single_source(noise_cfg)
    if source == "preset":
        try:
            spectrum = preset_spectrum(noise_cfg["preset"])
        except KeyError as exc:
            raise ConfigError(str(exc.args[0])) from None
    elif source == "file":
        path = Path(noise_cfg["file"])
        if not path.exists():
            raise ConfigError(f"spectrum file not found: {path}")
        try:
            spectrum = load_spectrum(path)
        except ValueError as exc:
            raise ConfigError(f"cannot parse spectrum file: {exc}") from None
    elif source != "flat":
        return None
    try:
        if source == "flat":
            spectrum = flat_spectrum(noise_cfg["l_dbc"])
        if noise_cfg["carrier_ghz"] is not None:
            spectrum = spectrum.scaled_to_carrier(noise_cfg["carrier_ghz"] * 1e9)
        if noise_cfg["shift_db"] is not None:
            spectrum = spectrum.shifted_db(noise_cfg["shift_db"])
    except ValueError as exc:
        raise ConfigError(f"invalid [noise] parameters: {exc}") from None
    return spectrum


def build_process(cfg: dict, seed: int) -> NoiseProcess | None:
    noise_cfg = cfg["noise"]
    source = _check_single_source(noise_cfg)
    if source == "none":
        return None
    spectrum = build_noise_spectrum(cfg)
    try:
        if source == "white":
            return WhiteNoise(noise_cfg["sigma_wh"], seed=seed)
        if source == "random-walk":
            return RandomWalkNoise(noise_cfg["sigma_rw"], noise_cfg["r_samp_hz"], seed=seed)
        return PsdDrivenNoise(spectrum, noise_cfg["f_cutoff_hz"], seed=seed)
    except ValueError as exc:
        raise ConfigError(f"invalid [noise] parameters: {exc}") from None


def build_readout(cfg: dict) -> "ReadoutModel | float":
    r = cfg["readout"]
    model_keys = (r["contrast"], r["n_photons"])
    if r["shot_sigma"] is not None:
        if any(v is not None for v in model_keys):
            raise ConfigError("[readout] give either shot_sigma or contrast/n_photons, not both")
        if not 0 <= r["shot_sigma"] < math.inf:
            raise ConfigError("[readout] shot_sigma must be nonnegative and finite")
        return r["shot_sigma"]
    if all(v is not None for v in model_keys):
        try:
            return ReadoutModel(
                r["contrast"], r["n_photons"], us_to_s(r["t_read_us"]), us_to_s(r["t_norm_us"])
            )
        except ValueError as exc:
            raise ConfigError(f"invalid [readout] parameters: {exc}") from None
    if any(v is not None for v in model_keys):
        raise ConfigError("[readout] contrast and n_photons must be given together")
    return 0.0


# --- units ------------------------------------------------------------------
# Column-name suffix conventions under --units paper: _t_sqrts scales to
# pT*s^(1/2), _hz to kHz, _s to us.  Everything else passes through as is.

_PAPER_RULES = (
    ("_t_sqrts", "_pt_sqrts", 1e12),
    ("_hz", "_khz", 1e-3),
    ("_s", "_us", 1e6),
)


def _apply_units(columns: list[str], rows: list[list], units: str) -> tuple[list[str], list[list]]:
    if units != "paper":
        return columns, rows
    scales = [1.0] * len(columns)
    renamed = list(columns)
    for i, name in enumerate(columns):
        for suffix, new_suffix, scale in _PAPER_RULES:
            if name.endswith(suffix):
                renamed[i] = name[: -len(suffix)] + new_suffix
                scales[i] = scale
                break
    scaled_rows = [
        [v * s if isinstance(v, float) else v for v, s in zip(row, scales)]
        for row in rows
    ]
    return renamed, scaled_rows


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _provenance(cfg: dict, command: str, extra: dict | None = None) -> list[str]:
    lines = [f"# mwnoise={__version__}", f"# command={command}"]
    for section in list(_DEFAULTS) + ["sweep"]:
        for key, value in cfg[section].items():
            if value is None:
                continue
            if isinstance(value, list):
                value = ",".join(_format_cell(float(v)) for v in value)
            lines.append(f"# {section}.{key}={value}")
    for key, value in (extra or {}).items():
        lines.append(f"# {key}={value}")
    return lines


def _emit_table(
    cfg: dict,
    command: str,
    columns: list[str],
    rows: list[list],
    out: str | None,
    units: str,
    extra_meta: dict | None = None,
) -> None:
    columns, rows = _apply_units(columns, rows, units)
    lines = _provenance(cfg, command, extra_meta)
    lines.append(",".join(columns))
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _sweep_configs(cfg: dict) -> list[tuple[float | None, dict]]:
    """(axis value, resolved config) per sweep point; a single (None, cfg)
    when no sweep is configured."""
    axis = cfg["sweep"]["axis"]
    values = cfg["sweep"]["values"]
    if axis is None and values is None:
        return [(None, cfg)]
    if axis is None or not values:
        raise ConfigError("[sweep] needs both axis and values")
    if axis not in _SWEEP_AXES:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; known: {', '.join(sorted(_SWEEP_AXES))}"
        )
    section, key = _SWEEP_AXES[axis]
    points = []
    for value in values:
        point = copy.deepcopy(cfg)
        if (section, key) in _INT_KEYS:
            value = _integer(f"[sweep] {axis}", value, value)
        point[section][key] = value
        points.append((float(value), point))
    return points


def _run_sweep(cfg: dict, point_fn, columns: list[str]) -> tuple[list[str], list[list], object]:
    """Evaluate ``point_fn(point_cfg) -> (rows, extra)`` at every sweep point,
    in a process pool when [run] workers > 1, keeping the input order.

    ``point_fn`` is sent to the pool, so it is a module-level function or a
    ``functools.partial`` of one.  Returns the table's columns and rows, led
    by the sweep axis when there is one, and the last point's ``extra``.
    """
    points = _sweep_configs(cfg)
    configs = [point for _, point in points]
    workers = cfg["run"]["workers"]
    if workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(point_fn, configs))
    else:
        results = [point_fn(point) for point in configs]
    axis = cfg["sweep"]["axis"]
    if axis is None:
        rows = results[0][0]
    else:
        columns = [axis, *columns]
        rows = [[value, *row] for (value, _), (chunk, _) in zip(points, results) for row in chunk]
    return columns, rows, results[-1][1]


# --- filter-fn ----------------------------------------------------------------

def _filter_fn_point(cfg, f_min: float, f_max: float | None, n_points: int):
    seq = build_sequence(cfg)
    ff = FilterFunction(seq, finite_pulse_correction=cfg["sequence"]["finite_pulses"])
    top = f_max if f_max is not None else 2.2 * seq.f_center
    if not 0 <= f_min < top:
        raise ConfigError("need 0 <= f-min < f-max")
    if n_points < 2:
        raise ConfigError("need at least 2 grid points")
    grid = np.linspace(f_min, top, n_points)
    values = filter_function_value(ff, grid)
    integrals = filter_function_integral(ff, f_min, grid)
    return np.column_stack((grid, values, integrals)).tolist(), None


def cmd_filter_fn(cfg: dict, args) -> None:
    point_fn = functools.partial(
        _filter_fn_point, f_min=args.f_min, f_max=args.f_max, n_points=args.n_points
    )
    columns, rows, _ = _run_sweep(cfg, point_fn, ["f_hz", "filter_value", "integral_rad_hz"])
    _emit_table(cfg, "filter-fn", columns, rows, args.out, args.units)


# --- predict ------------------------------------------------------------------

def _predict_point(cfg):
    seq = build_sequence(cfg)
    noise_cfg = cfg["noise"]
    spectrum = build_noise_spectrum(cfg)
    # A sample-based source is built for its validated parameters.
    process = build_process(cfg, cfg["run"]["seed"]) if spectrum is None else None

    sigma_phi = float("nan")
    eta_filter = float("nan")
    if spectrum is not None:
        sigma_phi = sigma_phi_filter(
            spectrum,
            seq,
            f_cutoff=noise_cfg["f_cutoff_hz"],
            finite_pulse_correction=cfg["sequence"]["finite_pulses"],
        )
        eta_filter = eta_phi(sigma_phi, seq)
    eta_wh = (
        eta_white(process.sigma_wh, seq.f_center, seq.duty)
        if isinstance(process, WhiteNoise)
        else float("nan")
    )
    eta_rw = (
        eta_random_walk(process.sigma_rw, process.r_samp, seq.duty)
        if isinstance(process, RandomWalkNoise)
        else float("nan")
    )
    readout = build_readout(cfg)
    eta_shot = (
        eta_shot_noise(readout, seq) if isinstance(readout, ReadoutModel) else float("nan")
    )
    eta_johnson = eta_johnson_pulsed(noise_cfg["l_johnson_dbc"], seq.n_pi, seq.tau_tot)
    row = [
        float(seq.tau_tot),
        float(seq.f_center),
        sigma_phi,
        eta_filter,
        eta_wh,
        eta_rw,
        eta_shot,
        eta_johnson,
    ]
    return [row], None


def cmd_predict(cfg: dict, args) -> None:
    columns = [
        "tau_tot_s",
        "f_center_hz",
        "sigma_phi_rad",
        "eta_filter_t_sqrts",
        "eta_white_t_sqrts",
        "eta_rw_t_sqrts",
        "eta_shot_t_sqrts",
        "eta_johnson_t_sqrts",
    ]
    columns, rows, _ = _run_sweep(cfg, _predict_point, columns)
    _emit_table(cfg, "predict", columns, rows, args.out, args.units)


# --- montecarlo -----------------------------------------------------------------

def _montecarlo_point(cfg):
    seq = build_sequence(cfg)
    build_readout(cfg)  # validated only: the table has no readout column
    seed = cfg["run"]["seed"]
    process = build_process(cfg, seed)
    if process is None:
        process = WhiteNoise(0.0, seed=seed)
    result = monte_carlo_sigma_phi(seq, process, cfg["run"]["n_realizations"], seed=seed)

    source = cfg["noise"]["source"].lower()
    if source == "white":
        analytic = 2.0 * cfg["noise"]["sigma_wh"] * math.sqrt(seq.n_pi + 0.25)
    elif source == "random-walk":
        analytic = cfg["noise"]["sigma_rw"] * math.sqrt(seq.tau_tot * cfg["noise"]["r_samp_hz"])
    elif source == "none":
        analytic = 0.0
    else:
        # The Monte Carlo treats pulses as instantaneous, so the matching
        # frequency-domain reference is the delta-pulse filter function.
        analytic = sigma_phi_filter(
            build_noise_spectrum(cfg),
            seq,
            f_cutoff=cfg["noise"]["f_cutoff_hz"],
            finite_pulse_correction=False,
        )
    row = [
        result.n_realizations,
        result.sigma_phi_empirical,
        result.standard_error,
        analytic,
        eta_phi(result.sigma_phi_empirical, seq),
        eta_phi(analytic, seq),
    ]
    return [row], None


def cmd_montecarlo(cfg: dict, args) -> None:
    columns = [
        "n_realizations",
        "sigma_phi_rad",
        "sigma_phi_stderr_rad",
        "sigma_phi_analytic_rad",
        "eta_empirical_t_sqrts",
        "eta_analytic_t_sqrts",
    ]
    columns, rows, _ = _run_sweep(cfg, _montecarlo_point, columns)
    _emit_table(cfg, "montecarlo", columns, rows, args.out, args.units)


# --- pipeline -------------------------------------------------------------------

def _pipeline_point(cfg):
    seq = build_sequence(cfg)
    p = cfg["pipeline"]
    seed = cfg["run"]["seed"]
    process = build_process(cfg, seed)
    readout = build_readout(cfg)
    interval = p["interval_s"]

    if p["gradiometer"]:
        shot_sigma = shot_sigma_from_readout(readout)
        n_seq = int(round(p["duration_s"] * seq.f_samp))
        if process is None:
            raise ConfigError("gradiometer mode needs a noise source")
        ch1, ch2, diff = simulate_gradiometer(
            seq,
            process,
            uniform_signal=p["uniform_pt"] * 1e-12,
            gradient_signal=p["gradient_pt"] * 1e-12,
            shot_sigma=shot_sigma,
            n_sequences=n_seq,
            seed=seed,
            f_uniform=khz_to_hz(p["f_uniform_khz"]),
            f_gradient=khz_to_hz(p["f_gradient_khz"]),
        )
        spectra = [amplitude_spectrum(s, interval) for s in (ch1, ch2, diff)]
        f_excl = khz_to_hz(p["f_uniform_khz"]) if p["uniform_pt"] else khz_to_hz(p["f_gradient_khz"])
        floors = [estimate_noise_floor(s, f_excl)[0] for s in spectra]
        row = [
            floors[0],
            floors[1],
            floors[2],
            floors[0] / floors[2] if floors[2] > 0 else float("inf"),
        ]
        return [row], spectra[2]

    f_test = khz_to_hz(p["f_test_khz"]) if p["f_test_khz"] is not None else None
    stream_on = synthesize_stream(
        seq, process, p["test_field_pt"] * 1e-12, f_test or 0.0, readout, p["duration_s"], seed
    )
    spectrum_on = amplitude_spectrum(stream_on, interval)
    floor_on, _ = estimate_noise_floor(spectrum_on, f_test)
    if process is None:
        floor_off = floor_on
    else:
        stream_off = synthesize_stream(
            seq, None, p["test_field_pt"] * 1e-12, f_test or 0.0, readout, p["duration_s"], seed
        )
        floor_off, _ = estimate_noise_floor(amplitude_spectrum(stream_off, interval), f_test)
    return [[floor_on, floor_off, excess_noise(floor_on, floor_off)]], spectrum_on


def cmd_pipeline(cfg: dict, args) -> None:
    if cfg["pipeline"]["gradiometer"]:
        columns = [
            "floor_ch1_t_sqrts",
            "floor_ch2_t_sqrts",
            "floor_diff_t_sqrts",
            "suppression_ratio",
        ]
    else:
        columns = ["floor_on_t_sqrts", "floor_off_t_sqrts", "excess_t_sqrts"]
    columns, rows, last_spectrum = _run_sweep(cfg, _pipeline_point, columns)
    _emit_table(cfg, "pipeline", columns, rows, args.out, args.units)
    if args.spectrum_out:
        save_amplitude_spectrum(
            last_spectrum, args.spectrum_out, metadata={"seed": cfg["run"]["seed"]}
        )


# --- calibrate ------------------------------------------------------------------

def cmd_calibrate(cfg: dict, args) -> None:
    seq = build_sequence(cfg)
    path = Path(args.data)
    if not path.exists():
        raise ConfigError(f"calibration data file not found: {path}")
    try:
        _, data = read_csv(path, 2)
    except ValueError as exc:
        raise ConfigError(f"cannot parse calibration data: {exc}") from None
    if data.size == 0:
        raise ConfigError(f"{path}: no v_test,v_nv rows found")
    fit = fit_calibration(data[:, 0], data[:, 1], seq)
    rows = [[fit.v_max, fit.kappa, fit.residual_rms]]
    _emit_table(
        cfg,
        "calibrate",
        ["v_max", "kappa_t_per_v", "residual_rms"],
        rows,
        args.out,
        args.units,
        extra_meta={"data": path.name, "n_points": data.shape[0]},
    )


# --- argument parsing -------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI configuration file")
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.add_argument("--seed", type=int, help="override [run] seed")
    sub.add_argument("--workers", type=int, help="override [run] workers for sweeps")
    sub.add_argument(
        "--units",
        choices=("si", "paper"),
        default="si",
        help="table units: si (T, Hz, s) or paper (pT, kHz, us)",
    )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwnoise",
        description="Microwave phase-noise impact on pulsed and cw spin-qubit magnetometers",
    )
    parser.add_argument("--version", action="version", version=f"mwnoise {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("filter-fn", help="filter function over a frequency grid")
    _add_common(p)
    p.add_argument("--f-min", type=float, default=0.0, help="grid start in Hz")
    p.add_argument("--f-max", type=float, default=None, help="grid end in Hz (default 2.2*f_center)")
    p.add_argument("--n-points", type=int, default=512, help="grid size")

    p = subs.add_parser("predict", help="analytic sensitivity table")
    _add_common(p)

    p = subs.add_parser("montecarlo", help="time-domain Monte Carlo sigma_phi")
    _add_common(p)
    p.add_argument("--n-realizations", type=int, help="override [run] n_realizations")

    p = subs.add_parser("pipeline", help="stream synthesis, spectrum, floors")
    _add_common(p)
    p.add_argument("--spectrum-out", help="also write the (last) amplitude spectrum CSV here")

    p = subs.add_parser("calibrate", help="fit kappa from a v_test,v_nv CSV")
    _add_common(p)
    p.add_argument("--data", required=True, help="calibration data CSV (v_test,v_nv)")

    return parser


_COMMANDS = {
    "filter-fn": cmd_filter_fn,
    "predict": cmd_predict,
    "montecarlo": cmd_montecarlo,
    "pipeline": cmd_pipeline,
    "calibrate": cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["run"]["seed"] = args.seed
        if args.workers is not None:
            cfg["run"]["workers"] = args.workers
        if getattr(args, "n_realizations", None) is not None:
            cfg["run"]["n_realizations"] = args.n_realizations
        if cfg["run"]["workers"] < 1:
            raise ConfigError("[run] workers must be at least 1")
        _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"mwnoise: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, ArithmeticError, ValueError) as exc:
        print(f"mwnoise: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
