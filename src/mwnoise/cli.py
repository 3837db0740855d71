"""Command-line front end.

Subcommands:
  filter-fn    evaluate a sequence's filter function over a frequency grid
  predict      analytic noise-floor table (filter-function, white, random
               walk, shot, oscillator-thermal) per sweep point
  montecarlo   time-domain Monte Carlo sigma_phi with analytic reference
  pipeline     synthesize a readout stream, spectrum, floors and excess
  calibrate    fit the test-coil volts-to-tesla factor from a data file

Runs are configured by an INI file (``--config``), one :data:`SCHEMA` row
per key, plus flag overrides, and are deterministic in (config, seed):
rerunning a command writes a byte-identical table.  Tables honor
``--units``; stream and spectrum CSV files are always SI because their
column headers are part of the file format.  Exit codes: 0 success, 2
configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, spin_simulator
from .analytic_sensitivity import (
    ReadoutModel,
    eta_johnson_pulsed,
    eta_phi,
    eta_random_walk,
    eta_white,
    sigma_phi_filter,
)
from .core import _in_range, khz_to_hz, ns_to_s, read_csv, us_to_s
from .noise_models import (
    NoiseProcess,
    PsdDrivenNoise,
    RandomWalkNoise,
    WhiteNoise,
    flat_spectrum,
    load_spectrum,
    preset_names,
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
    _chunk_length,
    _sequence_count,
    estimate_noise_floor,
    excess_noise,
    fit_calibration,
    gradiometer_spectra,
    save_amplitude_spectrum,
    stream_spectra,
)
from .spin_simulator import _MIN_REALIZATIONS, _phi_tot_sigma, monte_carlo_sigma_phi

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ConfigError(ValueError):
    """Bad configuration: unknown key, missing value, inconsistent request."""


@dataclass(frozen=True)
class Key:
    """One config key: ``[section] name``, its default, its type, the values
    it may take, the noise sources that use it and whether ``[sweep]`` may
    sweep it.

    ``range`` is an interval such as ``"(0, inf)"`` for a number, a tuple of
    lowercase choices for a string, or None for any value.  ``sources`` is
    None for a key every source (or no source) uses.  A key whose value is
    None is unset and unchecked.
    """

    section: str
    name: str
    default: object
    type: type
    range: str | tuple[str, ...] | None = None
    sources: tuple[str, ...] | None = None
    sweep: bool = False


_SPECTRUM_SOURCES = ("preset", "file", "flat")

# The resolved-config schema, in header order.  Sections and keys outside it
# are configuration errors; build_point checks every row on every point.
SCHEMA = (
    Key("sequence", "kind", "xy8", str, ("xy8", "cpmg")),
    Key("sequence", "n_r", 1, int, "[1, inf)", sweep=True),
    Key("sequence", "t_pi_ns", 0.0, float, "[0, inf)", sweep=True),
    Key("sequence", "t_dead_us", 0.0, float, "[0, inf)", sweep=True),
    Key("sequence", "f_xy8_khz", None, float, "(0, inf)", sweep=True),
    Key("sequence", "tau_ns", None, float, "(0, inf)", sweep=True),
    Key("sequence", "tau_tot_us", None, float, "(0, inf)", sweep=True),
    Key("sequence", "finite_pulses", True, bool),
    Key("noise", "source", "none", str, ("none", "white", "random-walk", *_SPECTRUM_SOURCES)),
    Key("noise", "preset", None, str, tuple(preset_names()), sources=("preset",)),
    Key("noise", "file", None, str, sources=("file",)),
    Key("noise", "carrier_ghz", None, float, "(0, inf)", _SPECTRUM_SOURCES, sweep=True),
    Key("noise", "shift_db", None, float, "(-inf, inf)", _SPECTRUM_SOURCES, sweep=True),
    Key("noise", "l_dbc", None, float, "(-inf, inf)", ("flat",), sweep=True),
    Key("noise", "sigma_wh", None, float, "[0, inf)", ("white",), sweep=True),
    Key("noise", "sigma_rw", None, float, "[0, inf)", ("random-walk",), sweep=True),
    Key("noise", "r_samp_hz", None, float, "(0, inf)", ("random-walk",), sweep=True),
    Key("noise", "f_cutoff_hz", 1e8, float, "(0, inf)"),
    Key("noise", "l_johnson_dbc", -177.0, float, "(-inf, inf)"),
    Key("readout", "shot_sigma", None, float, "[0, inf)"),
    Key("readout", "contrast", None, float, "(0, 1]"),
    Key("readout", "n_photons", None, float, "(0, inf)"),
    Key("readout", "t_read_us", 1.5, float, "(0, inf)"),
    Key("readout", "t_norm_us", 4.0, float, "(0, inf)"),
    Key("pipeline", "duration_s", 150.0, float, "(0, inf)"),
    Key("pipeline", "interval_s", 1.0, float, "(0, inf)"),
    Key("pipeline", "f_test_khz", None, float, "[0, inf)"),
    Key("pipeline", "test_field_pt", 0.0, float, "(-inf, inf)", sweep=True),
    Key("pipeline", "gradiometer", False, bool),
    Key("pipeline", "uniform_pt", 0.0, float, "(-inf, inf)"),
    Key("pipeline", "gradient_pt", 0.0, float, "(-inf, inf)"),
    Key("pipeline", "f_uniform_khz", 394.0, float, "[0, inf)"),
    Key("pipeline", "f_gradient_khz", 394.0, float, "[0, inf)"),
    Key("run", "seed", 0, int, "(-inf, inf)"),
    Key("run", "n_realizations", 10000, int, f"[{_MIN_REALIZATIONS}, inf)"),
    Key("run", "workers", 1, int, "[1, inf)"),
)

# Key names are unique across sections, so a name (a sweep axis too) finds its row.
_KEYS = {key.name: key for key in SCHEMA}


def _coerce(label: str, kind: type, raw: str):
    if kind is str:
        return raw
    if kind is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{label}: expected a boolean, got {raw!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{label}: expected a number, got {raw!r}") from None
    return _integer(label, value, raw) if kind is int else value


def _integer(label: str, value: float, raw) -> int:
    if not value.is_integer():
        raise ConfigError(f"{label}: expected an integer, got {raw!r}")
    return int(value)


def load_config(path: str | Path | None) -> dict:
    """Resolved configuration: schema defaults overlaid with the INI file."""
    cfg: dict[str, dict] = {}
    for key in SCHEMA:
        cfg.setdefault(key.section, {})[key.name] = key.default
    cfg["sweep"] = {"axis": None, "values": None}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
        sections = {name: dict(parser.items(name)) for name in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section, items in sections.items():
        if section == "sweep":
            for key in items:
                if key not in ("axis", "values"):
                    raise ConfigError(f"[sweep] has unknown key {key!r}")
            cfg["sweep"]["axis"] = items.get("axis")
            values = items.get("values")
            if values is not None:
                cfg["sweep"]["values"] = [
                    _coerce("[sweep] values", float, v) for v in values.split(",") if v.strip()
                ]
            continue
        if section not in cfg:
            raise ConfigError(f"unknown config section [{section}]")
        for name, raw in items.items():
            if name not in cfg[section]:
                raise ConfigError(f"[{section}] has unknown key {name!r}")
            cfg[section][name] = _coerce(f"[{section}] {name}", _KEYS[name].type, raw)
    return cfg


def _check_keys(cfg: dict) -> None:
    """Check every set key against its schema row: its range (by the
    library's own rule, :func:`~mwnoise.core._in_range`), and that the
    configured noise source uses it."""
    source = cfg["noise"]["source"].lower()
    for key in SCHEMA:
        value = cfg[key.section][key.name]
        if value is None:
            continue
        label = f"[{key.section}] {key.name}"
        if isinstance(key.range, tuple):
            if value.lower() not in key.range:
                raise ConfigError(f"{label} must be one of {', '.join(key.range)}, got {value!r}")
        elif key.range is not None and not _in_range(value, key.range):
            raise ConfigError(f"{label} must be in {key.range}, got {value!r}")
        # The source row comes first in the schema, so ``source`` is valid here.
        if key.sources is not None and source not in key.sources:
            raise ConfigError(
                f"{label} is used by source {' or '.join(key.sources)}, not by {source!r}; "
                "configure exactly one noise source"
            )


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
        # The schema allows cpmg otherwise, for which n_r counts individual pi pulses.
        if timing[0] == "f_xy8_khz":
            return make_cpmg(n_r, khz_to_hz(seq_cfg["f_xy8_khz"]), t_pi, t_dead)
        if timing[0] == "tau_ns":
            return PulseSequence(SequenceKind.CPMG, n_r, ns_to_s(seq_cfg["tau_ns"]), t_pi, t_dead)
    except ValueError as exc:
        raise ConfigError(f"invalid sequence parameters: {exc}") from None
    raise ConfigError("cpmg timing must be given as f_xy8_khz or tau_ns")


def build_noise(cfg: dict) -> NoiseProcess | None:
    """Process of the configured noise source, None for ``none``.

    A spectrum source's L(f) is the process's ``spectrum``.  The process
    keeps its default seed: every draw takes ``[run] seed`` explicitly.
    """
    noise_cfg = cfg["noise"]
    source = noise_cfg["source"].lower()
    # A key that this source alone uses is a parameter it needs.
    for key in SCHEMA:
        if key.sources == (source,) and noise_cfg[key.name] is None:
            raise ConfigError(f"noise source {source!r} requires [noise] {key.name}")
    if source == "file" and not Path(noise_cfg["file"]).is_file():
        raise ConfigError(f"spectrum file not found: {noise_cfg['file']}")
    try:
        if source == "none":
            return None
        if source == "white":
            return WhiteNoise(noise_cfg["sigma_wh"])
        if source == "random-walk":
            return RandomWalkNoise(noise_cfg["sigma_rw"], noise_cfg["r_samp_hz"])
        if source == "preset":
            spectrum = preset_spectrum(noise_cfg["preset"])
        elif source == "file":
            spectrum = load_spectrum(noise_cfg["file"])
        else:
            spectrum = flat_spectrum(noise_cfg["l_dbc"])
        if noise_cfg["carrier_ghz"] is not None:
            spectrum = spectrum.scaled_to_carrier(noise_cfg["carrier_ghz"] * 1e9)
        if noise_cfg["shift_db"] is not None:
            spectrum = spectrum.shifted_db(noise_cfg["shift_db"])
        return PsdDrivenNoise(spectrum, noise_cfg["f_cutoff_hz"])
    except ValueError as exc:
        raise ConfigError(f"invalid [noise] parameters: {exc}") from None


def build_readout(cfg: dict) -> float | None:
    """Per-sequence shot-noise phase std of ``[readout]``: ``shot_sigma``, or
    the :attr:`ReadoutModel.shot_sigma` of ``contrast``/``n_photons``; None
    when neither is given."""
    r = cfg["readout"]
    model_keys = (r["contrast"], r["n_photons"])
    if r["shot_sigma"] is not None:
        if any(v is not None for v in model_keys):
            raise ConfigError("[readout] give either shot_sigma or contrast/n_photons, not both")
        return r["shot_sigma"]
    if all(v is not None for v in model_keys):
        try:
            return ReadoutModel(
                r["contrast"], r["n_photons"], us_to_s(r["t_read_us"]), us_to_s(r["t_norm_us"])
            ).shot_sigma
        except ValueError as exc:
            raise ConfigError(f"invalid [readout] parameters: {exc}") from None
    if any(v is not None for v in model_keys):
        raise ConfigError("[readout] contrast and n_photons must be given together")
    return None


def _stream_sequences(seq: PulseSequence, p: dict) -> int:
    """Sequences in the configured readout stream, checked by the pipeline's
    own length rules: at least 10 (the gradiometer needs 2, which its chunk
    of at least 2 samples implies) and one whole interval."""
    try:
        if p["gradiometer"]:
            n_seq = int(round(p["duration_s"] * seq.f_samp))
        else:
            n_seq = _sequence_count(p["duration_s"], seq.f_samp)
        _chunk_length(p["interval_s"], seq.f_samp, n_seq)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid [pipeline] stream length: {exc}") from None
    return n_seq


def build_point(cfg: dict) -> tuple[PulseSequence, NoiseProcess | None, float | None]:
    """(sequence, process, shot sigma) of one sweep point.

    Every command builds each of its points here, once, so every set key is
    checked against :data:`SCHEMA` and every section is built whether or not
    the command uses it: a bad value is a configuration error under every
    command; so is a ``[pipeline] test_field_pt`` without ``f_test_khz``,
    whose tone would sit at 0 Hz, under the floor's DC cut.  ``process`` is
    that of :func:`build_noise` and the shot sigma that of
    :func:`build_readout`.
    """
    _check_keys(cfg)
    p = cfg["pipeline"]
    if p["test_field_pt"] != 0 and p["f_test_khz"] is None:
        raise ConfigError("[pipeline] test_field_pt needs f_test_khz, the test field's frequency")
    seq = build_sequence(cfg)
    _stream_sequences(seq, p)
    return seq, build_noise(cfg), build_readout(cfg)


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


@functools.cache
def _row_template(types: tuple) -> str:
    """CSV row template for cells of these types: %.12g for floats (the
    same text as f"{v:.12g}", nan and inf included), %s for the rest."""
    return ",".join("%.12g" if issubclass(t, float) else "%s" for t in types)


def _format_row(row) -> str:
    return _row_template(tuple(map(type, row))) % tuple(row)


def _provenance(cfg: dict, command: str, extra: dict | None = None) -> list[str]:
    lines = [f"# mwnoise={__version__}", f"# command={command}"]
    for section, keys in cfg.items():
        for key, value in keys.items():
            if value is None:
                continue
            if isinstance(value, list):
                value = _format_row([float(v) for v in value])
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
    lines.extend(map(_format_row, rows))
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
    key = _KEYS.get(axis)
    if key is None or not key.sweep:
        known = sorted(row.name for row in SCHEMA if row.sweep)
        raise ConfigError(f"unknown sweep axis {axis!r}; known: {', '.join(known)}")
    points = []
    for value in values:
        point = copy.deepcopy(cfg)
        if key.type is int:
            value = _integer(f"[sweep] {axis}", value, value)
        point[key.section][axis] = value
        points.append((float(value), point))
    return points


def _run_sweep(cfg: dict, point_fn) -> tuple[list[str], list[list], object]:
    """Evaluate ``point_fn(point_cfg) -> (columns, rows, extra)`` at every
    sweep point, keeping the input order.

    With [run] workers > 1 the points run in a process pool of at most one
    worker per point and per usable CPU, whose workers each keep to one
    lane.  Otherwise, or when that cap is one, they run one after another on
    this thread, each with its own lanes (Monte Carlo chunks, stream
    blocks), and the first failing point fails the sweep.

    ``point_fn`` is sent to the process pool, so it is a module-level
    function or a ``functools.partial`` of one.  Returns the first point's
    columns and every point's rows, led by the sweep axis when there is one,
    and the last point's ``extra``.  A worker process that ends abruptly (an
    out-of-memory kill, say) is a configuration error, as is a run too large
    to allocate.
    """
    points = _sweep_configs(cfg)
    configs = [point for _, point in points]
    # At most one process per point and per usable CPU: with the fork start
    # method the pool starts all its workers at once.
    workers = min(cfg["run"]["workers"], len(points), spin_simulator._usable_cpus())
    if workers > 1:
        # Imported here: no other run needs the process pool's modules.
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=spin_simulator._one_lane
            ) as pool:
                results = list(pool.map(point_fn, configs))
        except BrokenExecutor:
            raise ConfigError(
                "a sweep worker process ended abruptly (killed, perhaps for lack of memory)"
            ) from None
    else:
        results = [point_fn(c) for c in configs]
    columns = results[0][0]
    axis = cfg["sweep"]["axis"]
    if axis is None:
        return columns, results[0][1], results[0][2]
    rows = [[value, *row] for (value, _), (_, chunk, _) in zip(points, results) for row in chunk]
    return [axis, *columns], rows, results[-1][2]


# --- sweep points -----------------------------------------------------------------
# Each takes one point's resolved config and the parsed arguments, and returns
# (columns, rows, extra): pipeline's extra is the spectrum --spectrum-out
# writes, the others' None.

def _filter_fn_point(cfg, args):
    seq = build_point(cfg)[0]
    ff = FilterFunction(seq, finite_pulse_correction=cfg["sequence"]["finite_pulses"])
    top = args.f_max if args.f_max is not None else 2.2 * seq.f_center
    if not (math.isfinite(args.f_min) and math.isfinite(top)):
        raise ConfigError("f-min and f-max must be finite")
    if not 0 <= args.f_min < top:
        raise ConfigError("need 0 <= f-min < f-max")
    if args.n_points < 2:
        raise ConfigError("need at least 2 grid points")
    grid = np.linspace(args.f_min, top, args.n_points)
    values = filter_function_value(ff, grid)
    integrals = filter_function_integral(ff, args.f_min, grid)
    columns = ["f_hz", "filter_value", "integral_rad_hz"]
    return columns, np.column_stack((grid, values, integrals)).tolist(), None


def _predict_point(cfg, args):
    seq, process, shot_sigma = build_point(cfg)
    noise_cfg = cfg["noise"]
    sigma_phi = float("nan")
    eta_filter = float("nan")
    if isinstance(process, PsdDrivenNoise):
        sigma_phi = sigma_phi_filter(
            process.spectrum,
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
    eta_shot = float("nan") if shot_sigma is None else eta_phi(shot_sigma, seq)
    eta_johnson = eta_johnson_pulsed(
        noise_cfg["l_johnson_dbc"], seq.n_pi, seq.tau_tot, f_cutoff=noise_cfg["f_cutoff_hz"]
    )
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
    return columns, [row], None


def _montecarlo_point(cfg, args):
    seq, process, _ = build_point(cfg)
    seed = cfg["run"]["seed"]
    if process is None:
        process = WhiteNoise(0.0)
    result = monte_carlo_sigma_phi(seq, process, cfg["run"]["n_realizations"], seed=seed)
    if isinstance(process, PsdDrivenNoise):
        # The Monte Carlo treats pulses as instantaneous, so the matching
        # frequency-domain reference is the delta-pulse filter function.
        analytic = sigma_phi_filter(
            process.spectrum, seq, cfg["noise"]["f_cutoff_hz"], finite_pulse_correction=False
        )
    else:
        # White, random walk and none: the exact std of the sampled phi_tot.
        analytic = _phi_tot_sigma(seq, process)
    columns = [
        "n_realizations",
        "sigma_phi_rad",
        "sigma_phi_stderr_rad",
        "sigma_phi_analytic_rad",
        "eta_empirical_t_sqrts",
        "eta_analytic_t_sqrts",
    ]
    row = [
        result.n_realizations,
        result.sigma_phi_empirical,
        result.standard_error,
        analytic,
        eta_phi(result.sigma_phi_empirical, seq),
        eta_phi(analytic, seq),
    ]
    return columns, [row], None


def _pipeline_point(cfg, args):
    seq, process, shot_sigma = build_point(cfg)
    if shot_sigma is None:
        shot_sigma = 0.0  # no [readout]: no shot noise
    p = cfg["pipeline"]
    seed = cfg["run"]["seed"]
    interval = p["interval_s"]

    if p["gradiometer"]:
        n_seq = _stream_sequences(seq, p)
        if process is None:
            raise ConfigError("gradiometer mode needs a noise source")
        spectra = gradiometer_spectra(
            seq,
            process,
            uniform_signal=p["uniform_pt"] * 1e-12,
            gradient_signal=p["gradient_pt"] * 1e-12,
            shot_sigma=shot_sigma,
            n_sequences=n_seq,
            interval=interval,
            seed=seed,
            f_uniform=khz_to_hz(p["f_uniform_khz"]),
            f_gradient=khz_to_hz(p["f_gradient_khz"]),
        )
        f_excl = khz_to_hz(p["f_uniform_khz"]) if p["uniform_pt"] else khz_to_hz(p["f_gradient_khz"])
        floors = [estimate_noise_floor(s, f_excl)[0] for s in spectra]
        columns = [
            "floor_ch1_t_sqrts",
            "floor_ch2_t_sqrts",
            "floor_diff_t_sqrts",
            "suppression_ratio",
        ]
        row = [
            floors[0],
            floors[1],
            floors[2],
            floors[0] / floors[2] if floors[2] > 0 else float("inf"),
        ]
        return columns, [row], spectra[2]

    f_test = khz_to_hz(p["f_test_khz"]) if p["f_test_khz"] is not None else None
    spectrum_on, spectrum_off = stream_spectra(
        seq, process, p["test_field_pt"] * 1e-12, f_test or 0.0, shot_sigma, p["duration_s"],
        interval, seed,
    )
    floor_on, _ = estimate_noise_floor(spectrum_on, f_test)
    floor_off = floor_on if spectrum_off is None else estimate_noise_floor(spectrum_off, f_test)[0]
    columns = ["floor_on_t_sqrts", "floor_off_t_sqrts", "excess_t_sqrts"]
    return columns, [[floor_on, floor_off, excess_noise(floor_on, floor_off)]], spectrum_on


_POINTS = {
    "filter-fn": _filter_fn_point,
    "predict": _predict_point,
    "montecarlo": _montecarlo_point,
    "pipeline": _pipeline_point,
}


# --- calibrate ------------------------------------------------------------------

def _calibrate(cfg: dict, args) -> None:
    if cfg["sweep"]["axis"] is not None or cfg["sweep"]["values"] is not None:
        raise ConfigError("calibrate fits one sequence and takes no [sweep]")
    seq = build_point(cfg)[0]
    path = Path(args.data)
    if not path.is_file():
        raise ConfigError(f"calibration data file not found: {path}")
    try:
        _, data = read_csv(path, 2)
    except ValueError as exc:
        raise ConfigError(f"cannot parse calibration data: {exc}") from None
    if data.size == 0:
        raise ConfigError(f"{path}: no v_test,v_nv rows found")
    try:
        fit = fit_calibration(data[:, 0], data[:, 1], seq)
    except ValueError as exc:
        # Data the fit cannot take at all (too few rows, a negative amplitude,
        # no positive v_test); a fit that runs and fails is a FitError, exit 3.
        raise ConfigError(f"{path}: invalid calibration data: {exc}") from None
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


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        for name in ("seed", "workers", "n_realizations"):
            if getattr(args, name, None) is not None:
                cfg["run"][name] = getattr(args, name)
        # "--out -" is stdout; the spectrum has no stdout and a file of its own.
        table_out = None if args.out == "-" else args.out
        spectrum_out = getattr(args, "spectrum_out", None)
        if spectrum_out == "-":
            raise ConfigError("--spectrum-out needs a file path, not - (stdout)")
        if table_out and spectrum_out and Path(table_out).resolve() == Path(spectrum_out).resolve():
            raise ConfigError(f"--out and --spectrum-out name the same file: {spectrum_out}")
        for out in (table_out, spectrum_out):
            if out is None:
                continue
            if not Path(out).parent.is_dir():
                raise ConfigError(f"output directory not found: {Path(out).parent}")
            if Path(out).is_dir():
                raise ConfigError(f"output path is a directory: {out}")
        if args.command == "calibrate":
            _calibrate(cfg, args)
        else:
            point_fn = functools.partial(_POINTS[args.command], args=args)
            columns, rows, spectrum = _run_sweep(cfg, point_fn)
            _emit_table(cfg, args.command, columns, rows, args.out, args.units)
            if spectrum_out:
                save_amplitude_spectrum(
                    spectrum, spectrum_out, metadata={"seed": cfg["run"]["seed"]}
                )
    except ConfigError as exc:
        print(f"mwnoise: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"mwnoise: config error: run too large for memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, ArithmeticError, ValueError) as exc:
        print(f"mwnoise: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
