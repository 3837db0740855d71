"""The config schema: one row per key, checked on every sweep point, and the
README's key table and example config kept in step with it."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from mwnoise import cli, core
from mwnoise.cli import SCHEMA, ConfigError, build_point, load_config

README = Path(__file__).resolve().parent.parent / "README.md"
TIMING = ("f_xy8_khz", "tau_ns", "tau_tot_us")
SOURCES = next(key.range for key in SCHEMA if key.name == "source")
NUMERIC = [key for key in SCHEMA if key.type in (int, float)]


def _bounds(key):
    lo, hi = (float(bound) for bound in key.range[1:-1].split(","))
    return lo, hi, key.range[0] == "[", key.range[-1] == "]"


def _inside(key, spectrum_file):
    """One value of ``key`` in its range, as INI text."""
    if key.name == "file":
        return str(spectrum_file)
    if isinstance(key.range, tuple):
        return key.range[-1]
    if key.default is not None:
        return str(key.default)
    lo, hi, _, _ = _bounds(key)
    return str(lo + 1 if math.isfinite(lo) else 0.0)


def _outside(key):
    """NaN, both infinities and the nearest values past each finite bound."""
    lo, hi, lo_closed, hi_closed = _bounds(key)
    values = [math.nan, math.inf, -math.inf]
    if math.isfinite(lo):
        step = lo - 1 if key.type is int else math.nextafter(lo, -math.inf)
        values.append(step if lo_closed else lo)
    if math.isfinite(hi):
        step = hi + 1 if key.type is int else math.nextafter(hi, math.inf)
        values.append(step if hi_closed else hi)
    return [repr(value) for value in values]


def _sections(key, spectrum_file, source=None):
    """INI sections in which every key is valid and ``key`` may be set: the
    base sequence, a source that uses ``key`` with its required keys, and
    the companion of a two-key readout."""
    sections = {"sequence": {"t_pi_ns": "48", "t_dead_us": "15", "f_xy8_khz": "458"}}
    if key.name in TIMING:
        del sections["sequence"]["f_xy8_khz"]
    source = source or (key.sources or ("none",))[0]
    sections["noise"] = {"source": source}
    for other in SCHEMA:
        if other.sources == (source,):
            sections["noise"][other.name] = _inside(other, spectrum_file)
    if key.name in ("contrast", "n_photons"):
        sections["readout"] = {"contrast": "0.5", "n_photons": "1e5"}
    return sections


def _build(tmp_path, sections):
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    )
    path = tmp_path / "run.ini"
    path.write_text(text)
    for _, point in cli._sweep_configs(load_config(path)):
        build_point(point)


def _set(sections, key, value):
    return {**sections, key.section: {**sections.get(key.section, {}), key.name: value}}


def _swept(sections, key, values):
    return {**sections, "sweep": {"axis": key.name, "values": ", ".join(values)}}


@pytest.fixture
def spectrum_file(tmp_path):
    path = tmp_path / "spectrum.csv"
    path.write_text("# carrier_hz=2.5e9\noffset_hz,l_dbc\n10,-60\n1e3,-100\n1e6,-140\n")
    return path


def test_defaults_pass():
    cfg = load_config(None)
    cfg["sequence"]["f_xy8_khz"] = 458.0
    build_point(cfg)


@pytest.mark.parametrize("key", SCHEMA, ids=lambda key: key.name)
def test_in_range_value_passes(tmp_path, spectrum_file, key):
    value = _inside(key, spectrum_file)
    sections = _sections(key, spectrum_file, value if key.name == "source" else None)
    _build(tmp_path, _set(sections, key, value))
    if key.sweep:
        _build(tmp_path, _swept(sections, key, [value]))


@pytest.mark.parametrize("key", NUMERIC, ids=lambda key: key.name)
def test_out_of_range_value_is_config_error(tmp_path, spectrum_file, key):
    sections = _sections(key, spectrum_file)
    inside = _inside(key, spectrum_file)
    for value in _outside(key):
        with pytest.raises(ConfigError, match=key.name):
            _build(tmp_path, _set(sections, key, value))
        if key.sweep:
            with pytest.raises(ConfigError, match=key.name):
                _build(tmp_path, _swept(sections, key, [inside, value]))


@pytest.mark.parametrize("key", NUMERIC, ids=lambda key: key.name)
def test_core_rule_takes_each_schema_interval(key):
    # The config check and every library check share core's range rule, so
    # the schema's in- and out-of-range values say what it does at each end.
    number = int if key.type is int else float
    inside = float(_inside(key, None))
    assert core._in_range(number(inside), key.range)
    core._check_range(key.range, **{key.name: inside})
    for text in _outside(key):
        value = float(text)
        if key.type is int and math.isfinite(value):
            value = int(value)
        assert not core._in_range(value, key.range)
        assert not core._in_range(np.float64(value), key.range)
        with pytest.raises(ValueError, match=rf"^{key.name} must be a finite number in "):
            core._check_range(key.range, **{key.name: value})


@pytest.mark.parametrize(
    "key", [key for key in SCHEMA if isinstance(key.range, tuple)], ids=lambda key: key.name
)
def test_unknown_choice_is_config_error(tmp_path, spectrum_file, key):
    with pytest.raises(ConfigError):
        _build(tmp_path, _set(_sections(key, spectrum_file), key, "bogus"))


@pytest.mark.parametrize(
    "key", [key for key in SCHEMA if key.sources is not None], ids=lambda key: key.name
)
def test_noise_key_of_another_source_is_config_error(tmp_path, spectrum_file, key):
    value = _inside(key, spectrum_file)
    for source in SOURCES:
        if source not in key.sources:
            with pytest.raises(ConfigError, match=key.name):
                _build(tmp_path, _set(_sections(key, spectrum_file, source), key, value))


def _readme_key_table():
    lines = README.read_text().splitlines()
    start = lines.index("| section | key | type | default | range | used by | sweep |")
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_key_table_matches_schema():
    rows = _readme_key_table()
    assert [(section, key.strip("`")) for section, key, *_ in rows] == [
        (key.section, key.name) for key in SCHEMA
    ]
    for key, (_, _, type_name, default, interval, used_by, sweep) in zip(SCHEMA, rows):
        assert type_name == key.type.__name__, key.name
        if key.default is None:
            assert default == "-", key.name
        else:
            assert cli._coerce(key.name, key.type, default.strip("`")) == key.default, key.name
        if isinstance(key.range, tuple):
            assert interval == ", ".join(f"`{choice}`" for choice in key.range), key.name
        else:
            assert interval == (f"`{key.range}`" if key.range else "any"), key.name
        if key.sources is not None:
            assert used_by == ", ".join(key.sources), key.name
        assert sweep == ("yes" if key.sweep else "no"), key.name


def test_readme_example_config_runs(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    path = tmp_path / "run.ini"
    path.write_text(block)
    out = tmp_path / "predict.csv"
    assert cli.main(["predict", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert out.exists()
