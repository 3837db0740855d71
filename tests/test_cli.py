"""Command-line interface: exit codes, tables, sweeps, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mwnoise as mw
from mwnoise.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main

SRC = Path(mw.__file__).resolve().parent.parent

BASE_SEQUENCE = """\
[sequence]
kind = xy8
n_r = 1
t_pi_ns = 48
t_dead_us = 15
f_xy8_khz = 458
"""


def _write_config(tmp_path, body, name="run.ini"):
    path = tmp_path / name
    # Strip per-line indentation so blocks concatenated from indented
    # string literals parse as sections, not as value continuations.
    path.write_text("\n".join(line.strip() for line in body.splitlines()) + "\n")
    return str(path)


def _read_table(path):
    lines = Path(path).read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    columns = body[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    return meta, columns, rows


def _seq_from_base():
    return mw.make_xy8(1, 458e3, 48e-9, 15e-6)


# --- filter-fn -------------------------------------------------------------------

def test_filter_fn_matches_library(tmp_path):
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out = tmp_path / "ff.csv"
    assert main(["filter-fn", "--config", cfg, "--out", str(out), "--n-points", "64"]) == EXIT_OK
    _, columns, rows = _read_table(out)
    assert columns == ["f_hz", "filter_value", "integral_rad_hz"]
    seq = _seq_from_base()
    ff = mw.FilterFunction(seq, finite_pulse_correction=True)
    grid = np.linspace(0.0, 2.2 * seq.f_center, 64)
    assert rows[0, 0] == 0.0
    assert abs(rows[0, 1]) < 1e-15
    np.testing.assert_allclose(rows[:, 0], grid, rtol=1e-11)
    for k in (1, 17, 40, 63):
        assert rows[k, 1] == pytest.approx(
            float(mw.filter_function_value(ff, grid[k])), rel=1e-9, abs=1e-12
        )
    assert rows[-1, 2] == pytest.approx(
        mw.filter_function_integral(ff, 0.0, float(grid[-1])), rel=1e-7
    )
    # From a non-zero f_min, each row integrates from f_min to its own f.
    f_min, f_max = 1.234e5, 1.5e6
    assert main(
        ["filter-fn", "--config", cfg, "--out", str(out), "--n-points", "64",
         "--f-min", str(f_min), "--f-max", str(f_max)]
    ) == EXIT_OK
    _, _, rows = _read_table(out)
    grid = np.linspace(f_min, f_max, 64)
    want = [float(f"{mw.filter_function_integral(ff, f_min, f):.12g}") for f in grid]
    assert rows[:, 2].tolist() == want


def test_filter_fn_rerun_is_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["filter-fn", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert main(["filter-fn", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


# --- predict --------------------------------------------------------------------

def test_predict_matches_library(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = preset
        preset = g1-2.5ghz
        """,
    )
    out = tmp_path / "predict.csv"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, columns, rows = _read_table(out)
    seq = _seq_from_base()
    spec = mw.preset_spectrum("g1-2.5ghz")
    row = dict(zip(columns, rows[0]))
    assert row["tau_tot_s"] == pytest.approx(seq.tau_tot, rel=1e-9)
    assert row["f_center_hz"] == pytest.approx(458e3, rel=1e-9)
    sigma = mw.sigma_phi_filter(spec, seq, 1e8, finite_pulse_correction=True)
    assert row["sigma_phi_rad"] == pytest.approx(sigma, rel=1e-9)
    assert row["eta_filter_t_sqrts"] == pytest.approx(mw.eta_phi(sigma, seq), rel=1e-9)
    assert row["eta_johnson_t_sqrts"] == pytest.approx(
        mw.eta_johnson_pulsed(-177.0, seq.n_pi, seq.tau_tot), rel=1e-9
    )
    # No white/random-walk/shot parameters were configured.
    assert math.isnan(row["eta_white_t_sqrts"])
    assert math.isnan(row["eta_rw_t_sqrts"])
    assert math.isnan(row["eta_shot_t_sqrts"])


def test_predict_sweep_order_and_linearity(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = white
        sigma_wh = 0.01

        [sweep]
        axis = sigma_wh
        values = 0.004, 0.001, 0.002
        """,
    )
    out = tmp_path / "sweep.csv"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, columns, rows = _read_table(out)
    assert columns[0] == "sigma_wh"
    # Rows come back in the order the values were listed.
    assert rows[:, 0].tolist() == [0.004, 0.001, 0.002]
    eta = rows[:, columns.index("eta_white_t_sqrts")]
    assert eta[0] / eta[1] == pytest.approx(4.0, rel=1e-9)
    assert eta[2] / eta[1] == pytest.approx(2.0, rel=1e-9)


def test_predict_carrier_sweep_monotone(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = preset
        preset = g1-2.5ghz

        [sweep]
        axis = carrier_ghz
        values = 1.0, 2.5, 6.0
        """,
    )
    out = tmp_path / "carrier.csv"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, columns, rows = _read_table(out)
    eta = rows[:, columns.index("eta_filter_t_sqrts")]
    assert np.all(np.diff(eta) > 0.0)


@pytest.mark.parametrize(
    "command, body, extra",
    [
        ("filter-fn", "[sweep]\naxis = n_r\nvalues = 1, 2, 4\n", ["--n-points", "200"]),
        (
            "predict",
            "[noise]\nsource = white\nsigma_wh = 0.01\n"
            "[sweep]\naxis = sigma_wh\nvalues = 0.001, 0.002, 0.004, 0.008\n",
            [],
        ),
        (
            "montecarlo",
            "[noise]\nsource = preset\npreset = g1-2.5ghz\n"
            "[sweep]\naxis = shift_db\nvalues = 0, 3\n",
            ["--n-realizations", "200"],
        ),
        (
            "pipeline",
            "[noise]\nsource = white\nsigma_wh = 0.005\n[readout]\nshot_sigma = 0.002\n"
            "[pipeline]\nduration_s = 1\n[sweep]\naxis = sigma_wh\nvalues = 0.001, 0.01\n",
            [],
        ),
    ],
    ids=["filter-fn", "predict", "montecarlo", "pipeline"],
)
def test_predict_workers_give_identical_bytes(tmp_path, command, body, extra):
    cfg = _write_config(tmp_path, BASE_SEQUENCE + body)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    for out, workers in ((serial, "1"), (parallel, "2")):
        assert main(
            [command, "--config", cfg, "--out", str(out), "--workers", workers, *extra]
        ) == EXIT_OK
    serial_rows = [l for l in serial.read_text().splitlines() if not l.startswith("#")]
    parallel_rows = [l for l in parallel.read_text().splitlines() if not l.startswith("#")]
    assert serial_rows == parallel_rows


def test_units_paper_scaling(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = white
        sigma_wh = 0.01
        """,
    )
    out_si = tmp_path / "si.csv"
    out_paper = tmp_path / "paper.csv"
    assert main(["predict", "--config", cfg, "--out", str(out_si)]) == EXIT_OK
    assert main(
        ["predict", "--config", cfg, "--out", str(out_paper), "--units", "paper"]
    ) == EXIT_OK
    _, cols_si, rows_si = _read_table(out_si)
    _, cols_paper, rows_paper = _read_table(out_paper)
    assert "eta_white_t_sqrts" in cols_si
    assert "eta_white_pt_sqrts" in cols_paper
    assert "tau_tot_us" in cols_paper
    assert "f_center_khz" in cols_paper
    si = dict(zip(cols_si, rows_si[0]))
    paper = dict(zip(cols_paper, rows_paper[0]))
    assert paper["eta_white_pt_sqrts"] == pytest.approx(
        si["eta_white_t_sqrts"] * 1e12, rel=1e-9
    )
    assert paper["tau_tot_us"] == pytest.approx(si["tau_tot_s"] * 1e6, rel=1e-9)
    assert paper["f_center_khz"] == pytest.approx(si["f_center_hz"] * 1e-3, rel=1e-9)


# --- montecarlo -----------------------------------------------------------------

def test_montecarlo_zero_noise(tmp_path):
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out = tmp_path / "mc0.csv"
    assert main(
        ["montecarlo", "--config", cfg, "--out", str(out), "--n-realizations", "300"]
    ) == EXIT_OK
    _, columns, rows = _read_table(out)
    row = dict(zip(columns, rows[0]))
    assert row["n_realizations"] == 300
    assert row["sigma_phi_rad"] == 0.0
    assert row["sigma_phi_analytic_rad"] == 0.0
    assert row["eta_empirical_t_sqrts"] == 0.0


def test_montecarlo_white_tracks_analytic(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = white
        sigma_wh = 0.01
        """,
    )
    out = tmp_path / "mc.csv"
    assert main(
        ["montecarlo", "--config", cfg, "--out", str(out), "--n-realizations", "4000",
         "--seed", "31"]
    ) == EXIT_OK
    _, columns, rows = _read_table(out)
    row = dict(zip(columns, rows[0]))
    assert row["sigma_phi_analytic_rad"] == pytest.approx(
        2.0 * 0.01 * math.sqrt(8.25), rel=1e-12
    )
    assert row["sigma_phi_rad"] == pytest.approx(row["sigma_phi_analytic_rad"], rel=0.05)
    assert row["sigma_phi_stderr_rad"] == pytest.approx(
        row["sigma_phi_rad"] / math.sqrt(2.0 * 3999), rel=1e-9
    )
    seq = _seq_from_base()
    assert row["eta_empirical_t_sqrts"] == pytest.approx(
        mw.eta_phi(row["sigma_phi_rad"], seq), rel=1e-9
    )


# --- pipeline -------------------------------------------------------------------

def test_pipeline_matches_library(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = white
        sigma_wh = 0.005

        [readout]
        shot_sigma = 0.002

        [pipeline]
        duration_s = 20
        """,
    )
    out = tmp_path / "pipe.csv"
    spectrum_out = tmp_path / "spectrum.csv"
    assert main(
        ["pipeline", "--config", cfg, "--out", str(out), "--seed", "5",
         "--spectrum-out", str(spectrum_out)]
    ) == EXIT_OK
    _, columns, rows = _read_table(out)
    assert columns == ["floor_on_t_sqrts", "floor_off_t_sqrts", "excess_t_sqrts"]
    floor_on, floor_off, excess = rows[0]
    assert excess == pytest.approx(
        math.sqrt(max(floor_on**2 - floor_off**2, 0.0)), rel=1e-9
    )

    seq = _seq_from_base()
    stream_on = mw.synthesize_stream(
        seq, mw.WhiteNoise(0.005, seed=5), 0.0, 0.0, 0.002, 20.0, seed=5
    )
    want_on, _ = mw.estimate_noise_floor(mw.amplitude_spectrum(stream_on, 1.0))
    assert floor_on == pytest.approx(want_on, rel=1e-9)

    saved = mw.load_amplitude_spectrum(spectrum_out)
    assert saved.f_samp == pytest.approx(seq.f_samp, rel=1e-9)
    assert saved.freqs.size > 1000


def test_pipeline_gradiometer_table(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = white
        sigma_wh = 0.02

        [readout]
        shot_sigma = 0.004

        [pipeline]
        duration_s = 20
        gradiometer = true
        uniform_pt = 300
        f_uniform_khz = 3.0
        """,
    )
    out = tmp_path / "grad.csv"
    assert main(["pipeline", "--config", cfg, "--out", str(out), "--seed", "3"]) == EXIT_OK
    _, columns, rows = _read_table(out)
    assert columns == [
        "floor_ch1_t_sqrts",
        "floor_ch2_t_sqrts",
        "floor_diff_t_sqrts",
        "suppression_ratio",
    ]
    ch1, ch2, diff, ratio = rows[0]
    assert min(ch1, ch2, diff) > 0.0
    assert ratio == pytest.approx(ch1 / diff, rel=1e-9)
    # Common-mode phase noise dominates the single channels but cancels in
    # the difference.
    assert ratio > 3.0


def test_pipeline_sweep_writes_last_spectrum(tmp_path):
    body = (
        BASE_SEQUENCE
        + """
        [noise]
        source = white
        sigma_wh = 0.005

        [readout]
        shot_sigma = 0.002

        [pipeline]
        duration_s = 1
        """
    )
    sweep = _write_config(
        tmp_path, body + "[sweep]\naxis = sigma_wh\nvalues = 0.001, 0.01\n", "sweep.ini"
    )
    last = _write_config(tmp_path, body.replace("0.005", "0.01"), "last.ini")
    swept, single = tmp_path / "swept.csv", tmp_path / "single.csv"
    for cfg, spectrum_out in ((sweep, swept), (last, single)):
        assert main(
            ["pipeline", "--config", cfg, "--out", str(tmp_path / "t.csv"),
             "--spectrum-out", str(spectrum_out)]
        ) == EXIT_OK
    assert mw.load_amplitude_spectrum(swept).freqs.size > 1000
    assert swept.read_bytes() == single.read_bytes()


# --- calibrate ------------------------------------------------------------------

def test_calibrate_round_trip(tmp_path):
    seq = _seq_from_base()
    kappa_true, v_max_true = 3e-6, 0.83
    arg_scale = 4.0 * math.sqrt(2.0) * mw.GAMMA_NV * seq.tau_tot
    v_quarter = (0.5 * math.pi) / (arg_scale * kappa_true)
    v_test = np.linspace(0.0, 2.4 * v_quarter, 25)
    rng = np.random.default_rng(6)
    v_nv = v_max_true * np.abs(np.sin(arg_scale * kappa_true * v_test))
    v_nv *= 1.0 + 0.01 * rng.standard_normal(v_test.size)
    data = tmp_path / "cal.csv"
    data.write_text(
        "v_test,v_nv\n"
        + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(v_test, v_nv))
        + "\n"
    )
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out = tmp_path / "fit.csv"
    assert main(
        ["calibrate", "--config", cfg, "--data", str(data), "--out", str(out)]
    ) == EXIT_OK
    meta, columns, rows = _read_table(out)
    assert columns == ["v_max", "kappa_t_per_v", "residual_rms"]
    row = dict(zip(columns, rows[0]))
    assert row["kappa_t_per_v"] == pytest.approx(kappa_true, rel=0.01)
    assert row["v_max"] == pytest.approx(v_max_true, rel=0.01)
    assert any(line.startswith("# n_points=25") for line in meta)


@pytest.mark.parametrize(
    "bad_row",
    ["0.1,abc", "0.1", "0.1,0.2,0.3"],
    ids=["non-numeric", "one-column", "three-columns"],
)
def test_calibrate_malformed_row_is_config_error(tmp_path, bad_row):
    rows = [f"{0.01 * k!r},{abs(math.sin(0.1 * k))!r}" for k in range(25)]
    rows.insert(10, bad_row)
    data = tmp_path / "cal.csv"
    data.write_text("v_test,v_nv\n" + "\n".join(rows) + "\n")
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out = tmp_path / "fit.csv"
    assert main(
        ["calibrate", "--config", cfg, "--data", str(data), "--out", str(out)]
    ) == EXIT_CONFIG
    assert not out.exists()


# --- exit codes and provenance -----------------------------------------------------

def test_exit_code_unknown_key(tmp_path):
    cfg = _write_config(tmp_path, BASE_SEQUENCE + "\nbogus_key = 1\n")
    assert main(["predict", "--config", cfg]) == EXIT_CONFIG


def test_exit_code_missing_config():
    assert main(["predict", "--config", "/nonexistent/run.ini"]) == EXIT_CONFIG


def test_exit_code_two_noise_sources(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = white
        sigma_wh = 0.01
        preset = g1-1ghz
        """,
    )
    assert main(["predict", "--config", cfg]) == EXIT_CONFIG


def test_exit_code_two_timing_keys(tmp_path):
    cfg = _write_config(
        tmp_path,
        """
        [sequence]
        kind = xy8
        n_r = 1
        f_xy8_khz = 458
        tau_ns = 500
        """,
    )
    assert main(["predict", "--config", cfg]) == EXIT_CONFIG


def test_exit_code_bad_sweep_axis(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [sweep]
        axis = warp_factor
        values = 1, 2
        """,
    )
    assert main(["predict", "--config", cfg]) == EXIT_CONFIG


def test_exit_code_numeric_failure(tmp_path):
    rng = np.random.default_rng(8)
    data = tmp_path / "garbage.csv"
    data.write_text(
        "v_test,v_nv\n"
        + "\n".join(f"{float(x)!r},{float(y)!r}" for x, y in zip(np.linspace(0, 1, 25),
                                                   rng.uniform(0.0, 1.0, 25)))
        + "\n"
    )
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    assert main(["calibrate", "--config", cfg, "--data", str(data)]) == EXIT_NUMERIC


def test_exit_code_negative_sigma(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = white
        sigma_wh = -0.01
        """,
    )
    assert main(["montecarlo", "--config", cfg, "--n-realizations", "200"]) == EXIT_CONFIG


def test_exit_code_nan_sigma_writes_no_table(tmp_path):
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + """
        [noise]
        source = white
        sigma_wh = nan

        [pipeline]
        duration_s = 1
        """,
    )
    out = tmp_path / "nan.csv"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize(
    "body",
    [
        "[noise]\nsource = flat\nl_dbc = 4000\n",
        "[noise]\nsource = preset\npreset = g1-2.5ghz\nf_cutoff_hz = inf\n",
    ],
    ids=["overflowing-spectrum", "infinite-cutoff"],
)
def test_exit_code_numeric_probes(tmp_path, body):
    cfg = _write_config(tmp_path, BASE_SEQUENCE + body)
    out = tmp_path / "predict.csv"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    assert not out.exists()


@pytest.mark.parametrize(
    "body, extra",
    [
        ("[sweep]\naxis = n_r\nvalues = 1, abc\n", []),
        ("[sweep]\naxis = n_r\nvalues = 1.5, 2\n", []),
        ("[run]\nworkers = 0\n", []),
        ("", ["--workers", "0"]),
        ("[readout]\ncontrast = 1.5\nn_photons = 0.05\n", []),
    ],
    ids=["sweep-value", "sweep-non-integer", "workers-ini", "workers-flag", "contrast"],
)
def test_exit_code_config_probes(tmp_path, body, extra):
    cfg = _write_config(tmp_path, BASE_SEQUENCE + body)
    out = tmp_path / "predict.csv"
    assert main(["predict", "--config", cfg, "--out", str(out), *extra]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [("t_dead_us", "nan"), ("t_dead_us", "inf"), ("f_xy8_khz", "nan"), ("t_pi_ns", "nan")],
)
def test_exit_code_non_finite_timing(tmp_path, key, value):
    body = "\n".join(
        f"{key} = {value}" if line.startswith(f"{key} =") else line
        for line in BASE_SEQUENCE.splitlines()
    )
    cfg = _write_config(tmp_path, body + "\n[noise]\nsource = preset\npreset = g1-2.5ghz\n")
    out = tmp_path / "predict.csv"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "montecarlo", "pipeline"])
@pytest.mark.parametrize(
    "noise",
    [
        "source = white\nsigma_wh = nan",
        "source = white\nsigma_wh = -0.01",
        "source = random-walk\nsigma_rw = 0.01\nr_samp_hz = inf",
        "source = preset\npreset = g1-2.5ghz\nshift_db = nan",
        "source = preset\npreset = g1-2.5ghz\ncarrier_ghz = nan",
        "source = flat\nl_dbc = nan",
    ],
    ids=["nan-sigma-wh", "negative-sigma-wh", "inf-r-samp", "nan-shift", "nan-carrier", "nan-flat"],
)
def test_exit_code_noise_probes(tmp_path, command, noise):
    # A noise parameter the noise classes reject is a configuration error
    # for every command, whether or not it samples the process.
    cfg = _write_config(
        tmp_path, BASE_SEQUENCE + "[noise]\n" + noise + "\n[pipeline]\nduration_s = 1\n"
    )
    out = tmp_path / "table.csv"
    extra = ["--n-realizations", "100"] if command == "montecarlo" else []
    assert main([command, "--config", cfg, "--out", str(out), *extra]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "montecarlo", "pipeline"])
@pytest.mark.parametrize(
    "readout",
    ["shot_sigma = -1", "shot_sigma = nan", "contrast = 1.5\nn_photons = 0.05"],
    ids=["negative-shot-sigma", "nan-shot-sigma", "contrast"],
)
def test_exit_code_readout_probes(tmp_path, command, readout):
    # Every command that reads the config rejects a bad [readout], including
    # montecarlo, whose table does not use it.
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + "[noise]\nsource = white\nsigma_wh = 0.005\n[pipeline]\nduration_s = 1\n"
        + "[readout]\n"
        + readout
        + "\n",
    )
    out = tmp_path / "table.csv"
    extra = ["--n-realizations", "100"] if command == "montecarlo" else []
    assert main([command, "--config", cfg, "--out", str(out), *extra]) == EXIT_CONFIG
    assert not out.exists()


def test_provenance_headers(tmp_path):
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out = tmp_path / "prov.csv"
    assert main(["predict", "--config", cfg, "--out", str(out), "--seed", "77"]) == EXIT_OK
    meta, _, _ = _read_table(out)
    assert any(line.startswith("# mwnoise=") for line in meta)
    assert "# command=predict" in meta
    assert "# sequence.f_xy8_khz=458.0" in meta
    assert "# run.seed=77" in meta


def test_cli_import_loads_no_scipy():
    # scipy is imported lazily by the one command that fits (calibrate), so
    # every other command starts without paying for it.
    probe = (
        "import sys, mwnoise.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
