"""Command-line interface: exit codes, tables, sweeps, determinism."""

import concurrent.futures
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mwnoise as mw
from mwnoise import cli, signal_pipeline, spin_simulator
from mwnoise.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from mwnoise.core import read_csv
from mwnoise.noise_models import _psd_track_layout, _track_chunks

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


COMMANDS = ["filter-fn", "predict", "montecarlo", "pipeline", "calibrate"]


def _calibration_csv(tmp_path, kappa=3e-6, v_max=0.83):
    """A v_test,v_nv file of the base sequence's response with 1 % noise."""
    arg_scale = 4.0 * math.sqrt(2.0) * mw.GAMMA_NV * _seq_from_base().tau_tot
    v_quarter = (0.5 * math.pi) / (arg_scale * kappa)
    v_test = np.linspace(0.0, 2.4 * v_quarter, 25)
    v_nv = v_max * np.abs(np.sin(arg_scale * kappa * v_test))
    v_nv *= 1.0 + 0.01 * np.random.default_rng(6).standard_normal(v_test.size)
    data = tmp_path / "cal.csv"
    data.write_text(
        "v_test,v_nv\n"
        + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(v_test, v_nv))
        + "\n"
    )
    return data


def _argv(tmp_path, command, cfg, out, *extra):
    """Arguments of ``command`` on ``cfg``; calibrate also gets a valid data file."""
    argv = [command, "--config", cfg, "--out", str(out), *extra]
    if command == "calibrate":
        argv += ["--data", str(_calibration_csv(tmp_path))]
    return argv


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


@pytest.mark.parametrize("flag", ["--f-max", "--f-min"])
def test_exit_code_filter_fn_infinite_bound(tmp_path, flag):
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out = tmp_path / "ff.csv"
    assert main(["filter-fn", "--config", cfg, "--out", str(out), flag, "inf"]) == EXIT_CONFIG
    assert not out.exists()


# --- predict --------------------------------------------------------------------

def test_predict_matches_library(tmp_path):
    seq = _seq_from_base()
    spec = mw.preset_spectrum("g1-2.5ghz")
    # The default cutoff, then one set in the config: the filter and Johnson
    # columns both integrate up to it.
    for f_cutoff, line in ((1e8, ""), (1e7, "f_cutoff_hz = 1e7")):
        cfg = _write_config(
            tmp_path,
            BASE_SEQUENCE
            + f"""
            [noise]
            source = preset
            preset = g1-2.5ghz
            {line}
            """,
        )
        out = tmp_path / "predict.csv"
        assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, columns, rows = _read_table(out)
        row = dict(zip(columns, rows[0]))
        assert row["tau_tot_s"] == pytest.approx(seq.tau_tot, rel=1e-9)
        assert row["f_center_hz"] == pytest.approx(458e3, rel=1e-9)
        sigma = mw.sigma_phi_filter(spec, seq, f_cutoff, finite_pulse_correction=True)
        assert row["sigma_phi_rad"] == pytest.approx(sigma, rel=1e-9)
        # abs=0: both floors sit below approx's default absolute tolerance.
        eta_filter = mw.eta_phi(sigma, seq)
        assert row["eta_filter_t_sqrts"] == pytest.approx(eta_filter, rel=1e-9, abs=0)
        assert row["eta_johnson_t_sqrts"] == pytest.approx(
            mw.eta_johnson_pulsed(-177.0, seq.n_pi, seq.tau_tot, f_cutoff), rel=1e-9, abs=0
        )
        # No white/random-walk/shot parameters were configured.
        assert math.isnan(row["eta_white_t_sqrts"])
        assert math.isnan(row["eta_rw_t_sqrts"])
        assert math.isnan(row["eta_shot_t_sqrts"])


def test_predict_shot_from_bare_shot_sigma(tmp_path):
    # An explicit per-sequence shot sigma gives the shot floor of any
    # readout model with that sigma.
    model = mw.ReadoutModel(0.013, 1.23e9, 1.5e-6, 4e-6)
    sigma = model.overhead_factor / (model.contrast * math.sqrt(model.n_photons))
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + f"[noise]\nsource = white\nsigma_wh = 0.005\n[readout]\nshot_sigma = {sigma!r}\n",
    )
    out = tmp_path / "predict.csv"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, columns, rows = _read_table(out)
    eta_shot = rows[0][columns.index("eta_shot_t_sqrts")]
    assert eta_shot == pytest.approx(mw.eta_shot_noise(model, _seq_from_base()), rel=1e-10, abs=0)


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
            # XY8-8 draws 400 realizations in three chunks: on several threads
            # in this process, on one in each pool worker.
            "montecarlo",
            "[noise]\nsource = preset\npreset = g1-2.5ghz\n"
            "[sweep]\naxis = n_r\nvalues = 1, 8\n",
            ["--n-realizations", "400"],
        ),
        (
            "pipeline",
            "[noise]\nsource = white\nsigma_wh = 0.005\n[readout]\nshot_sigma = 0.002\n"
            "[pipeline]\nduration_s = 1\n[sweep]\naxis = sigma_wh\nvalues = 0.001, 0.01\n",
            [],
        ),
    ],
    ids=["filter-fn", "predict", "montecarlo", "montecarlo-psd-chunks", "pipeline"],
)
def test_predict_workers_give_identical_bytes(tmp_path, monkeypatch, command, body, extra):
    # Two usable CPUs, whatever this host has, so --workers 2 runs a pool.
    monkeypatch.setattr(spin_simulator, "_usable_cpus", lambda: 2)
    cfg = _write_config(tmp_path, BASE_SEQUENCE + body)
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    for out, workers in ((serial, "1"), (parallel, "2")):
        assert main(
            [command, "--config", cfg, "--out", str(out), "--workers", workers, *extra]
        ) == EXIT_OK
    serial_rows = [l for l in serial.read_text().splitlines() if not l.startswith("#")]
    parallel_rows = [l for l in parallel.read_text().splitlines() if not l.startswith("#")]
    assert serial_rows == parallel_rows


def test_sweep_pool_has_at_most_one_worker_per_point(tmp_path, monkeypatch):
    # With the fork start method a pool starts all its workers at once, so
    # --workers above the point count or the usable CPUs must not ask for
    # more, and a cap of one runs the points on this thread.  A stand-in
    # pool records the request and maps in this process: no process starts.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            sizes.append(max_workers)
            assert initializer is spin_simulator._one_lane

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # The CLI imports the pool class from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = _write_config(tmp_path, BASE_SEQUENCE + "[sweep]\naxis = n_r\nvalues = 1, 2, 4\n")
    out = tmp_path / "ff.csv"
    for cpus, pools in ((64, [3]), (2, [2]), (1, [])):
        sizes.clear()
        monkeypatch.setattr(spin_simulator, "_usable_cpus", lambda cpus=cpus: cpus)
        argv = ["filter-fn", "--config", cfg, "--out", str(out), "--workers", "64"]
        assert main(argv) == EXIT_OK
        assert sizes == pools, cpus


def _lane_cap_point(cfg, args):
    return ["lane_cap"], [[spin_simulator._LANE_CAP]], None


def test_sweep_pool_workers_draw_on_one_lane(tmp_path, monkeypatch):
    # Each pool process draws a PSD Monte Carlo on one thread, so processes
    # and threads do not multiply; this process keeps its own cap.  Two
    # usable CPUs, whatever this host has, so the points go to a pool.
    monkeypatch.setattr(spin_simulator, "_usable_cpus", lambda: 2)
    cap = spin_simulator._LANE_CAP
    cfg = _write_config(
        tmp_path, BASE_SEQUENCE + "[run]\nworkers = 2\n[sweep]\naxis = n_r\nvalues = 1, 2\n"
    )
    point_fn = functools.partial(_lane_cap_point, args=None)
    columns, rows, _ = cli._run_sweep(cli.load_config(cfg), point_fn)
    assert columns == ["n_r", "lane_cap"]
    assert rows == [[1.0, 1], [2.0, 1]]
    assert cap > 1
    assert spin_simulator._LANE_CAP == cap


def _dying_point(cfg, args):
    os._exit(1)


def test_sweep_worker_that_dies_is_config_error(tmp_path, monkeypatch):
    # A worker process that ends abruptly, as an out-of-memory kill ends it,
    # breaks the pool: the run exits 2 with a one-line message and writes no
    # table.  The workers fork, so they run the patched point function.  Two
    # usable CPUs, whatever this host has, so the points go to a pool.
    monkeypatch.setattr(spin_simulator, "_usable_cpus", lambda: 2)
    monkeypatch.setitem(cli._POINTS, "predict", _dying_point)
    cfg = _write_config(
        tmp_path, BASE_SEQUENCE + "[run]\nworkers = 2\n[sweep]\naxis = n_r\nvalues = 1, 2\n"
    )
    out = tmp_path / "predict.csv"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


SWEEP_LANE_BODIES = {
    "predict": "[noise]\nsource = preset\npreset = g1-2.5ghz\n[sweep]\naxis = n_r\n"
    "values = 1, 2, 4\n",
    # The XY8-1 point draws 400 realizations in three chunks, the XY8-8
    # point in 23 (test_single_point_montecarlo_keeps_its_chunk_lanes).
    "montecarlo": "[noise]\nsource = preset\npreset = g1-2.5ghz\n[sweep]\naxis = n_r\n"
    "values = 1, 8\n",
    "pipeline": "[noise]\nsource = white\nsigma_wh = 0.005\n[readout]\nshot_sigma = 0.002\n"
    "[pipeline]\nduration_s = 1\n[sweep]\naxis = sigma_wh\nvalues = 0.001, 0.01\n",
    "filter-fn": "[sweep]\naxis = n_r\nvalues = 1, 2, 4\n",
}


def _psd_chunks(n_r, n_realizations):
    """Number of chunks a PSD Monte Carlo of the base sequence at ``n_r``
    draws ``n_realizations`` in."""
    seq = mw.make_xy8(n_r, 458e3, 48e-9, 15e-6)
    times = np.concatenate(([0.0], seq.pulse_times(), [seq.tau_tot]))
    duration, dt, _ = _psd_track_layout(times, 1e8)
    return len(list(_track_chunks(int(round(duration / dt)), n_realizations)))


# The pools a sweep asks for on ``cap`` > 1 lanes.  Every point runs in turn
# on this thread, so only a point that opens lanes of its own asks for a
# pool: each montecarlo point's chunks, and each pipeline point's two
# streams, noise on and off.  predict and filter-fn points open none.
SWEEP_LANE_POOLS = {
    "predict": lambda cap: [],
    "montecarlo": lambda cap: [min(cap, _psd_chunks(n_r, 400)) for n_r in (1, 8)],
    "pipeline": lambda cap: [2, 2],
    "filter-fn": lambda cap: [],
}


@pytest.mark.parametrize("command", list(SWEEP_LANE_BODIES))
def test_sweep_bytes_independent_of_lanes(tmp_path, monkeypatch, force_lanes, command):
    # With workers = 1 the table and the last point's spectrum are the same
    # bytes on one, two and four lanes, and the same rows as a process
    # pool's, on two usable CPUs whatever this host has.
    cfg = _write_config(tmp_path, BASE_SEQUENCE + SWEEP_LANE_BODIES[command])
    # Rows per table: one per point, and filter-fn's 16 grid rows per point.
    points = {"predict": 3, "filter-fn": 3 * 16}.get(command, 2)

    def run(name, *extra):
        out, spectrum = tmp_path / f"{name}.csv", tmp_path / f"{name}-spectrum.csv"
        argv = [command, "--config", cfg, "--out", str(out), *extra]
        if command == "montecarlo":
            argv += ["--n-realizations", "400"]
        if command == "pipeline":
            argv += ["--spectrum-out", str(spectrum)]
        if command == "filter-fn":
            argv += ["--n-points", "16"]
        assert main(argv) == EXIT_OK
        return out.read_bytes(), spectrum.read_bytes() if command == "pipeline" else None

    monkeypatch.setattr(spin_simulator, "_usable_cpus", lambda: 2)
    pooled_table, pooled_spectrum = run("pooled", "--workers", "2")
    runs = []
    for cap in (1, 2, 4):
        sizes = force_lanes(cap)
        runs.append(run(f"lanes-{cap}"))
        assert sizes == (SWEEP_LANE_POOLS[command](cap) if cap > 1 else [])
    assert runs[0] == runs[1] == runs[2]
    table, spectrum = runs[0]

    def rows(text):
        return [line for line in text.splitlines() if not line.startswith(b"#")]

    assert len(rows(table)) == points + 1
    assert rows(table) == rows(pooled_table)
    assert spectrum == pooled_spectrum


def test_single_point_montecarlo_keeps_its_chunk_lanes(tmp_path, force_lanes):
    # A run without a sweep is one point on this thread: its Monte Carlo
    # still draws its 23 chunks on a pool of its own.
    assert _psd_chunks(8, 400) == 23
    sizes = force_lanes(4)
    cfg = _write_config(
        tmp_path, BASE_SEQUENCE.replace("n_r = 1", "n_r = 8")
        + "[noise]\nsource = preset\npreset = g1-2.5ghz\n",
    )
    out = tmp_path / "mc.csv"
    argv = ["montecarlo", "--config", cfg, "--out", str(out), "--n-realizations", "400"]
    assert main(argv) == EXIT_OK
    assert sizes == [4]


def _failing_point(calls, cfg, args):
    n_r = cfg["sequence"]["n_r"]
    calls.append(n_r)
    if n_r == 2:
        raise cli.ConfigError(f"point n_r = {n_r} failed")
    if n_r == 8:
        raise ArithmeticError(f"point n_r = {n_r} failed")
    return ["value"], [[float(n_r)]], None


@pytest.mark.parametrize("cap", [1, 2, 4])
def test_sweep_failure_names_the_first_failing_point(
    tmp_path, force_lanes, monkeypatch, capsys, cap
):
    # The points run in turn whatever the lane count, so the sweep stops at
    # n_r = 2 with a config error and never reaches the failing n_r = 8:
    # exit 2, that point's message, and no table.
    calls = []
    monkeypatch.setitem(cli._POINTS, "predict", functools.partial(_failing_point, calls))
    force_lanes(cap)
    cfg = _write_config(tmp_path, BASE_SEQUENCE + "[sweep]\naxis = n_r\nvalues = 1, 2, 4, 8\n")
    out = tmp_path / "predict.csv"
    capsys.readouterr()
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "mwnoise: config error: point n_r = 2 failed\n"
    assert not out.exists()
    assert calls == [1, 2]


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
        mw.eta_phi(row["sigma_phi_rad"], seq), rel=1e-9, abs=0
    )


_MEMORY_PROBE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from mwnoise.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_cli_import_leaves_out_the_process_pool(child_env):
    # Only a sweep with [run] workers > 1 starts a process pool, so importing
    # the CLI does not import concurrent.futures.process.
    probe = (
        "import sys, mwnoise.cli; "
        "print('concurrent.futures.process' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize(
    "noise",
    ["source = white\nsigma_wh = 0.01", "source = preset\npreset = g1-2.5ghz"],
    ids=["white", "psd"],
)
def test_montecarlo_too_large_for_memory_is_config_error(tmp_path, child_env, noise):
    # 10^14 realizations need 728 TiB for phi_tot alone.  The run is a
    # configuration error that writes nothing, and it fails on that
    # allocation, before any list of chunks is built.  The child's address
    # space is capped at 1 GiB, so a regression cannot exhaust the host.
    cfg = _write_config(tmp_path, BASE_SEQUENCE.replace("n_r = 1", "n_r = 8")
                        + "[noise]\n" + noise)
    out = tmp_path / "mc.csv"
    env = dict(child_env, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE, "montecarlo", "--config", cfg,
         "--out", str(out), "--n-realizations", str(10**14)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert "too large for memory" in done.stderr
    assert not out.exists()


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
        math.sqrt(max(floor_on**2 - floor_off**2, 0.0)), rel=1e-9, abs=0
    )

    seq = _seq_from_base()
    stream_on = mw.synthesize_stream(
        seq, mw.WhiteNoise(0.005, seed=5), 0.0, 0.0, 0.002, 20.0, seed=5
    )
    want_on, _ = mw.estimate_noise_floor(mw.amplitude_spectrum(stream_on, 1.0))
    assert floor_on == pytest.approx(want_on, rel=1e-9, abs=0)

    meta, saved = read_csv(spectrum_out, 2)
    assert float(meta["f_samp_hz"]) == pytest.approx(seq.f_samp, rel=1e-9)
    assert saved.shape[0] > 1000


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
    assert read_csv(swept, 2)[1].shape[0] > 1000
    assert swept.read_bytes() == single.read_bytes()


PIPELINE_BYTES_BODIES = {
    "on-off": "[noise]\nsource = white\nsigma_wh = 0.004\n[readout]\nshot_sigma = 0.002\n"
    "[pipeline]\nduration_s = 7\nf_test_khz = 457.9\ntest_field_pt = 90\n",
    "gradiometer": "[noise]\nsource = white\nsigma_wh = 0.008\n[readout]\nshot_sigma = 0.0004\n"
    "[pipeline]\nduration_s = 7\ngradiometer = true\ngradient_pt = 70\nuniform_pt = 30\n"
    "f_uniform_khz = 3\n",
}


@pytest.mark.parametrize(
    "body", list(PIPELINE_BYTES_BODIES.values()), ids=list(PIPELINE_BYTES_BODIES)
)
def test_pipeline_bytes_independent_of_block_size(tmp_path, monkeypatch, body):
    # 7 chunks of n = 42 134 and 2 samples more, walked by default blocks,
    # one chunk per block and three chunks per block.
    cfg = _write_config(tmp_path, BASE_SEQUENCE + body)
    outputs = []
    for block in (signal_pipeline._BLOCK_SAMPLES, 1000, 3 * 42134):
        monkeypatch.setattr(signal_pipeline, "_BLOCK_SAMPLES", block)
        table, spectrum = tmp_path / f"t{block}.csv", tmp_path / f"s{block}.csv"
        assert main(
            ["pipeline", "--config", cfg, "--out", str(table), "--spectrum-out", str(spectrum)]
        ) == EXIT_OK
        outputs.append((table.read_bytes(), spectrum.read_bytes()))
    assert "# n_chunks=7" in outputs[0][1].decode()
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize(
    "n_r, body",
    [
        (
            1,
            "[noise]\nsource = white\nsigma_wh = 0.004\n[readout]\nshot_sigma = 0.004\n"
            "[pipeline]\nduration_s = 600\n",
        ),
        (
            8,
            "[noise]\nsource = white\nsigma_wh = 0.008\n[readout]\nshot_sigma = 0.0004\n"
            "[pipeline]\nduration_s = 600\ngradiometer = true\ngradient_pt = 70\n",
        ),
    ],
    ids=["on-off-xy8-1", "gradiometer-xy8-8"],
)
def test_pipeline_bounded_memory_at_600_s(tmp_path, n_r, body):
    # Whole-stream arrays peaked at about 770 MB (on/off, 25 M sequences)
    # and 540 MB (gradiometer, 7 M sequences) here; a block of chunks takes
    # a few MB per stream.
    cfg = _write_config(tmp_path, BASE_SEQUENCE.replace("n_r = 1", f"n_r = {n_r}") + body)
    tracemalloc.start()
    try:
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == EXIT_OK
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 64.0


# --- calibrate ------------------------------------------------------------------

def test_calibrate_round_trip(tmp_path):
    kappa_true, v_max_true = 3e-6, 0.83
    data = _calibration_csv(tmp_path, kappa_true, v_max_true)
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out = tmp_path / "fit.csv"
    assert main(
        ["calibrate", "--config", cfg, "--data", str(data), "--out", str(out)]
    ) == EXIT_OK
    meta, columns, rows = _read_table(out)
    assert columns == ["v_max", "kappa_t_per_v", "residual_rms"]
    row = dict(zip(columns, rows[0]))
    assert row["kappa_t_per_v"] == pytest.approx(kappa_true, rel=0.01, abs=0)
    assert row["v_max"] == pytest.approx(v_max_true, rel=0.01)
    assert any(line.startswith("# n_points=25") for line in meta)


@pytest.mark.parametrize(
    "bad_row",
    ["0.1,abc", "0.1", "0.1,0.2,0.3", "0.1,nan", "inf,0.2"],
    ids=["non-numeric", "one-column", "three-columns", "nan-cell", "inf-cell"],
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


@pytest.mark.parametrize("values", ["48, nan", "48, 40"], ids=["nan", "finite"])
def test_calibrate_sweep_is_config_error(tmp_path, values):
    # calibrate fits one sequence, so a [sweep] would be neither checked nor
    # used: it is rejected, and no table is written.
    cfg = _write_config(tmp_path, BASE_SEQUENCE + f"[sweep]\naxis = t_pi_ns\nvalues = {values}\n")
    out = tmp_path / "fit.csv"
    assert main(_argv(tmp_path, "calibrate", cfg, out)) == EXIT_CONFIG
    assert not out.exists()


def test_calibrate_data_directory_is_config_error(tmp_path):
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out = tmp_path / "fit.csv"
    assert main(
        ["calibrate", "--config", cfg, "--data", str(tmp_path), "--out", str(out)]
    ) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize(
    "rows",
    [
        [(0.0, 0.0), (0.01, 0.1), (0.02, 0.2)],
        [(0.01 * k, math.sin(0.2 * k)) for k in range(25)],
        [(0.0, abs(math.sin(0.1 * k))) for k in range(25)],
    ],
    ids=["three-rows", "negative-v-nv", "all-v-test-zero"],
)
def test_calibrate_unfittable_data_is_config_error(tmp_path, rows):
    # Well-formed rows that the fit rejects as input are a configuration
    # error, not a numeric failure.
    data = tmp_path / "cal.csv"
    data.write_text("v_test,v_nv\n" + "\n".join(f"{a!r},{b!r}" for a, b in rows) + "\n")
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


def test_exit_code_missing_section_header(tmp_path):
    cfg = _write_config(tmp_path, "kind = xy8\n" + BASE_SEQUENCE)
    out = tmp_path / "predict.csv"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


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
    ["[noise]\nsource = flat\nl_dbc = 4000\n"],
    ids=["overflowing-spectrum"],
)
def test_exit_code_numeric_probes(tmp_path, body):
    cfg = _write_config(tmp_path, BASE_SEQUENCE + body)
    out = tmp_path / "predict.csv"
    assert main(["predict", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_exit_code_overflowing_monte_carlo_writes_no_table(tmp_path):
    # sigma_wh = 1e200 is in range, but its variance overflows: the Monte
    # Carlo std is inf, which eta_phi rejects, so no row of inf is written.
    cfg = _write_config(tmp_path, BASE_SEQUENCE + "[noise]\nsource = white\nsigma_wh = 1e200\n")
    out = tmp_path / "mc.csv"
    argv = ["montecarlo", "--config", cfg, "--n-realizations", "200", "--out", str(out)]
    assert main(argv) == EXIT_NUMERIC
    assert not out.exists()


@pytest.mark.parametrize(
    "body, extra",
    [
        ("[sweep]\naxis = n_r\nvalues = 1, abc\n", []),
        ("[sweep]\naxis = n_r\nvalues = 1.5, 2\n", []),
        ("[run]\nworkers = 0\n", []),
        ("", ["--workers", "0"]),
        ("[readout]\ncontrast = 1.5\nn_photons = 0.05\n", []),
        ("[noise]\nsource = preset\npreset = g1-2.5ghz\nf_cutoff_hz = inf\n", []),
        ("[pipeline]\nduration_s = 1\nduration_s = 2\n", []),
    ],
    ids=[
        "sweep-value", "sweep-non-integer", "workers-ini", "workers-flag", "contrast",
        "infinite-cutoff", "duplicate-option",
    ],
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


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "noise",
    [
        "source = bogus",
        "source = white\nsigma_wh = nan",
        "source = white\nsigma_wh = -0.01",
        "source = random-walk\nsigma_rw = 0.01\nr_samp_hz = inf",
        "source = preset\npreset = g1-2.5ghz\nshift_db = nan",
        "source = preset\npreset = g1-2.5ghz\ncarrier_ghz = nan",
        "source = flat\nl_dbc = nan",
        "source = preset\npreset = g1-2.5ghz\nf_cutoff_hz = nan",
        "source = preset\npreset = g1-2.5ghz\nf_cutoff_hz = 0",
        "source = file\nfile = .",
        "source = white\nsigma_wh = 0.005\nl_johnson_dbc = nan",
        "source = white\nsigma_wh = 0.005\nl_johnson_dbc = inf",
        "source = white\nsigma_wh = 0.005\ncarrier_ghz = nan\nshift_db = 30",
        "source = white\nsigma_wh = 0.005\nshift_db = 30",
        "source = random-walk\nsigma_rw = 0.01\nr_samp_hz = 50000\ncarrier_ghz = 2.5",
        "source = none\nshift_db = 3",
    ],
    ids=[
        "unknown-source", "nan-sigma-wh", "negative-sigma-wh", "inf-r-samp", "nan-shift",
        "nan-carrier", "nan-flat", "nan-cutoff", "zero-cutoff", "file-is-directory",
        "nan-johnson", "inf-johnson", "white-nan-carrier", "white-shift", "random-walk-carrier",
        "none-shift",
    ],
)
def test_exit_code_noise_probes(tmp_path, command, noise):
    # A noise parameter the noise classes or the config reader reject is a
    # configuration error for every command, whether or not it uses the
    # noise source.
    cfg = _write_config(
        tmp_path, BASE_SEQUENCE + "[noise]\n" + noise + "\n[pipeline]\nduration_s = 1\n"
    )
    out = tmp_path / "table.csv"
    extra = ["--n-realizations", "100"] if command == "montecarlo" else []
    assert main(_argv(tmp_path, command, cfg, out, *extra)) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "readout",
    [
        "shot_sigma = -1",
        "shot_sigma = nan",
        "contrast = 1.5\nn_photons = 0.05",
        "contrast = 1.5\nn_photons = 1e4",
        "contrast = 0.03\nn_photons = 1e5\nt_read_us = nan",
        "contrast = 0.03\nn_photons = 1e5\nt_norm_us = inf",
        "contrast = 0.03\nn_photons = inf",
        "contrast = 0.03\nn_photons = nan",
        "shot_sigma = 0.004\nt_read_us = nan",
        "shot_sigma = 0.004\nt_norm_us = -1",
        "t_read_us = 0",
        "t_norm_us = inf",
    ],
    ids=[
        "negative-shot-sigma", "nan-shot-sigma", "contrast", "contrast-above-one",
        "nan-t-read", "inf-t-norm", "inf-photons", "nan-photons", "shot-sigma-nan-t-read",
        "shot-sigma-negative-t-norm", "no-readout-zero-t-read", "no-readout-inf-t-norm",
    ],
)
def test_exit_code_readout_probes(tmp_path, command, readout):
    # Every command rejects a bad [readout], including those whose table
    # does not use it, and checks the readout times under every readout
    # mode: a bare shot_sigma or no readout at all.
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
    assert main(_argv(tmp_path, command, cfg, out, *extra)) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "section, body, code",
    [
        ("run", "n_realizations = 200", EXIT_OK),
        ("pipeline", "duration_s = -1", EXIT_CONFIG),
        ("run", "n_realizations = 0", EXIT_CONFIG),
        ("pipeline", "duration_s = 1\ntest_field_pt = 500", EXIT_CONFIG),
        ("pipeline", "duration_s = 1\ntest_field_pt = 500\nf_test_khz = 0", EXIT_OK),
    ],
    ids=[
        "valid", "negative-duration", "zero-realizations", "test-field-without-f-test",
        "test-field-at-0-hz",
    ],
)
def test_exit_code_every_section_under_every_command(tmp_path, command, section, body, code):
    # Each command checks [pipeline] and [run] too, whether or not it uses
    # them, and a valid config runs under all five.  A test field without
    # f_test_khz would be a tone at 0 Hz, a DC offset that the floor's DC
    # cut hides; an explicit f_test_khz = 0 is taken as given.
    sections = {
        "noise": "source = white\nsigma_wh = 0.005",
        "readout": "shot_sigma = 0.002",
        "pipeline": "duration_s = 1",
        "run": "n_realizations = 200",
        section: body,
    }
    cfg = _write_config(
        tmp_path, BASE_SEQUENCE + "".join(f"[{k}]\n{v}\n" for k, v in sections.items())
    )
    out = tmp_path / "table.csv"
    assert main(_argv(tmp_path, command, cfg, out)) == code
    assert out.exists() == (code == EXIT_OK)


@pytest.mark.parametrize(
    "pipeline",
    [
        "duration_s = 0",
        "duration_s = -5",
        "duration_s = nan",
        "duration_s = inf",
        "interval_s = 0",
        "interval_s = nan",
        "interval_s = inf",
        "test_field_pt = nan",
        "test_field_pt = inf",
        "f_test_khz = -1",
        "f_test_khz = nan",
        "gradiometer = true\nuniform_pt = nan",
        "gradiometer = true\ngradient_pt = nan",
        "gradiometer = true\nf_uniform_khz = -3",
        "gradiometer = true\nf_gradient_khz = inf",
        "[sweep]\naxis = test_field_pt\nvalues = 1, nan",
        "test_field_pt = 500",
    ],
    ids=[
        "zero-duration", "negative-duration", "nan-duration", "inf-duration", "zero-interval",
        "nan-interval", "inf-interval", "nan-test-field", "inf-test-field", "negative-f-test",
        "nan-f-test", "nan-uniform", "nan-gradient", "negative-f-uniform", "inf-f-gradient",
        "swept-nan-test-field", "test-field-without-f-test",
    ],
)
def test_exit_code_pipeline_probes(tmp_path, pipeline):
    # A pipeline parameter that is out of range or not finite is a
    # configuration error, swept values included, and writes no table.
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + "[noise]\nsource = white\nsigma_wh = 0.005\n[readout]\nshot_sigma = 0.002\n"
        + "[pipeline]\n"
        + ("" if pipeline.startswith("duration_s") else "duration_s = 1\n")
        + pipeline
        + "\n",
    )
    out = tmp_path / "table.csv"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "pipeline",
    ["duration_s = 1e-6", "duration_s = 1\ninterval_s = 5", "interval_s = 1e-9"],
    ids=["under-10-sequences", "interval-over-duration", "interval-under-2-samples"],
)
def test_exit_code_stream_length(tmp_path, command, pipeline):
    # A stream the pipeline would reject is a configuration error under
    # every command, whether or not it synthesizes the stream.
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE + "[noise]\nsource = white\nsigma_wh = 0.005\n[pipeline]\n" + pipeline + "\n",
    )
    out = tmp_path / "table.csv"
    extra = ["--n-realizations", "100"] if command == "montecarlo" else []
    assert main(_argv(tmp_path, command, cfg, out, *extra)) == EXIT_CONFIG
    assert not out.exists()


def test_gradiometer_stream_needs_two_sequences(tmp_path):
    # The gradiometer path takes any stream of one whole interval of at
    # least 2 sequences, fewer than the 10 the on/off path needs.
    n_seq = 4
    seconds = n_seq / _seq_from_base().f_samp
    body = (
        BASE_SEQUENCE
        + "[noise]\nsource = white\nsigma_wh = 0.005\n[pipeline]\ngradiometer = true\n"
    )
    out = tmp_path / "table.csv"
    for duration, code in ((seconds, EXIT_OK), (seconds / n_seq, EXIT_CONFIG)):
        cfg = _write_config(
            tmp_path, body + f"duration_s = {duration!r}\ninterval_s = {duration!r}\n"
        )
        assert main(["pipeline", "--config", cfg, "--out", str(out)]) == code


@pytest.mark.parametrize("flag", ["--out", "--spectrum-out"])
def test_exit_code_missing_output_directory(tmp_path, flag):
    # A missing output directory is found before any point runs, so neither
    # file is written.
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + "[noise]\nsource = white\nsigma_wh = 0.005\n[pipeline]\nduration_s = 1\n",
    )
    paths = {"--out": tmp_path / "table.csv", "--spectrum-out": tmp_path / "asd.csv"}
    paths[flag] = tmp_path / "missing" / paths[flag].name
    argv = ["pipeline", "--config", cfg]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert main(argv) == EXIT_CONFIG
    assert list(tmp_path.iterdir()) == [Path(cfg)]


@pytest.mark.parametrize("flag", ["--out", "--spectrum-out"])
def test_exit_code_output_is_directory(tmp_path, flag):
    # An output path that names an existing directory is found before any
    # point runs, so neither file is written.
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + "[noise]\nsource = white\nsigma_wh = 0.005\n[pipeline]\nduration_s = 1\n",
    )
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"--out": tmp_path / "table.csv", "--spectrum-out": tmp_path / "asd.csv"}
    paths[flag] = folder
    argv = ["pipeline", "--config", cfg]
    for name, path in paths.items():
        argv += [name, str(path)]
    assert main(argv) == EXIT_CONFIG
    assert sorted(tmp_path.iterdir()) == sorted([Path(cfg), folder])
    assert list(folder.iterdir()) == []


@pytest.mark.parametrize(
    "out, spectrum_out",
    [("table.csv", "-"), ("-", "-"), ("table.csv", "table.csv"), ("table.csv", "sub/../table.csv")],
    ids=["dash", "dash-beside-stdout", "same-path", "same-resolved-path"],
)
def test_exit_code_spectrum_out_not_its_own_file(tmp_path, monkeypatch, capsys, out, spectrum_out):
    # "-" is stdout for --out only, and a --spectrum-out that resolves to the
    # --out path would overwrite the table: both are configuration errors,
    # found before any point runs, so no file (one named "-" included) and
    # no table on stdout is written.
    cfg = _write_config(
        tmp_path,
        BASE_SEQUENCE
        + "[noise]\nsource = white\nsigma_wh = 0.005\n[pipeline]\nduration_s = 1\n",
    )
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    argv = ["pipeline", "--config", cfg, "--out", out, "--spectrum-out", spectrum_out]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().out == ""
    assert sorted(tmp_path.iterdir()) == sorted([Path(cfg), tmp_path / "sub"])
    assert list((tmp_path / "sub").iterdir()) == []


_CPMG_TAU = BASE_SEQUENCE.replace("kind = xy8", "kind = cpmg").replace("n_r = 1", "n_r = 4")
_PRESET = "[noise]\nsource = preset\npreset = g1-2.5ghz\n"


def _cpmg_tau_row():
    seq = mw.PulseSequence(mw.SequenceKind.CPMG, 4, 2e-6, 48e-9, 15e-6)
    sigma = mw.sigma_phi_filter(mw.preset_spectrum("g1-2.5ghz"), seq, 1e8)
    return {"tau_tot_s": seq.tau_tot, "f_center_hz": seq.f_center, "sigma_phi_rad": sigma}


def _readout_model_row():
    model = mw.ReadoutModel(0.03, 1e5, 1.5e-6, 4e-6)
    return {"eta_shot_t_sqrts": mw.eta_shot_noise(model, _seq_from_base())}


@pytest.mark.parametrize(
    "command, body, want",
    [
        ("predict", _CPMG_TAU.replace("f_xy8_khz = 458", "tau_ns = 2000") + _PRESET, _cpmg_tau_row),
        ("predict", _CPMG_TAU.replace("f_xy8_khz = 458", "tau_tot_us = 20"), None),
        ("predict", BASE_SEQUENCE + "[noise]\nsource = white\n", None),
        ("predict", BASE_SEQUENCE + "[readout]\nshot_sigma = 0.004\ncontrast = 0.03\n", None),
        ("predict", BASE_SEQUENCE + "[readout]\nshot_sigma = 0.004\nn_photons = 1e5\n", None),
        ("predict", BASE_SEQUENCE + "[readout]\ncontrast = 0.03\n", None),
        ("pipeline", BASE_SEQUENCE + "[pipeline]\nduration_s = 1\ngradiometer = true\n", None),
        ("calibrate", BASE_SEQUENCE, None),
        ("predict", BASE_SEQUENCE + "[readout]\ncontrast = 0.03\nn_photons = 1e5\n",
         _readout_model_row),
    ],
    ids=[
        "cpmg-tau-ns", "cpmg-tau-tot", "white-without-sigma", "shot-sigma-and-contrast",
        "shot-sigma-and-photons", "contrast-without-photons", "gradiometer-without-source",
        "calibrate-header-only", "readout-model-shot-floor",
    ],
)
def test_config_rules(tmp_path, command, body, want):
    # Each rule of the config reader, run through main: the valid cases
    # equal the library on the sequence or readout they configure, and each
    # error case exits 2 and writes no table.
    cfg = _write_config(tmp_path, body)
    out = tmp_path / "table.csv"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "calibrate":
        data = tmp_path / "cal.csv"
        data.write_text("v_test,v_nv\n")
        argv += ["--data", str(data)]
    if want is None:
        assert main(argv) == EXIT_CONFIG
        assert not out.exists()
        return
    assert main(argv) == EXIT_OK
    _, columns, rows = _read_table(out)
    row = dict(zip(columns, rows[0]))
    for column, value in want().items():
        assert row[column] == pytest.approx(value, rel=1e-11, abs=0)


@pytest.mark.parametrize(
    "command, body",
    [
        ("predict", BASE_SEQUENCE + _PRESET + "[sweep]\naxis = n_r\nvalues = 1, 2, 8, 64\n"),
        ("pipeline", BASE_SEQUENCE + _PRESET
         + "[pipeline]\nduration_s = 2\nf_test_khz = 400\ntest_field_pt = 50\n"),
        ("pipeline", BASE_SEQUENCE.replace("n_r = 1", "n_r = 8") + _PRESET
         + "[pipeline]\nduration_s = 5\ngradiometer = true\ngradient_pt = 70\n"),
    ],
    ids=["predict-sweep", "pipeline", "gradiometer"],
)
def test_readout_model_is_its_shot_sigma(tmp_path, command, body):
    # [readout] contrast/n_photons configure one number, the model's
    # per-sequence shot sigma: the bare shot_sigma of that value gives the
    # same table body and spectrum, byte for byte.
    sigma = mw.ReadoutModel(0.03, 1e5, 1.5e-6, 4e-6).shot_sigma
    files = []
    for name, readout in (
        ("model", "contrast = 0.03\nn_photons = 1e5\n"),
        ("sigma", f"shot_sigma = {sigma!r}\n"),
    ):
        cfg = _write_config(tmp_path, body + "[readout]\n" + readout, name=f"{name}.ini")
        out, spectrum = tmp_path / f"{name}.csv", tmp_path / f"{name}-spectrum.csv"
        argv = [command, "--config", cfg, "--out", str(out)]
        if command == "pipeline":
            argv += ["--spectrum-out", str(spectrum)]
        assert main(argv) == EXIT_OK
        body_lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        files.append((body_lines, spectrum.read_bytes() if command == "pipeline" else None))
    assert files[0] == files[1]
    assert len(files[0][0]) == (5 if command == "predict" else 2)


_WHITE = "[noise]\nsource = white\nsigma_wh = 0.005\n[readout]\nshot_sigma = 0.002\n"

# (command, config body, extra arguments, table columns)
TABLE_COLUMNS = {
    "filter-fn": ("filter-fn", "", ["--n-points", "4"],
                  ["f_hz", "filter_value", "integral_rad_hz"]),
    "predict": ("predict", _PRESET, [],
                ["tau_tot_s", "f_center_hz", "sigma_phi_rad", "eta_filter_t_sqrts",
                 "eta_white_t_sqrts", "eta_rw_t_sqrts", "eta_shot_t_sqrts",
                 "eta_johnson_t_sqrts"]),
    "montecarlo": ("montecarlo", _WHITE, ["--n-realizations", "100"],
                   ["n_realizations", "sigma_phi_rad", "sigma_phi_stderr_rad",
                    "sigma_phi_analytic_rad", "eta_empirical_t_sqrts", "eta_analytic_t_sqrts"]),
    "pipeline": ("pipeline", _WHITE + "[pipeline]\nduration_s = 1\n", [],
                 ["floor_on_t_sqrts", "floor_off_t_sqrts", "excess_t_sqrts"]),
    "gradiometer": ("pipeline", _WHITE + "[pipeline]\nduration_s = 1\ngradiometer = true\n", [],
                    ["floor_ch1_t_sqrts", "floor_ch2_t_sqrts", "floor_diff_t_sqrts",
                     "suppression_ratio"]),
}


@pytest.mark.parametrize("sweep", [False, True], ids=["point", "n_r-sweep"])
@pytest.mark.parametrize("table", list(TABLE_COLUMNS))
def test_table_columns(tmp_path, table, sweep):
    # Each point names its table's columns; under a sweep the axis leads.
    command, body, extra, columns = TABLE_COLUMNS[table]
    if sweep:
        body += "[sweep]\naxis = n_r\nvalues = 1, 2\n"
        columns = ["n_r", *columns]
    cfg = _write_config(tmp_path, BASE_SEQUENCE + body)
    out = tmp_path / "table.csv"
    assert main([command, "--config", cfg, "--out", str(out), *extra]) == EXIT_OK
    body_lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert body_lines[0] == ",".join(columns)


def test_provenance_headers(tmp_path):
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    out = tmp_path / "prov.csv"
    assert main(["predict", "--config", cfg, "--out", str(out), "--seed", "77"]) == EXIT_OK
    meta, _, _ = _read_table(out)
    assert any(line.startswith("# mwnoise=") for line in meta)
    assert "# command=predict" in meta
    assert "# sequence.f_xy8_khz=458.0" in meta
    assert "# run.seed=77" in meta


# One run of each command: (config body after the base sequence, extra arguments).
COMMAND_RUNS = {
    "filter-fn": (_PRESET, []),
    "predict": (_PRESET, []),
    "montecarlo": (_PRESET, ["--n-realizations", "200"]),
    "pipeline": (_PRESET + "[readout]\nshot_sigma = 0.002\n[pipeline]\nduration_s = 5\n", []),
    "calibrate": ("", []),
}


def _command_argv(tmp_path, command, out):
    body, extra = COMMAND_RUNS[command]
    cfg = _write_config(tmp_path, BASE_SEQUENCE + body, name=f"{command}.ini")
    return _argv(tmp_path, command, cfg, out, *extra)


@pytest.mark.parametrize("command", COMMANDS)
def test_rerun_is_byte_identical(tmp_path, command):
    outs = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in outs:
        assert main(_command_argv(tmp_path, command, out)) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes()


_NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
from mwnoise.cli import main
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""


def test_every_command_runs_without_scipy(tmp_path, child_env):
    # The package depends on numpy alone: each command runs to exit 0 in a
    # process where scipy cannot be imported.
    outs = [tmp_path / f"{command}.csv" for command in COMMANDS]
    argvs = [_command_argv(tmp_path, c, out) for c, out in zip(COMMANDS, outs)]
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(argvs)],
        env=child_env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert all(out.exists() for out in outs)


def test_cli_import_loads_no_scipy(tmp_path, child_env):
    # The package depends on numpy alone: importing the CLI and running the
    # calibration fit, its one least-squares problem, load no scipy module.
    cfg = _write_config(tmp_path, BASE_SEQUENCE)
    argv = ["calibrate", "--config", cfg, "--data", str(_calibration_csv(tmp_path)),
            "--out", str(tmp_path / "fit.csv")]
    probe = (
        "import sys; from mwnoise.cli import main; "
        f"code = main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"{EXIT_OK} []"
