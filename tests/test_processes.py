"""Checks that need a process of their own: each command's peak RSS at a
scale where its arrays, held whole, would take far more than its bound, and
byte-identical outputs on a single CPU."""

import json
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from mwnoise.cli import EXIT_OK, main


def _sequence(n_r):
    return (f"[sequence]\nkind = xy8\nn_r = {n_r}\nt_pi_ns = 48\nt_dead_us = 15\n"
            "f_xy8_khz = 458\n")


_PRESET = "[noise]\nsource = preset\npreset = g1-2.5ghz\n"
_STREAM = _PRESET + "[readout]\nshot_sigma = 0.002\n[pipeline]\n"


def _write(path, text):
    path.write_text(text)
    return str(path)


def _cal_data(path):
    """2 000 points of the base sequence's response v_max |sin(a kappa v)|,
    a = 4 sqrt(2) gamma tau_tot, with 1 % noise."""
    a, kappa = 4 * math.sqrt(2) * 28.03e9 * 8 / (2 * 458e3), 3e-6
    rng = random.Random(2000)
    lines = ["v_test,v_nv"]
    for i in range(2000):
        v = 2.4 * 0.5 * math.pi / (a * kappa) * i / 1999
        v_nv = 0.83 * abs(math.sin(a * kappa * v)) * (1 + 0.01 * rng.gauss(0, 1))
        lines.append(f"{v!r},{abs(v_nv)!r}")
    return _write(path, "\n".join(lines) + "\n")


# --- peak RSS ----------------------------------------------------------------------

# Each probe runs one command in a fresh interpreter, which prints its own
# VmHWM, the peak of its resident set, in MiB.  Not the child's ru_maxrss
# as os.wait4 reports it: a forked child starts from its parent's peak, and
# this parent is the test runner.
_PEAK_SCRIPT = """
import sys
from mwnoise.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    hwm_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(hwm_kib / 1024)
sys.exit(code)
"""

# name: (command, config, extra arguments, peak RSS bound in MiB)
PEAK_RSS_PROBES = {
    # The white and random-walk Monte Carlo reduces each block of draws to
    # phi_tot before drawing the next: at 200 000 realizations of XY8-64 a
    # realization-by-pulse matrix would take 820 MB.
    "mc": ("montecarlo",
           _sequence(64) + "[noise]\nsource = random-walk\nsigma_rw = 0.002\nr_samp_hz = 50000\n",
           ["--n-realizations", "200000"], 150),
    # The readout stream is synthesized and transformed one block of chunks
    # at a time, in buffers the walk allocates once: a 600 s XY8-1 stream
    # holds 25.3 M samples, 202 MB per array if held whole.
    "stream": ("pipeline", _sequence(1) + _STREAM + "duration_s = 600\n", [], 100),
    # The two points of a sweep run one after another, each walking its own
    # 600 s XY8-1 stream, so a sweep's memory is one point's walk.
    "sweep": ("pipeline",
              _sequence(1) + "[noise]\nsource = white\nsigma_wh = 0.004\n[readout]\n"
              "shot_sigma = 0.002\n[pipeline]\nduration_s = 600\n[sweep]\naxis = sigma_wh\n"
              "values = 0.002, 0.004\n",
              [], 100),
    # A 300 s XY8-8 gradiometer: 3.5 M samples in each of three channels.
    "gradiometer": ("pipeline",
                    _sequence(8) + "[noise]\nsource = white\nsigma_wh = 0.008\n[readout]\n"
                    "shot_sigma = 0.0004\n[pipeline]\nduration_s = 300\ngradiometer = true\n"
                    "gradient_pt = 70\n",
                    [], 100),
    # A PSD source's comb transfer is one rfft of the synthesis track, 1.79 M
    # samples at XY8-512, rounded up to a length with no prime factor above
    # 11; at the unrounded length (largest prime factor 12 251) the rfft alone
    # took this run to 313 MB.
    "comb": ("pipeline", _sequence(512) + _STREAM + "duration_s = 30\n", [], 100),
    # The filter-function quadrature walks its lattice a block at a time:
    # 14.3 M points at XY8-512, 114 MB per array if held whole.
    "predict": ("predict", _sequence(512) + _PRESET, [], 100),
    # At XY8-2048 one period of the filter function holds 1.05 M lattice
    # points; the walk's r and h tables span it, but the period sums build
    # their five tables a quarter block at a time (40 MB if held whole).
    "predict-2048": ("predict", _sequence(2048) + _PRESET, [], 100),
    # A predict sweep over n_r = 1 .. 64 keeps up to 8 MiB of the lattice
    # walk's freed blocks resident between points; the bound covers that.
    "predict-sweep": ("predict",
                      _sequence(1) + _PRESET + "[sweep]\naxis = n_r\nvalues = "
                      + ", ".join(map(str, range(1, 65))) + "\n",
                      [], 100),
    # The calibration fit builds its kappa-by-point arrays in blocks: a fit of
    # a 2 000-point file.
    "cal": ("calibrate", _sequence(1), ["--data", "cal-data.csv"], 100),
}


@pytest.fixture(scope="module")
def probe_runs(tmp_path_factory, child_env):
    """Each probe's finished child, by name.  Two children run at a time,
    which shortens the suite on a host of two or more CPUs and holds at most
    two probes' memory at once."""
    work = tmp_path_factory.mktemp("probes")
    _cal_data(work / "cal-data.csv")

    def run(probe):
        command, config, extra, _ = PEAK_RSS_PROBES[probe]
        cfg = _write(work / f"{probe}.ini", config)
        argv = [command, "--config", cfg, "--out", str(work / f"{probe}.csv"), *extra]
        return subprocess.run(
            [sys.executable, "-c", _PEAK_SCRIPT, *argv],
            cwd=work, env=child_env, capture_output=True, text=True,
        )

    with ThreadPoolExecutor(2) as pool:
        return dict(zip(PEAK_RSS_PROBES, pool.map(run, PEAK_RSS_PROBES)))


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("probe", list(PEAK_RSS_PROBES))
def test_peak_rss_bounded(probe_runs, probe):
    done = probe_runs[probe]
    assert done.returncode == EXIT_OK, done.stderr
    peak_mib, bound_mib = float(done.stdout.split()[-1]), PEAK_RSS_PROBES[probe][3]
    print(f"{probe}: peak RSS {peak_mib:.1f} MiB (bound {bound_mib} MiB)")
    assert peak_mib <= bound_mib


# --- one CPU -----------------------------------------------------------------------

# The child pins itself to one CPU before numpy or mwnoise is imported, so
# every lane pool and BLAS sees one CPU, as under `taskset -c 0`.
_ONE_CPU_SCRIPT = """
import json, os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from mwnoise import spin_simulator
from mwnoise.cli import main
assert spin_simulator._usable_cpus() == 1
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"failed: {argv}")
"""

_GRADIOMETER = "gradiometer = true\ngradient_pt = 70\n"

# name: (command, config, extra arguments).  Each Monte Carlo draws its
# chunks on lanes, and each pipeline draws, builds and transforms its
# stream blocks on lanes; every chunk keeps its own key and every spectrum
# sum its stream order, so the outputs must not depend on the lane count.
ONE_CPU_RUNS = {
    # PSD XY8-8: 400 realizations in 23 chunks.
    "montecarlo-8": ("montecarlo", _sequence(8) + _PRESET, ["--n-realizations", "400"]),
    # PSD XY8-64: 250 realizations in 125 chunks of two.
    "montecarlo-64": ("montecarlo", _sequence(64) + _PRESET, ["--n-realizations", "250"]),
    # White XY8-8: 100 000 realizations in 13 chunks of its 65 pulse samples.
    "white-8": ("montecarlo", _sequence(8) + "[noise]\nsource = white\nsigma_wh = 0.01\n",
                ["--n-realizations", "100000"]),
    # Random walk XY8-64: 20 000 realizations in 20 chunks of 513 pulse
    # samples, the shape of the benchmark's mc-rw-xy8-64 job.
    "walk-64": ("montecarlo",
                _sequence(64) + "[noise]\nsource = random-walk\nsigma_rw = 0.002\n"
                "r_samp_hz = 50000\n",
                ["--n-realizations", "20000"]),
    # XY8-1 chunks of n = 42 134 are transformed as packed complex rows.
    "pipeline": ("pipeline", _sequence(1) + _STREAM + "duration_s = 5\n", []),
    # n = 42 000 has no prime factor above 7, so its chunks go through
    # np.fft.rfft.
    "pipeline-smooth": ("pipeline",
                        _sequence(1) + _STREAM + "duration_s = 5\ninterval_s = 0.99681\n", []),
    # Two stream blocks of XY8-8, n = 11 783, in three channels.
    "gradiometer": ("pipeline", _sequence(8) + _STREAM + "duration_s = 60\n" + _GRADIOMETER, []),
    # Its last block holds 18 chunks per channel, which two lanes split
    # inside channel 2: each odd-length chunk keeps its packing partner.
    "gradiometer-63": ("pipeline", _sequence(8) + _STREAM + "duration_s = 63\n" + _GRADIOMETER,
                       []),
    "predict-sweep": ("predict",
                      _sequence(1) + _PRESET + "[sweep]\naxis = n_r\n"
                      "values = 1, 2, 4, 8, 16, 32, 64\n",
                      []),
}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_outputs_byte_identical_on_one_cpu(tmp_path, child_env):
    # The child runs every config on one CPU while this process runs them on
    # the CPUs it may use; each table and --spectrum-out file must match.
    runs = {"one-cpu": [], "all-cpus": []}
    for name, (command, config, extra) in ONE_CPU_RUNS.items():
        cfg = _write(tmp_path / f"{name}.ini", config)
        for side, argvs in runs.items():
            argv = [command, "--config", cfg, "--out", str(tmp_path / f"{name}-{side}.csv"), *extra]
            if command == "pipeline":
                argv += ["--spectrum-out", str(tmp_path / f"{name}-{side}-spectrum.csv")]
            argvs.append(argv)
    with open(tmp_path / "child.err", "w") as err:
        child = subprocess.Popen(
            [sys.executable, "-c", _ONE_CPU_SCRIPT, json.dumps(runs["one-cpu"])],
            env=child_env, stderr=err,
        )
    try:
        for argv in runs["all-cpus"]:
            assert main(argv) == EXIT_OK, argv
        child.wait()
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 0, (tmp_path / "child.err").read_text()
    files = sorted(tmp_path.glob("*-all-cpus*.csv"))
    assert len(files) == sum(arg.endswith("-out") for argv in runs["all-cpus"] for arg in argv)
    for path in files:
        twin = path.with_name(path.name.replace("all-cpus", "one-cpu"))
        assert path.read_bytes() == twin.read_bytes(), path.name
    smooth = (tmp_path / "pipeline-smooth-all-cpus-spectrum.csv").read_text().splitlines()
    assert sum(line[:1].isdigit() for line in smooth) == 21001
