"""Seeded inputs and fixed job lists of the three benchmark workloads.

Every INI file, the spectrum CSV and the calibration CSVs are generated from
the benchmark seed; the program sees only these files.  The seed changes
values (noise levels, spectrum knots, calibration slope, RNG seed of the run)
but never a size that sets the cost of a job: pulse counts, realizations,
stream durations and grid sizes are constants, so runs on different seeds
measure the same amount of work.

Pure standard library, so generating inputs loads neither numpy nor the
package under test.  Floats are written with ``repr(float(x))``.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

# Sequence timing shared by every job: the paper's XY8 at 458 kHz with
# 48 ns pi pulses and 15 us of readout dead time.
F_XY8_KHZ = 458.0
T_DEAD_US = 15.0
F_CUTOFF_HZ = 1e8
GAMMA_NV = 28.03e9  # Hz/T, the package's NV gyromagnetic ratio

PREDICT_NR = (1, 2, 4, 8, 16, 32, 64)


def _f(x: float) -> str:
    return repr(float(x))


def _ini(sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            lines.append(f"{key} = {_f(value) if isinstance(value, float) else value}")
        lines.append("")
    return "\n".join(lines)


def _sequence(n_r: int, t_pi_ns: float) -> dict[str, object]:
    return {"kind": "xy8", "n_r": n_r, "f_xy8_khz": F_XY8_KHZ,
            "t_pi_ns": t_pi_ns, "t_dead_us": T_DEAD_US}


def _tau_tot(n_r: int) -> float:
    """Interrogation time of XY8-n_r at F_XY8_KHZ: 8 n_r / (2 f)."""
    return 8 * n_r / (2.0 * F_XY8_KHZ * 1e3)


def _f_samp(n_r: int) -> float:
    return 1.0 / (_tau_tot(n_r) + T_DEAD_US * 1e-6)


class _Writer:
    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def __call__(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text)
        return str(path)


def _job(name, command, cfg, workdir, extra=(), check=None, items=0):
    out = str(workdir / f"{name}.csv")
    return {
        "name": name,
        "argv": [command, "--config", cfg, "--out", out, *extra],
        "out": out,
        "check": check,
        "items": items,
    }


def budget_jobs(seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"budget:{seed}")
    write = _Writer(workdir)
    sweep = {"axis": "n_r", "values": ", ".join(str(n) for n in PREDICT_NR)}
    run = {"seed": seed, "workers": 1}
    t_pi = rng.uniform(40.0, 56.0)
    jobs = []

    for preset in ("g1-2.5ghz", "g2-2.1ghz"):
        noise = {"source": "preset", "preset": preset, "shift_db": rng.uniform(-3.0, 3.0)}
        cfg = write(f"predict-{preset}.ini", _ini(
            {"sequence": _sequence(1, t_pi), "noise": noise, "sweep": sweep, "run": run}))
        jobs.append(_job(f"predict-{preset}", "predict", cfg, workdir,
                         check={"type": "predict_finite"}, items=len(PREDICT_NR)))

    # A synthesizer-like curve with seeded knots, so load_spectrum runs.
    offsets = [10.0 ** (1 + 0.5 * k) for k in range(15)]  # 10 Hz .. 100 MHz
    level = rng.uniform(-78.0, -68.0)
    rows = []
    for k, f_off in enumerate(offsets):
        rows.append(f"{_f(f_off)},{_f(level)}")
        level -= rng.uniform(6.0, 8.0) if k < 6 else rng.uniform(0.5, 3.0)
    spec = write("spectrum.csv", "\n".join(
        [f"# carrier_hz={_f(rng.uniform(2.0e9, 3.0e9))}", "offset_hz,l_dbc_per_hz", *rows]) + "\n")
    cfg = write("predict-file.ini", _ini(
        {"sequence": _sequence(1, t_pi), "noise": {"source": "file", "file": spec},
         "sweep": sweep, "run": run}))
    jobs.append(_job("predict-file", "predict", cfg, workdir,
                     check={"type": "predict_finite"}, items=len(PREDICT_NR)))

    l_dbc = rng.uniform(-152.0, -148.0)
    cfg = write("predict-flat.ini", _ini(
        {"sequence": _sequence(1, t_pi), "noise": {"source": "flat", "l_dbc": l_dbc},
         "sweep": sweep, "run": run}))
    jobs.append(_job("predict-flat", "predict", cfg, workdir,
                     check={"type": "predict_flat", "l_dbc": l_dbc, "f_cutoff": F_CUTOFF_HZ,
                            "n_r": list(PREDICT_NR)},
                     items=len(PREDICT_NR)))

    t_pi_ff = rng.uniform(40.0, 56.0)
    cfg = write("filter-fn.ini", _ini({"sequence": _sequence(8, t_pi_ff), "run": run}))
    jobs.append(_job("filter-fn-xy8-8", "filter-fn", cfg, workdir,
                     extra=["--n-points", "20000", "--f-max", "1e7"],
                     check={"type": "filter_fn", "n_r": 8, "t_pi_ns": t_pi_ff,
                            "f_xy8_khz": F_XY8_KHZ, "t_dead_us": T_DEAD_US}))

    for i in range(3):
        jobs.append(_calibrate_job(i, rng, write, workdir, run))
    return jobs


def _calibrate_job(i, rng, write, workdir, run):
    """Rectified-sine response v_max |sin(a kappa v)| with 0.5 % noise."""
    n_r = (1, 4, 8)[i]
    kappa = 10.0 ** rng.uniform(-7.0, -5.0)
    v_max = rng.uniform(0.4, 1.2)
    arg_scale = 4.0 * math.sqrt(2.0) * GAMMA_NV * _tau_tot(n_r)
    v_quarter = 0.5 * math.pi / (arg_scale * kappa)
    rows = ["v_test,v_nv"]
    for k in range(25):
        v = 2.4 * v_quarter * k / 24
        clean = v_max * abs(math.sin(arg_scale * kappa * v))
        rows.append(f"{_f(v)},{_f(abs(clean * (1.0 + 0.005 * rng.gauss(0.0, 1.0))))}")
    data = write(f"cal-{i}.csv", "\n".join(rows) + "\n")
    cfg = write(f"cal-{i}.ini", _ini({"sequence": _sequence(n_r, 48.0), "run": run}))
    return _job(f"calibrate-{i}", "calibrate", cfg, workdir, extra=["--data", data],
                check={"type": "calibrate", "kappa": kappa})


def montecarlo_jobs(seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"montecarlo:{seed}")
    write = _Writer(workdir)
    run = {"seed": seed, "workers": 1}
    jobs = []
    for n_r, n_real in ((1, 2000), (8, 250)):
        cfg = write(f"mc-psd-{n_r}.ini", _ini(
            {"sequence": _sequence(n_r, rng.uniform(40.0, 56.0)),
             "noise": {"source": "preset", "preset": "g1-2.5ghz"}, "run": run}))
        jobs.append(_job(f"mc-psd-xy8-{n_r}", "montecarlo", cfg, workdir,
                         extra=["--n-realizations", str(n_real)],
                         check={"type": "montecarlo"}, items=n_real))

    sigma_wh = rng.uniform(2e-3, 2e-2)
    cfg = write("mc-white.ini", _ini(
        {"sequence": _sequence(8, 48.0), "noise": {"source": "white", "sigma_wh": sigma_wh},
         "run": run}))
    jobs.append(_job("mc-white-xy8-8", "montecarlo", cfg, workdir,
                     extra=["--n-realizations", "100000"],
                     check={"type": "montecarlo",
                            "analytic": sigma_wh * math.sqrt(4 * 8 * 8 + 1)}))

    sigma_rw, r_samp = rng.uniform(1e-3, 5e-3), rng.uniform(2e4, 1e5)
    cfg = write("mc-rw.ini", _ini(
        {"sequence": _sequence(64, 48.0),
         "noise": {"source": "random-walk", "sigma_rw": sigma_rw, "r_samp_hz": r_samp},
         "run": run}))
    jobs.append(_job("mc-rw-xy8-64", "montecarlo", cfg, workdir,
                     extra=["--n-realizations", "20000"],
                     check={"type": "montecarlo",
                            "analytic": sigma_rw * math.sqrt(r_samp * _tau_tot(64))}))
    return jobs


def stream_jobs(seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"stream:{seed}")
    write = _Writer(workdir)
    run = {"seed": seed, "workers": 1}
    jobs = []

    def pipeline(name, n_r, noise, duration, pipe=None, check=None, shot=None):
        shot = rng.uniform(1e-3, 2e-3) if shot is None else shot
        cfg = write(f"{name}.ini", _ini(
            {"sequence": _sequence(n_r, 48.0), "noise": noise,
             "readout": {"shot_sigma": shot},
             "pipeline": {"duration_s": duration, **(pipe or {})}, "run": run}))
        check = dict(check or {}, shot_sigma=shot, n_r=n_r, t_pi_ns=48.0,
                     f_xy8_khz=F_XY8_KHZ, t_dead_us=T_DEAD_US)
        jobs.append(_job(name, "pipeline", cfg, workdir, check=check,
                         items=round(duration * _f_samp(n_r))))

    sigma_rw, r_samp = rng.uniform(1e-3, 3e-3), rng.uniform(3e4, 1e5)
    pipeline("pipe-rw-xy8-8", 8,
             {"source": "random-walk", "sigma_rw": sigma_rw, "r_samp_hz": r_samp}, 100.0,
             check={"type": "pipeline_floor",
                    "sigma_src": sigma_rw * math.sqrt(r_samp * _tau_tot(8))})

    sigma_wh = rng.uniform(2e-3, 6e-3)
    pipeline("pipe-white-xy8-1", 1, {"source": "white", "sigma_wh": sigma_wh}, 60.0,
             check={"type": "pipeline_floor", "sigma_src": sigma_wh * math.sqrt(4 * 8 + 1)})

    pipeline("pipe-preset-xy8-16", 16, {"source": "preset", "preset": "g1-2.5ghz"}, 60.0,
             pipe={"f_test_khz": 457.9, "test_field_pt": rng.uniform(150.0, 250.0)},
             check={"type": "pipeline_floor", "preset": "g1-2.5ghz", "f_cutoff": F_CUTOFF_HZ})

    sigma_wh = rng.uniform(5e-3, 1e-2)
    pipeline("pipe-grad-white-xy8-8", 8, {"source": "white", "sigma_wh": sigma_wh}, 60.0,
             pipe={"gradiometer": "true", "gradient_pt": rng.uniform(50.0, 100.0)},
             check={"type": "gradiometer", "min_suppression": 5.0},
             shot=rng.uniform(2e-4, 5e-4))
    return jobs


JOBS = {"budget": budget_jobs, "montecarlo": montecarlo_jobs, "stream": stream_jobs}
WORKLOADS = tuple(JOBS)
