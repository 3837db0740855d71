"""mwnoise benchmark: three CLI workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload budget|montecarlo|stream|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs (INI files, a spectrum CSV,
calibration CSVs) are generated from ``--seed`` under ``.perfbench_work/``
and removed at the end.  Each round spawns one fresh worker process
(``PYTHONPATH=src``, one OpenBLAS thread) that runs the workload's fixed
job list, one ``mwnoise.cli.main`` call per job, and checks every output
untimed.  Rounds repeat for about ``--seconds`` seconds and the metrics are
medians over rounds.  Set-up time is also sampled in several import-only
processes.

Timings are in reference seconds (see ``speed.py``): before each job the
worker pauses while this process times a fixed kernel, and each wall time
is scaled by the kernel's nominal over its measured time around it, which
cancels the drift of the shared machine's speed from run to run.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced rounds alternate and
it carries the per-layer metrics.  A human-readable report goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed
from workloads import JOBS, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run, rounds and set-up samples included, ends by then
# One BLAS thread, below the usable CPU count: the jobs run with
# ``workers = 1`` and gain nothing from a second thread, but after each
# matrix product an idle OpenBLAS thread spins on the other CPU for a while,
# which on a 2-vCPU machine slowed the code that ran next up to twofold.
BLAS_THREADS = 1


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def _reap(proc: subprocess.Popen, deadline: float) -> tuple[int, float]:
    """Wait for the worker; (exit code, peak RSS in MB from wait4)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.perf_counter() > deadline:
            proc.kill()
            deadline = float("inf")
        time.sleep(0.005)


def spawn(args: list[str], env, root: Path,
          deadline: float) -> tuple[float | None, list[float], int, float]:
    """Run one worker process, probing machine speed whenever it pauses.

    The worker prints ``ready`` once it has imported the package, then
    ``pause`` before each job and after the last one, and waits for ``go``,
    so each probe runs while the worker is idle.  Returns (set-up seconds or
    None, probe seconds, exit code, peak RSS MB); the first probe is taken
    just before spawning, and one after the exit when the worker never paused.
    """
    probes = [speed.probe()]
    start = time.perf_counter()
    # Unbuffered pipes: a buffered reader could hold the next line where
    # select() does not see it, and wait for it until the deadline.
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=root, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
    setup_s = None
    try:
        while True:
            readable, _, _ = select.select([proc.stdout], [], [],
                                           max(0.0, deadline - time.perf_counter()))
            line = proc.stdout.readline().strip() if readable else b""
            if line == b"ready" and setup_s is None:
                setup_s = time.perf_counter() - start
            elif line == b"pause":
                probes.append(speed.probe())
                try:
                    proc.stdin.write(b"go\n")
                except BrokenPipeError:
                    break
            else:
                break
        code, rss_mb = _reap(proc, deadline)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        with contextlib.suppress(OSError):
            proc.stdin.close()
    if len(probes) == 1:
        probes.append(speed.probe())
    return setup_s, probes, code, rss_mb


def to_reference(seconds: float, before: float, after: float) -> float:
    """Wall seconds as reference seconds, by the mean of the probes around them."""
    return seconds * speed.NOMINAL_S / (0.5 * (before + after))


def run_round(plan: Path, env, root: Path, jobs: list[dict], traced: bool,
              deadline: float) -> dict:
    result_path = plan.with_suffix(".result.json")
    start = time.perf_counter()
    setup_s, probes, code, rss_mb = spawn([str(plan), str(result_path)], env, root, deadline)
    wall = time.perf_counter() - start
    try:
        data = json.loads(result_path.read_text())
        result_path.unlink()
    except (OSError, ValueError):
        data = None
    ok = (code == 0 and setup_s is not None and data is not None
          and len(probes) == len(data["jobs"]) + 2)
    if not ok:
        print(f"perfbench: round failed (exit code {code})", file=sys.stderr)
        data = {"jobs": [], "spans": []}
    for i, job in enumerate(data["jobs"]):  # probes[i + 1] was taken just before job i
        job["ref_s"] = to_reference(job["seconds"], probes[i + 1], probes[i + 2])
    return {"ok": ok, "traced": traced, "wall": wall, "rss_mb": rss_mb, "probes": probes,
            "setup_s": setup_s, "setup_ref_s": to_reference(setup_s, *probes[:2]) if ok else None,
            "jobs": data["jobs"], "spans": data["spans"], "attempted": len(jobs),
            "failed": sum(bool(j["problem"]) for j in data["jobs"]) if ok else len(jobs)}


def import_times(env, root: Path) -> tuple[float, float]:
    """(mwnoise, scipy.optimize) cumulative import seconds from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mwnoise.cli"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=60)
    package = scipy_opt = 0.0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        seconds, name = int(parts[1]) / 1e6, parts[2][1:]
        top_level = not name.startswith(" ")
        name = name.strip()
        if top_level and (name == "mwnoise" or name.startswith("mwnoise.")):
            package += seconds
        if name == "scipy.optimize" and not scipy_opt:
            scipy_opt = seconds
    return package, scipy_opt


def job_medians(rounds: list[dict], key: str = "ref_s") -> dict[str, float]:
    """Median seconds of each job over the rounds, which damps a job that one
    round ran while the machine was busy with other work."""
    names = [j["name"] for j in rounds[0]["jobs"]]
    return {n: statistics.median(j[key] for r in rounds for j in r["jobs"] if j["name"] == n)
            for n in names}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 spec: dict) -> dict:
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    workdir = root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    try:
        jobs = JOBS[workload](seed, workdir)
        env = worker_env(root)
        plans = {}
        for traced in (False, True):
            plans[traced] = workdir / f"plan-{int(traced)}.json"
            plans[traced].write_text(json.dumps({"trace": traced, "jobs": jobs}))

        spawn([], env, root, deadline)  # warm-up: the first import reads cold files
        samples = [spawn([], env, root, deadline) for _ in range(SETUP_SAMPLES)]
        rounds: list[dict] = []
        start = time.perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 1
            rounds.append(run_round(plans[traced], env, root, jobs, traced, deadline))
            elapsed = time.perf_counter() - start
            longest = max(r["wall"] for r in rounds)
            if (elapsed + longest > seconds and (not trace or len(rounds) >= 2)) \
                    or time.perf_counter() + longest > deadline:
                break
        imports = [import_times(env, root) for _ in range(IMPORTTIME_SAMPLES)] if trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:
            pass

    plain = [r for r in rounds if r["ok"] and not r["traced"]]
    traced_rounds = [r for r in rounds if r["ok"] and r["traced"]]
    if not plain or (trace and not traced_rounds) or any(x[0] is None for x in samples):
        raise RuntimeError(f"{workload}: no successful round to measure")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    median = statistics.median
    setup_s = median([to_reference(x[0], *x[1][:2]) for x in samples]
                     + [r["setup_ref_s"] for r in plain])
    seconds_of = job_medians(plain)
    total_s = setup_s + sum(seconds_of.values())
    wall_setup = median([x[0] for x in samples] + [r["setup_s"] for r in plain])
    wall_of = job_medians(plain, "seconds")
    wall_total = wall_setup + sum(wall_of.values())
    probe_s = median([q for x in samples for q in x[1]] + [q for r in rounds for q in r["probes"]])

    if trace:
        import tracer

        layers = [tracer.layer_metrics(r["spans"]) for r in traced_rounds]
        values = {m["name"]: median(layer.get(m["name"], 0.0) for layer in layers)
                  for m in spec["per_layer"]}
        values["trace.overhead_s"] = (sum(job_medians(traced_rounds, "seconds").values())
                                      - sum(wall_of.values()))
        values["wall.total_s"] = wall_total
        values["wall.probe_s"] = probe_s
        values["import.mwnoise_s"] = median(i[0] for i in imports)
        values["import.scipy_optimize_s"] = median(i[1] for i in imports)
        section = "per_layer"
    else:
        counted = [j for j in jobs if j["items"]]
        values = {
            "setup_s": setup_s,
            "total_s": total_s,
            "peak_rss_mb": median(r["rss_mb"] for r in plain),
            "items_per_s": (sum(j["items"] for j in counted)
                            / sum(seconds_of[j["name"]] for j in counted)),
            "ok_frac": 1.0 - failed / attempted,
        }
        section = "end_to_end"

    report = [f"== {workload} seed={seed} rounds={len(plain)} untraced + "
              f"{len(traced_rounds)} traced, {time.perf_counter() - begin:.1f} s; "
              f"nproc={os.cpu_count()} OPENBLAS_NUM_THREADS={BLAS_THREADS} "
              f"numpy={metadata.version('numpy')} scipy={metadata.version('scipy')}",
              f"   probe median {probe_s * 1e3:.3f} ms (nominal {speed.NOMINAL_S * 1e3:g} ms); "
              f"wall: set-up {wall_setup:.4f} s, total {wall_total:.4f} s"]
    for name, seconds in seconds_of.items():
        report.append(f"   job {name:<24} {seconds:9.4f} s  (wall {wall_of[name]:.4f} s)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]}
    for name, m in metrics.items():
        report.append(f"   {name:<56} {m['value']:.6g} {m['unit']}")
    print("\n".join(report), file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so that a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "mwnoise" / "cli.py").is_file():
        print("perfbench: no src/mwnoise here; run from the root of an mwnoise checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), root, spec)
        print(json.dumps(result))
        return 0
    results = {}
    for workload in WORKLOADS:
        results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                         root, spec)
        result = results[workload]
        for name, m in result["metrics"].items():
            print(f"{workload:<11} {name:<56} {m['value']:.6g} {m['unit']}")
        print(f"{workload:<11} {'failed_frac':<56} {result['failed'] / result['attempted']:.6g} "
              f"ratio ({result['failed']} of {result['attempted']} jobs)")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
