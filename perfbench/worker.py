"""One round of a workload, in a fresh process.

    python3 perfbench/worker.py [PLAN_JSON RESULT_JSON]

Imports ``mwnoise.cli`` first and prints ``ready`` on stdout: the
orchestrator times set-up from spawning this process to that line.  Without
arguments it stops there (set-up samples, warm-up).  Otherwise it runs the
plan's jobs in order, one ``mwnoise.cli.main`` call each, times every call,
checks each output untimed and writes the results, and the trace spans when
the plan asks for tracing, to RESULT_JSON once at the end.  Before each job
and after the last it prints ``pause`` and waits for a line on stdin, while
the orchestrator probes the machine's speed.
"""

import sys
import time


def pause() -> None:
    """Let the orchestrator probe machine speed while this process is idle."""
    sys.__stdout__.write("pause\n")
    sys.__stdout__.flush()
    if not sys.stdin.readline():  # the orchestrator is gone
        sys.exit(1)


def main(plan_path: str, result_path: str) -> None:
    import json
    import traceback

    import mwnoise.cli
    from checks import check

    sys.stdout = sys.stderr  # stdout carries only the ready and pause lines
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    results = []
    for index, job in enumerate(plan["jobs"]):
        pause()
        if tracer is not None:
            tracer.job, tracer.enabled = index, True
        start = time.perf_counter()
        try:
            code = mwnoise.cli.main(job["argv"])
        except Exception:  # a crash is a failed job, not a failed round
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        problem = f"exit code {code}" if code != 0 else check(job)
        if problem:
            print(f"perfbench: job {job['name']} failed: {problem}", file=sys.stderr)
        results.append({"name": job["name"], "seconds": seconds, "problem": problem})

    pause()
    with open(result_path, "w") as fh:
        json.dump({"jobs": results, "spans": tracer.spans if tracer else []}, fh)


if __name__ == "__main__":
    import mwnoise.cli  # noqa: F401  (set-up ends once this import is done)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if len(sys.argv) == 3:
        main(sys.argv[1], sys.argv[2])
