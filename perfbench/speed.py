"""Machine-speed probe: a fixed numpy and Python kernel, timed between jobs.

The benchmark runs on a few vCPUs of a shared host whose speed drifts as
other tenants load it: within minutes every job and the set-up time of a
run speed up or slow down together, by as much as 1.6x, and a run of tens
of seconds cannot average that out.  The orchestrator, which never imports
the package under test, times this kernel right before and right after each
job while the worker waits, and reports timings in reference seconds: wall
seconds times ``NOMINAL_S`` over the mean probe time around them.  Drift
common to the kernel and the job cancels; a change in the job's own cost
does not, because the kernel shares no code or data with the package.  Only
its fresh mapping can feel what a job left behind in the machine's free
memory (see "Known limit" in README.md).

The kernel mixes the kinds of work the jobs do: Philox normal draws, a
real FFT and its inverse, first touches of freshly mapped memory, and an
interpreted Python loop.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.01  # probe time that defines one reference second
REPS = 5  # repetitions per probe; the probe is their median

_rng = np.random.Generator(np.random.Philox(0x5EED))
_buf = np.empty(1 << 16)


def _once() -> float:
    start = time.perf_counter()
    _rng.standard_normal(out=_buf)
    spectrum = np.fft.rfft(_buf)
    np.fft.irfft(spectrum * spectrum.conj(), n=_buf.size)
    fresh = np.ones(1 << 22)  # 32 MiB: above malloc's mmap threshold, so
    del fresh  # it is mapped, touched and unmapped on every pass
    total = 0
    for i in range(30000):
        total += i * i
    return time.perf_counter() - start


def probe() -> float:
    """Median seconds of one kernel pass over ``REPS`` passes."""
    return statistics.median(_once() for _ in range(REPS))
