"""Shared physical constants, scalar aliases, the range rule of scalar
arguments, config-unit helpers, CSV I/O and the heap setting of the block
walks.

Everything internal to the package is SI: seconds, hertz, tesla, radians.
Display units (pT*s^1/2, kHz, us, ns) only appear at the CLI boundary: the
helpers below read config values into SI.  Every phase-to-field conversion
uses the one NV gyromagnetic ratio ``GAMMA_NV``.
"""

from __future__ import annotations

import functools
import math
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Semantic aliases for plain floats.  They carry no runtime cost; they make
# signatures self-describing.
FrequencyHz = float
TimeSeconds = float
Radians = float
Tesla = float
SensitivityTeslaSqrtS = float
DbcPerHz = float

# NV gyromagnetic ratio, Hz/T.
GAMMA_NV: float = 28.03e9
# Zero-field splitting of the ground-state spin triplet, Hz.
ZERO_FIELD_SPLITTING_D: float = 2.87e9


# --- range checks ------------------------------------------------------------
# The one rule for a scalar argument's range, in the interval notation of the
# config schema: "(0, inf)", "[0, inf)", "(0, 1]".

def _in_range(value: float, interval: str) -> bool:
    """Whether ``value`` lies in an interval written like "[0, inf)"; NaN never does."""
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    above = lo < value or (interval[0] == "[" and value == lo)
    below = value < hi or (interval[-1] == "]" and value == hi)
    return above and below


def _check_range(interval: str, /, **values: float) -> None:
    """Raise ValueError naming the first of ``values`` outside ``interval``."""
    for name, value in values.items():
        if not _in_range(value, interval):
            raise ValueError(f"{name} must be a finite number in {interval}, got {value!r}")


def _check_count(interval: str, /, **values: float) -> None:
    """:func:`_check_range` for counts, which must also be whole numbers."""
    _check_range(interval, **values)
    for name, value in values.items():
        if int(value) != value:
            raise ValueError(f"{name} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class Constants:
    """The NV constants as one validated record.

    ``DEFAULT_CONSTANTS`` holds the values the package computes with,
    ``GAMMA_NV`` and ``ZERO_FIELD_SPLITTING_D``; no function takes another
    instance.
    """

    gamma_nv: float = GAMMA_NV
    zero_field_splitting_d: float = ZERO_FIELD_SPLITTING_D

    def __post_init__(self) -> None:
        _check_range(
            "(0, inf)", gamma_nv=self.gamma_nv, zero_field_splitting_d=self.zero_field_splitting_d
        )


DEFAULT_CONSTANTS = Constants()


# --- unit conversions ------------------------------------------------------
# Config files give display units; each helper names the one direction the
# CLI needs, into SI.

def khz_to_hz(value_khz: float) -> FrequencyHz:
    return value_khz * 1e3


def us_to_s(value_us: float) -> TimeSeconds:
    return value_us * 1e-6


def ns_to_s(value_ns: float) -> TimeSeconds:
    return value_ns * 1e-9


# --- CSV files -------------------------------------------------------------
# One layout for every data file the package reads or writes: '# key=value'
# metadata comments, at most one column-header line, then numeric rows.

def write_csv(path: Path, metadata: dict, header: str, rows) -> None:
    lines = [f"# {key}={value}" for key, value in metadata.items()]
    lines.append(header)
    lines.extend(rows)
    path.write_text("\n".join(lines) + "\n")


def read_csv(path: Path, expected_columns: int) -> tuple[dict, np.ndarray]:
    """(metadata, rows) of a numeric CSV file.

    Blank lines are skipped and '#' lines are comments; a '# key=value'
    comment sets metadata[key].  One non-numeric line before the first data
    row is the column header.  Any other line must hold
    ``expected_columns`` finite numbers, or ValueError names it.  The file
    is read as UTF-8, and a leading byte-order mark is skipped.
    """
    metadata: dict[str, str] = {}
    rows: list[list[float]] = []
    header_seen = False
    for number, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                key, value = body.split("=", 1)
                metadata[key.strip()] = value.strip()
            continue
        try:
            row = [float(p) for p in line.split(",")]
        except ValueError:
            if rows or header_seen:
                raise ValueError(f"{path}, line {number}: not a numeric row: {line!r}") from None
            header_seen = True
            continue
        if len(row) != expected_columns:
            raise ValueError(
                f"{path}, line {number}: expected {expected_columns} columns, got {line!r}"
            )
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{path}, line {number}: not a finite row: {line!r}")
        rows.append(row)
    return metadata, np.asarray(rows, dtype=float)


# --- heap ------------------------------------------------------------------
# The lattice and stream walks allocate and free arrays of hundreds of
# kilobytes to a few megabytes on every call.

@functools.cache
def _keep_freed_heap() -> None:
    """Keep the block walks' freed arrays on the heap (glibc only).

    glibc maps an allocation above its mmap threshold (128 KiB until raised)
    on its own and unmaps it when it is freed, and hands freed heap above its
    trim threshold back to the kernel, so every call would page-fault its
    arrays anew.  Freeing one mapped array raises both thresholds for the
    process: the mmap threshold to the array's size and the trim threshold
    to twice that.  Freeing one 4 MiB array here sets them to 4 MiB and
    8 MiB, so each arena keeps up to 8 MiB of freed heap resident between
    calls.  Setting either threshold by hand (``MALLOC_MMAP_THRESHOLD_``,
    ``MALLOC_TRIM_THRESHOLD_``) would switch that adaptation off.  Cached:
    calls after the first cost nothing.  Elsewhere than glibc it does
    nothing.
    """
    if platform.libc_ver()[0] == "glibc":
        np.empty(1 << 22, dtype=np.uint8)
