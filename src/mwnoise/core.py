"""Shared physical constants, scalar aliases, unit helpers and CSV file I/O.

Everything internal to the package is SI: seconds, hertz, tesla, radians,
watts.  Display units (pT*s^1/2, kHz, us) only appear at the CLI boundary
via the converters below.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Constants:
    """Physical constants used across the package.

    A frozen instance keeps the defaults in one place while still letting a
    caller carry modified values through explicitly (e.g. a different
    gyromagnetic ratio for another spin species).
    """

    gamma_nv: float = GAMMA_NV
    zero_field_splitting_d: float = ZERO_FIELD_SPLITTING_D

    def __post_init__(self) -> None:
        if self.gamma_nv <= 0:
            raise ValueError("gamma_nv must be positive")
        if self.zero_field_splitting_d <= 0:
            raise ValueError("zero_field_splitting_d must be positive")


DEFAULT_CONSTANTS = Constants()


def resonance_frequencies(
    b0: Tesla, constants: Constants = DEFAULT_CONSTANTS
) -> tuple[FrequencyHz, FrequencyHz]:
    """Spin-transition frequencies (f_minus, f_plus) at bias field ``b0``.

    f_pm = D +- gamma * b0.  Raises ValueError if the Zeeman shift exceeds D,
    which would put f_minus at or below zero.
    """
    if b0 < 0:
        raise ValueError("bias field must be nonnegative")
    zeeman = constants.gamma_nv * b0
    f_minus = constants.zero_field_splitting_d - zeeman
    f_plus = constants.zero_field_splitting_d + zeeman
    if f_minus <= 0:
        raise ValueError("bias field too large: lower transition at or below 0 Hz")
    return f_minus, f_plus


# --- unit conversions ------------------------------------------------------
# Kept as explicit named pairs rather than a generic factor table so that a
# caller reading "pt_to_tesla" never has to guess direction.

def pt_to_tesla(value_pt: float) -> Tesla:
    return value_pt * 1e-12


def tesla_to_pt(value_t: Tesla) -> float:
    return value_t * 1e12


def khz_to_hz(value_khz: float) -> FrequencyHz:
    return value_khz * 1e3


def hz_to_khz(value_hz: FrequencyHz) -> float:
    return value_hz * 1e-3


def us_to_s(value_us: float) -> TimeSeconds:
    return value_us * 1e-6


def s_to_us(value_s: TimeSeconds) -> float:
    return value_s * 1e6


def ns_to_s(value_ns: float) -> TimeSeconds:
    return value_ns * 1e-9


def s_to_ns(value_s: TimeSeconds) -> float:
    return value_s * 1e9


def dbm_to_watts(value_dbm: float) -> float:
    return 1e-3 * 10.0 ** (value_dbm / 10.0)


def watts_to_dbm(value_w: float) -> float:
    if value_w <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(value_w / 1e-3)


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
    ``expected_columns`` numbers, or ValueError names it.
    """
    metadata: dict[str, str] = {}
    rows: list[list[float]] = []
    header_seen = False
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
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
        rows.append(row)
    return metadata, np.asarray(rows, dtype=float)
