"""Unit helpers and validation utilities.

The library works in SI base units throughout:

* power   — watts (W)
* energy  — joules (J)
* time    — seconds (s)
* frequency — hertz (Hz); convenience constructors accept GHz
* bandwidth — bytes/second; convenience constructors accept GB/s

Keeping everything in floats of SI units (rather than wrapper classes)
follows the HPC guideline of staying NumPy-friendly: arrays of watts can
be manipulated with vectorized arithmetic without boxing.  The helpers
here exist to make call sites self-documenting and to centralize
validation.
"""

from __future__ import annotations

import math

__all__ = [
    "GHZ",
    "MHZ",
    "GB",
    "MB",
    "KB",
    "ghz",
    "mhz",
    "gbps",
    "watts",
    "joules",
    "seconds",
    "as_ghz",
    "as_gbps",
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "close",
]

GHZ = 1.0e9
MHZ = 1.0e6
GB = 1.0e9
MB = 1.0e6
KB = 1.0e3


def ghz(value: float) -> float:
    """Convert a frequency in GHz to Hz."""
    return float(value) * GHZ


def mhz(value: float) -> float:
    """Convert a frequency in MHz to Hz."""
    return float(value) * MHZ


def gbps(value: float) -> float:
    """Convert a bandwidth in GB/s to bytes/s."""
    return float(value) * GB


def watts(value: float) -> float:
    """Identity with validation: power must be finite and non-negative."""
    return check_non_negative(float(value), "power")


def joules(value: float) -> float:
    """Identity with validation: energy must be finite and non-negative."""
    return check_non_negative(float(value), "energy")


def seconds(value: float) -> float:
    """Identity with validation: durations must be finite and non-negative."""
    return check_non_negative(float(value), "time")


def as_ghz(hz: float) -> float:
    """Convert Hz back to GHz for display."""
    return hz / GHZ


def as_gbps(bps: float) -> float:
    """Convert bytes/s back to GB/s for display."""
    return bps / GB


def check_positive(
    value: float, name: str, error: type[Exception] = ValueError
) -> float:
    """Validate that *value* is finite and strictly positive.

    Raises *error* otherwise, so a call site keeps its own exception
    type while NaN and infinity are rejected the same way everywhere.
    """
    if not math.isfinite(value) or value <= 0:
        raise error(f"{name} must be finite and > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that *value* is finite and >= 0."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Tolerant float comparison used by invariant checks."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)
