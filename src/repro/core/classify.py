"""Scalability-trend classification (§III-A.1).

The paper's classifier is deliberately simple: compare the performance
of the half-core and all-core profiling runs.

* ``Perf_half / Perf_all < 0.7``  → **linear**
* ``0.7 <= ratio < 1``            → **logarithmic**
* ``ratio >= 1``                  → **parabolic**

The 0.7 threshold is an empirical constant the authors chose from their
benchmark collection; the ablation bench sweeps it.
"""

from __future__ import annotations

import enum

from repro.errors import ProfilingError

__all__ = ["ScalabilityClass", "classify_ratio", "LINEAR_THRESHOLD", "PARABOLIC_THRESHOLD"]

#: Ratio below which an application counts as linear.
LINEAR_THRESHOLD = 0.7

#: Ratio at or above which an application counts as parabolic.
PARABOLIC_THRESHOLD = 1.0


class ScalabilityClass(enum.Enum):
    """The scalability trends of Section II, plus accelerator offload.

    ``GPU_OFFLOAD`` marks applications whose profiling samples show the
    device busy for a substantial share of the iteration (Minos-style
    accelerator classification).  Host-side thread scaling for these
    codes behaves like the linear class — the offloaded kernels leave
    the host share thread-scalable — so the class carries no inflection
    point; what it adds is the host↔device power trade-off the
    recommendation stage exploits.
    """

    LINEAR = "linear"
    LOGARITHMIC = "logarithmic"
    PARABOLIC = "parabolic"
    GPU_OFFLOAD = "gpu_offload"

    @property
    def is_nonlinear(self) -> bool:
        """Whether the class carries an inflection point to predict."""
        return self in (
            ScalabilityClass.LOGARITHMIC,
            ScalabilityClass.PARABOLIC,
        )


def classify_ratio(
    perf_half: float,
    perf_all: float,
    linear_threshold: float = LINEAR_THRESHOLD,
) -> ScalabilityClass:
    """Classify from the two profiling performances.

    Parameters are the raw throughputs (higher is better); the linear
    threshold is exposed for the ablation study.
    """
    if perf_half <= 0 or perf_all <= 0:
        raise ProfilingError(
            f"performances must be positive, got half={perf_half}, all={perf_all}"
        )
    if not 0 < linear_threshold < PARABOLIC_THRESHOLD:
        raise ProfilingError(
            "thresholds must satisfy 0 < linear < parabolic"
        )
    ratio = perf_half / perf_all
    if ratio < linear_threshold:
        return ScalabilityClass.LINEAR
    if ratio < PARABOLIC_THRESHOLD:
        return ScalabilityClass.LOGARITHMIC
    return ScalabilityClass.PARABOLIC
