"""Evaluation metrics.

The paper reports *relative performance*: each method's throughput
normalized "based on the All-In method without a power bound"
(§V-C).  These helpers compute the aggregate improvement statistics behind the headline claims (">20 % on average", "up to 60 %
for parabolic applications").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ClipError

__all__ = ["improvement_over", "geometric_mean"]


def improvement_over(perf: float, baseline_perf: float) -> float:
    """Fractional improvement of *perf* over *baseline_perf*.

    0.2 means 20 % faster; negative means slower.
    """
    if baseline_perf <= 0:
        raise ClipError("baseline performance must be > 0")
    return perf / baseline_perf - 1.0


def geometric_mean(values) -> float:
    """Geometric mean, the right average for performance ratios."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ClipError("geometric mean of an empty sequence")
    if np.any(arr <= 0):
        raise ClipError("geometric mean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
