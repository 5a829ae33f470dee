"""Closed-loop learning policies.

CLIP's models are fitted once from the smart-profiling pass; this
module holds the policy layer that lets them improve from execution
history without touching the fit-once math:

* :func:`fit_calibration` — least-squares per-segment multiplicative
  correction of predicted iteration time from an entry's
  :class:`~repro.core.knowledge.ObservationRecord` history.  The scale
  family contains the identity, so the fitted calibration can never be
  worse than no calibration on the observations it was fitted to (a
  property test pins this).
* :func:`should_refit` — when the observation count, staleness, and
  misprediction error justify refitting an entry's models.
* :class:`LearningConfig` — the master switch.
  **Disabled by default**: a learning-off deployment records history
  but never changes a decision, which the golden suites enforce
  bit-for-bit.

Learning acts only through refits: a refitted entry gets a new model
version and every entry point (``schedule``, ``schedule_traced``,
``schedule_many``) decides from the same refitted models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.knowledge import KnowledgeEntry, ObservationRecord
from repro.core.perfmodel import TimeCalibration

__all__ = [
    "should_refit",
    "LearningConfig",
    "fit_calibration",
]

#: Sanity clamp on learned time scales; the identity sits inside the
#: interval, so clamping preserves the never-worse-than-unit property.
MIN_SCALE = 0.1
MAX_SCALE = 10.0


#: Observations recorded *against the current model version* before its
#: error estimate is trusted.
MIN_OBSERVATIONS = 4
#: Staleness floor: total observations that must accumulate between
#: refits (keeps a noisy cell from thrashing the bundle cache).
REFIT_INTERVAL = 4
#: Mean absolute relative time-prediction error above which the model
#: is considered wrong enough to refit.
ERROR_THRESHOLD = 0.05


def should_refit(entry: KnowledgeEntry) -> bool:
    """Whether *entry*'s current models have earned a refit."""
    if entry.observed_total - entry.refit_at < REFIT_INTERVAL:
        return False
    current = [
        o
        for o in entry.observations
        if o.model_version == entry.model_version
    ]
    if len(current) < MIN_OBSERVATIONS:
        return False
    window = current[-MIN_OBSERVATIONS:]
    err = sum(abs(o.rel_time_error) for o in window) / len(window)
    return err > ERROR_THRESHOLD


@dataclass(frozen=True)
class LearningConfig:
    """The learning layer's switch (off by default): ``enabled`` lets
    recorded outcomes trigger refits when :func:`should_refit` says so.
    """

    enabled: bool = False


def fit_calibration(
    observations: Iterable[ObservationRecord],
    inflection_point: int | None,
) -> TimeCalibration:
    """Least-squares per-segment time correction from outcome history.

    For each model segment (thread counts at/below the inflection
    point vs. above it) the scale minimizing
    ``sum((s * predicted - measured)^2)`` is ``s* = Σpm / Σp²``; a
    segment with no evidence keeps the identity.  Because the quadratic
    error is monotone toward ``s*`` from either side and the clamp
    interval contains 1.0, the (clamped) fit never has a larger
    training-set error than the uncalibrated model.
    """
    seg_pred: dict[int, list[float]] = {1: [], 2: []}
    seg_meas: dict[int, list[float]] = {1: [], 2: []}
    n = 0
    for o in observations:
        if o.predicted_time_s <= 0 or o.measured_time_s <= 0:
            continue
        seg = (
            1
            if inflection_point is None or o.n_threads <= inflection_point
            else 2
        )
        seg_pred[seg].append(o.predicted_time_s)
        seg_meas[seg].append(o.measured_time_s)
        n += 1

    def solve(pred: list[float], meas: list[float]) -> float:
        den = sum(p * p for p in pred)
        if den <= 0:
            return 1.0
        s = sum(p * m for p, m in zip(pred, meas)) / den
        return min(max(s, MIN_SCALE), MAX_SCALE)

    return TimeCalibration(
        seg1_scale=solve(seg_pred[1], seg_meas[1]),
        seg2_scale=solve(seg_pred[2], seg_meas[2]),
        n_observations=n,
    )
