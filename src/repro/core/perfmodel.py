"""Performance prediction models (Eqs. 1–3).

The predictors map a thread count (and optionally a frequency) to an
estimated iteration time, built *only* from the profiling samples:

* **linear** apps (Eq. 1): a single hyperbolic model
  ``T(n) = a/n + b`` solved exactly through the half-core and all-core
  samples — the discrete form of "run time is a linear function of the
  sample times" with scalability reflected in the ``a/n`` term.
* **non-linear** apps (Eqs. 2–3): a two-segment piecewise model around
  the inflection point NP.  The first segment is the same hyperbola
  through the half-core and confirmation samples; the second segment
  is the straight line through the NP and all-core samples.  For
  parabolic applications the paper "disregards the prediction for the
  n > NP segment" when *choosing* configurations, but the segment is
  still available for what-if queries (the baselines run there).
  For **logarithmic** applications the two segments are combined into
  a roofline form ``T(n, f) = max(hyperbola(n) * f_ref/f, plateau)``:
  the inflection point is where node memory bandwidth saturates, so
  the all-core sample's time is the memory plateau no concurrency or
  frequency choice can beat — which is what makes "high frequency
  over high concurrency" safe for this class (§III-A.2).

Frequency scaling follows the paper's empirical observation
``S(freq) ∝ freq``: the parallel-compute share of the fitted time (the
``a/n`` term) scales inversely with frequency while the flat share
(memory/synchronization, the ``b`` term) does not — which is also why
the model prefers "high frequency to high concurrency for logarithmic
applications" (§III-A.2).

**GPU-offload** apps take the linear (single-hyperbola) host path —
there is no inflection point to confirm because host concurrency is
not the bottleneck — and add a device term: the profiled device-busy
time scales inversely with the device clock, and the host share that
is *not* overlapped by the device is whatever the fitted host model
predicts above the device time.  ``predict_time`` accepts an optional
``gpu_clock_hz`` to evaluate host↔device power-shift candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classify import ScalabilityClass
from repro.core.profile import AppProfile
from repro.errors import ModelNotFittedError, ProfilingError

__all__ = ["PerformancePredictor", "TimeCalibration"]


@dataclass(frozen=True)
class TimeCalibration:
    """Piecewise multiplicative time correction learned from outcomes.

    The profiling-sample fit is a one-shot snapshot; the closed-loop
    learning layer compares every completed job's predicted and
    measured iteration time and least-squares-fits one multiplicative
    scale per model segment (below/at the inflection point and above
    it).  An identity calibration — the default, and the only thing a
    learning-disabled deployment ever sees — leaves every prediction
    bit-identical to the uncalibrated model.
    """

    seg1_scale: float = 1.0
    seg2_scale: float = 1.0
    n_observations: int = 0

    @property
    def is_identity(self) -> bool:
        """Whether applying this calibration is a no-op."""
        return self.seg1_scale == 1.0 and self.seg2_scale == 1.0

    def scale_for(self, n_threads: int, inflection_point: int | None) -> float:
        """The correction factor governing *n_threads*."""
        if inflection_point is None or n_threads <= inflection_point:
            return self.seg1_scale
        return self.seg2_scale

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "seg1_scale": self.seg1_scale,
            "seg2_scale": self.seg2_scale,
            "n_observations": self.n_observations,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "TimeCalibration":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            seg1_scale=float(raw["seg1_scale"]),
            seg2_scale=float(raw["seg2_scale"]),
            n_observations=int(raw["n_observations"]),
        )


@dataclass(frozen=True)
class _Hyperbola:
    """T(n) = a/n + b through two sample points."""

    a: float
    b: float

    def time(self, n: int) -> float:
        return self.a / n + self.b

    @classmethod
    def through(cls, n1: int, t1: float, n2: int, t2: float) -> "_Hyperbola":
        if n1 == n2:
            raise ProfilingError("hyperbola needs two distinct thread counts")
        a = (t1 - t2) / (1.0 / n1 - 1.0 / n2)
        if a < 0:
            # non-physical: time growing with 1/n means the two samples
            # straddle a peak (e.g. the confirmation ran *below* the
            # half-core count on a wide-socket platform).  Extrapolating
            # the inverted hyperbola would predict absurd speedups at
            # tiny thread counts, so degrade to a flat model at the
            # better sample — "no predicted benefit from fewer threads".
            return cls(a=0.0, b=min(t1, t2))
        return cls(a=a, b=t1 - a / n1)


@dataclass(frozen=True)
class _Line:
    """T(n) = c + d * n through two sample points."""

    c: float
    d: float

    def time(self, n: int) -> float:
        return self.c + self.d * n

    @classmethod
    def through(cls, n1: int, t1: float, n2: int, t2: float) -> "_Line":
        if n1 == n2:
            raise ProfilingError("line needs two distinct thread counts")
        d = (t2 - t1) / (n2 - n1)
        return cls(c=t1 - d * n1, d=d)


class PerformancePredictor:
    """Iteration-time predictor for one profiled application."""

    def __init__(
        self,
        profile: AppProfile,
        inflection_point: int | None = None,
        calibration: TimeCalibration | None = None,
    ):
        self._calibration = (
            calibration
            if calibration is not None and not calibration.is_identity
            else None
        )
        self._cls = profile.scalability_class
        self._f_ref = profile.all_run.frequency_hz
        self._n_cores = profile.n_cores
        self._np = inflection_point

        half, all_ = profile.half_run, profile.all_run
        self._plateau = 0.0
        self._plateau_lo = 0.0
        self._f_lo = profile.all_run.frequency_lo_hz
        # Device reference point for GPU-offload apps: the measured
        # busy time at the clock the profiling sample resolved to.
        self._dev_ref_s = all_.device_s
        self._gpu_clock_ref_hz = all_.gpu_clock_hz
        if self._cls is ScalabilityClass.LINEAR or inflection_point is None:
            # Eq. 1 — single model through the two mandatory samples.
            self._seg1 = _Hyperbola.through(
                half.n_threads, half.t_iter_s, all_.n_threads, all_.t_iter_s
            )
            self._seg2: _Line | None = None
            self._np = None if self._cls is ScalabilityClass.LINEAR else inflection_point
        else:
            if profile.confirm_run is None:
                raise ModelNotFittedError(
                    "non-linear model needs the confirmation sample at NP; "
                    "run SmartProfiler.confirm first"
                )
            conf = profile.confirm_run
            anchor = half if half.n_threads != conf.n_threads else all_
            self._seg1 = _Hyperbola.through(
                anchor.n_threads, anchor.t_iter_s, conf.n_threads, conf.t_iter_s
            )
            if all_.n_threads != conf.n_threads:
                self._seg2 = _Line.through(
                    conf.n_threads, conf.t_iter_s, all_.n_threads, all_.t_iter_s
                )
            else:
                self._seg2 = None
            if self._cls is ScalabilityClass.LOGARITHMIC:
                # NP is the bandwidth-saturation knee, so the flattest
                # measured time is the memory plateau (see module doc).
                # The plateau itself degrades at low frequency (uncore
                # frequency scaling steals bandwidth); the low-frequency
                # phase of the all-core sample measured that directly.
                self._plateau = min(all_.t_iter_s, conf.t_iter_s)
                self._plateau_lo = max(all_.t_iter_lo_s, self._plateau)
                self._f_lo = all_.frequency_lo_hz
                # The compute (frequency-scaled) share comes from the
                # half-core sample's own two frequency points: below
                # the knee the run is compute-bound, so the time delta
                # between the frequency extremes isolates the 1/f term
                # exactly — robust even when NP coincides with the
                # half-core count and the hyperbola degenerates.
                f_gain = half.frequency_hz / half.frequency_lo_hz
                s12 = (half.t_iter_lo_s - half.t_iter_s) / max(f_gain - 1.0, 1e-9)
                self._log_scalable = max(s12, 0.0)
                self._log_flat = max(half.t_iter_s - self._log_scalable, 0.0)
                self._log_n_ref = half.n_threads

    # ------------------------------------------------------------------

    @property
    def scalability_class(self) -> ScalabilityClass:
        """Class the model was built for."""
        return self._cls

    @property
    def inflection_point(self) -> int | None:
        """NP the piecewise model pivots on (None for linear)."""
        return self._np

    @property
    def calibration(self) -> TimeCalibration | None:
        """Outcome-learned correction applied on top of the fit (or None)."""
        return self._calibration

    def predict_time(
        self,
        n_threads: int,
        frequency_hz: float | None = None,
        gpu_clock_hz: float | None = None,
    ) -> float:
        """Predicted iteration time at *n_threads* (and frequency).

        For GPU-offload apps *gpu_clock_hz* evaluates the prediction at
        a candidate device clock (defaults to the profiled clock); it
        is ignored for host-only scalability classes.
        """
        if not 1 <= n_threads <= self._n_cores:
            raise ProfilingError(
                f"n_threads {n_threads} outside [1, {self._n_cores}]"
            )
        if frequency_hz is not None and frequency_hz <= 0:
            raise ProfilingError("frequency must be > 0")
        if gpu_clock_hz is not None and gpu_clock_hz <= 0:
            raise ProfilingError("gpu clock must be > 0")
        f = frequency_hz if frequency_hz is not None else self._f_ref
        if self._cls is ScalabilityClass.LOGARITHMIC and self._np is not None:
            # roofline: the frequency-scaled compute term (calibrated
            # from the half-core dual-frequency measurements) against
            # the measured memory plateau, itself interpolated between
            # its nominal- and lowest-frequency measurements
            comp = (
                self._log_scalable
                * (self._log_n_ref / n_threads)
                * (self._f_ref / f)
            )
            t = max(comp + self._log_flat, self._plateau_at(f))
            return self._calibrated(max(t, 1e-9), n_threads)
        if self._np is None or n_threads <= self._np or self._seg2 is None:
            t = self._seg1.time(n_threads)
            scalable = self._seg1.a / n_threads
            flat = self._seg1.b
        else:
            t = self._seg2.time(n_threads)
            # flat share at the segment boundary carries over
            flat = min(self._seg1.b, t)
            scalable = t - flat
        t = max(t, 1e-9)
        if f != self._f_ref:
            t = max(scalable * (self._f_ref / f) + flat, 1e-9)
        return self._calibrated(self._with_device(t, gpu_clock_hz), n_threads)

    def _calibrated(self, t: float, n_threads: int) -> float:
        """Apply the learned per-segment correction (identity when unset)."""
        if self._calibration is None:
            return t
        return max(t * self._calibration.scale_for(n_threads, self._np), 1e-9)

    def _with_device(self, t_host: float, gpu_clock_hz: float | None) -> float:
        """Re-evaluate the device roofline at a candidate clock.

        The profiled iteration time already contains the device share
        at the reference clock, so the host residual is whatever sits
        above it; the device term itself scales inversely with clock
        (device instruction rate ∝ clock).
        """
        if (
            self._cls is not ScalabilityClass.GPU_OFFLOAD
            or gpu_clock_hz is None
            or self._dev_ref_s <= 0
            or self._gpu_clock_ref_hz <= 0
        ):
            return t_host
        host_resid = max(t_host - self._dev_ref_s, 0.0)
        t_dev = self._dev_ref_s * (self._gpu_clock_ref_hz / gpu_clock_hz)
        return max(host_resid + t_dev, 1e-9)

    def _plateau_at(self, f: float) -> float:
        """Memory plateau at frequency *f* (linear between measurements)."""
        if f >= self._f_ref:
            return self._plateau
        if f <= self._f_lo:
            return self._plateau_lo
        w = (self._f_ref - f) / (self._f_ref - self._f_lo)
        return self._plateau + w * (self._plateau_lo - self._plateau)

    def predict_perf(
        self,
        n_threads: int,
        frequency_hz: float | None = None,
        gpu_clock_hz: float | None = None,
    ) -> float:
        """Predicted throughput (1 / iteration time)."""
        return 1.0 / self.predict_time(n_threads, frequency_hz, gpu_clock_hz)

    def candidate_concurrencies(self) -> tuple[int, ...]:
        """Even thread counts worth evaluating, per class.

        Linear apps stay at full concurrency unless power forces less;
        logarithmic apps consider NP up to all cores; parabolic apps
        never exceed NP (§II / §III-A.2).
        """
        evens = tuple(range(2, self._n_cores + 1, 2))
        if self._cls is ScalabilityClass.LINEAR or self._np is None:
            return evens
        if self._cls is ScalabilityClass.PARABOLIC:
            return tuple(n for n in evens if n <= self._np)
        return evens
