"""Sampled power measurement.

The paper's helper tools include "a power meter reader" (§IV-B.4) that
records power traces for jobs.  :class:`PowerMeter` plays that role for
the simulated testbed: the execution engine reports each steady-state
interval, and the meter resamples it onto a fixed grid so traces look
like what a physical meter (or RAPL polling loop) produces.

Real sensors also lie.  Polling loops miss windows, I2C buses glitch,
and BMC firmware serves cached values.  :class:`TelemetryFault` models
that *read-side* corruption: the recorded trace stays ground truth
(energy accounting is exact as before), but the watchdog-facing
:meth:`PowerMeter.read_capped_power_w` can return noisy, stale, or
dropped values, seeded for reproducibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.hw.power import PowerBreakdown
from repro.units import check_fraction, check_non_negative

__all__ = ["PowerSample", "PowerMeter", "TelemetryFault"]


class TelemetryFault:
    """Seeded read-side sensor corruption.

    Parameters
    ----------
    seed:
        RNG seed; the corruption train is reproducible per meter.
    noise_frac:
        Gaussian relative noise applied to each reading
        (``value * (1 + N(0, noise_frac))``, floored at zero).
    drop_prob:
        Probability a reading is lost entirely (returns ``None``).

    The attributes are mutable so scripted fault events can tighten or
    relax the corruption mid-run without disturbing the RNG stream;
    :meth:`make_stale` injects a cached-BMC-value hang.
    """

    def __init__(
        self,
        seed: int = 0,
        noise_frac: float = 0.0,
        drop_prob: float = 0.0,
    ) -> None:
        check_non_negative(noise_frac, "noise_frac")
        check_fraction(drop_prob, "drop_prob")
        self.noise_frac = noise_frac
        self.drop_prob = drop_prob
        self._rng = random.Random(seed)
        self._stale_left = 0
        self._stale_value: float | None = None

    def make_stale(self, reads: int) -> None:
        """Freeze the next reading and serve it for *reads* reads."""
        if reads < 0:
            raise ValueError("stale_reads must be >= 0")
        self._stale_left = int(reads)
        self._stale_value = None

    def corrupt(self, value: float) -> float | None:
        """Corrupt one truthful reading (``None`` = reading lost)."""
        if self._stale_left > 0:
            self._stale_left -= 1
            if self._stale_value is None:
                self._stale_value = value
            return self._stale_value
        self._stale_value = None
        if self.drop_prob > 0.0 and self._rng.random() < self.drop_prob:
            return None
        if self.noise_frac > 0.0:
            value = max(0.0, value * (1.0 + self._rng.gauss(0.0, self.noise_frac)))
        return value


@dataclass(frozen=True)
class PowerSample:
    """One meter reading."""

    t_s: float
    pkg_w: float
    dram_w: float
    other_w: float

    @property
    def total_w(self) -> float:
        """Wall power at the sample instant."""
        return self.pkg_w + self.dram_w + self.other_w


#: Polling period of :meth:`PowerMeter.samples`, seconds.
SAMPLE_PERIOD_S = 0.1


class PowerMeter:
    """Accumulates piecewise-constant power intervals into a trace."""

    def __init__(self):
        self._t = 0.0
        self._energy_j = 0.0
        self._intervals: list[tuple[float, float, PowerBreakdown]] = []
        self._telemetry: TelemetryFault | None = None

    @property
    def telemetry(self) -> TelemetryFault | None:
        """Active read-side corruption, or ``None`` for a honest sensor."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, fault: TelemetryFault | None) -> None:
        self._telemetry = fault

    @property
    def elapsed_s(self) -> float:
        """Total recorded time."""
        return self._t

    @property
    def energy_j(self) -> float:
        """Exact integrated wall energy over all intervals."""
        return self._energy_j

    def record(self, breakdown: PowerBreakdown, dt_s: float) -> None:
        """Append a steady-state interval of *dt_s* seconds."""
        check_non_negative(dt_s, "dt")
        if dt_s == 0.0:
            return
        self._intervals.append((self._t, self._t + dt_s, breakdown))
        self._t += dt_s
        self._energy_j += breakdown.total_w * dt_s

    def capped_power_w(self) -> float:
        """Truthful capped-domain power of the most recent interval.

        Sums exactly the domains that caps govern (PKG + DRAM, plus GPU
        when present) and excludes the uncapped component draw — the
        quantity enforcement compares against a node's issued caps.
        """
        if not self._intervals:
            return 0.0
        return self._intervals[-1][2].capped_w

    def read_capped_power_w(self) -> float | None:
        """Sensor reading of :meth:`capped_power_w`, possibly corrupted.

        This is the *watchdog-facing* read path: with a telemetry fault
        installed the value may be noisy, stale, or lost (``None``).
        The recorded trace and energy accounting stay truthful either
        way.
        """
        truth = self.capped_power_w()
        if self._telemetry is None:
            return truth
        return self._telemetry.corrupt(truth)

    def peak_power_w(self) -> float:
        """Highest interval wall power."""
        if not self._intervals:
            return 0.0
        return max(b.total_w for _, _, b in self._intervals)

    def samples(self) -> list[PowerSample]:
        """Resample the trace on the meter's fixed period.

        Each sample reports the power of the interval containing the
        sample instant, matching a polling meter's behaviour.
        """
        out: list[PowerSample] = []
        if not self._intervals:
            return out
        times = np.arange(0.0, self._t, SAMPLE_PERIOD_S)
        starts = np.array([s for s, _, _ in self._intervals])
        idx = np.searchsorted(starts, times, side="right") - 1
        for t, i in zip(times, idx):
            b = self._intervals[int(i)][2]
            out.append(
                PowerSample(
                    t_s=float(t), pkg_w=b.pkg_w, dram_w=b.dram_w, other_w=b.other_w
                )
            )
        return out

    def reset(self) -> None:
        """Clear the trace, counters, and any telemetry fault."""
        self._t = 0.0
        self._energy_j = 0.0
        self._intervals.clear()
        self._telemetry = None
