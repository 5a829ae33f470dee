"""Node power metering.

The paper's helper tools include "a power meter reader" (§IV-B.4).
:class:`PowerMeter` plays that role for the simulated testbed: the
execution engine reports each run's steady-state interval, and the
meter integrates wall energy and keeps the last interval's power in
the capped domains — what the enforcement watchdog compares against a
job's caps.  The meter is a view over one row of the node's
:class:`~repro.hw.rapl.CapBank`.

Real sensors also lie.  Polling loops miss windows, I2C buses glitch,
and BMC firmware serves cached values.  :class:`TelemetryFault` models
that *read-side* corruption: energy accounting stays exact, but the
watchdog-facing :meth:`PowerMeter.read_capped_power_w` can return
noisy, stale, or dropped values, seeded for reproducibility.
"""

from __future__ import annotations

import random

from repro.hw.rapl import CapBank
from repro.units import check_fraction, check_non_negative

__all__ = ["PowerMeter", "TelemetryFault"]


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


class PowerMeter:
    """Wall-power meter of one node: a view over its bank row."""

    def __init__(self, bank: CapBank, row: int):
        self._bank, self._row = bank, row

    @property
    def telemetry(self) -> TelemetryFault | None:
        """Active read-side corruption, or ``None`` for a honest sensor."""
        return self._bank.telemetry[self._row]

    @telemetry.setter
    def telemetry(self, fault: TelemetryFault | None) -> None:
        self._bank.telemetry[self._row] = fault

    @property
    def elapsed_s(self) -> float:
        """Total recorded time."""
        return self._bank._elapsed[self._row]

    @property
    def energy_j(self) -> float:
        """Exact integrated wall energy over all intervals."""
        return self._bank._wall[self._row]

    def record(self, capped_w: float, energy_j: float, dt_s: float) -> None:
        """Account a steady-state interval of *dt_s* seconds that drew
        *energy_j* at the wall and *capped_w* in the capped domains
        (PKG + DRAM, plus GPU when present)."""
        check_non_negative(dt_s, "dt")
        if dt_s == 0.0:
            return
        bank, row = self._bank, self._row
        bank._elapsed[row] += dt_s
        bank._wall[row] += energy_j
        bank._capped[row] = capped_w

    def read_capped_power_w(self) -> float | None:
        """Sensor reading of the last interval's capped-domain power.

        This is the *watchdog-facing* read path: with a telemetry fault
        installed the value may be noisy, stale, or lost (``None``).
        Energy accounting stays truthful either way.
        """
        return self._bank.read_capped_w((self._row,))[0]
