"""Hardware performance-event synthesis (Table I of the paper).

CLIP's inflection-point predictor is a multivariate linear regression
over eight Haswell event *rates* collected during the profiling runs
(§III-A.2, Table I).  On real hardware these come from the PMU; here
the simulated node synthesizes them from the ground-truth workload
characteristics plus measurement noise, preserving the property the
paper relies on: the events are "related to applications' memory access
patterns and are able to identify which concurrency level can cause
performance stagnancy or loss".

The synthesis lives in the hardware layer (it is the PMU), but it is
driven by whatever phase description the execution engine passes in, so
the hw package stays independent of :mod:`repro.workloads`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.units import check_non_negative

__all__ = ["EventCounters", "EVENT_NAMES", "synthesize_counters"]

#: Table I — the Haswell hardware events used as MLR predictors.
EVENT_NAMES: dict[str, str] = {
    "event0": "Instruction Cache (ICACHE) Misses",
    "event1": "Memory Access Read Bandwidth",
    "event2": "Memory Access Write Bandwidth",
    "event3": "L3 Cache Miss from Local DRAM",
    "event4": "L3 Cache Miss from Remote DRAM",
    "event5": "Cycles Active",
    "event6": "Instructions Retired",
    "event7": "Performance ratio by full cores and half cores",
}


@dataclass(frozen=True)
class EventCounters:
    """One profiling interval's event totals (and the derived ratio).

    All fields except ``event7`` are raw counts/bytes over the
    interval; rates are obtained with :meth:`rates`.  ``event7`` is
    the full-core/half-core performance ratio the paper appends as a
    predictor — it is filled in by the profiler once both sample runs
    exist and defaults to 0 until then.
    """

    event0: float  # icache misses
    event1: float  # bytes read from DRAM
    event2: float  # bytes written to DRAM
    event3: float  # L3 misses served by local DRAM
    event4: float  # L3 misses served by remote DRAM
    event5: float  # active cycles (summed over cores)
    event6: float  # instructions retired
    event7: float = 0.0  # Perf_all / Perf_half ratio
    duration_s: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            check_non_negative(getattr(self, f.name), f.name)

    def rates(self) -> np.ndarray:
        """Per-second event rates in Table-I order (event7 passthrough).

        Rates rather than raw counts make the predictors independent of
        how long the profiling interval ran, which is what lets the
        smart profiler use only a few iterations.
        """
        d = max(self.duration_s, 1e-12)
        return np.array(
            [
                self.event0 / d,
                self.event1 / d,
                self.event2 / d,
                self.event3 / d,
                self.event4 / d,
                self.event5 / d,
                self.event6 / d,
                self.event7,
            ]
        )

    def with_perf_ratio(self, ratio: float) -> "EventCounters":
        """Return a copy with ``event7`` filled in."""
        return EventCounters(
            event0=self.event0,
            event1=self.event1,
            event2=self.event2,
            event3=self.event3,
            event4=self.event4,
            event5=self.event5,
            event6=self.event6,
            event7=ratio,
            duration_s=self.duration_s,
        )

    @property
    def ipc(self) -> float:
        """Instructions per active cycle over the interval."""
        return self.event6 / self.event5 if self.event5 > 0 else 0.0

    @property
    def memory_bandwidth(self) -> float:
        """Total DRAM traffic rate in bytes/s."""
        return (self.event1 + self.event2) / max(self.duration_s, 1e-12)

    @property
    def remote_miss_fraction(self) -> float:
        """Share of L3 misses served by remote DRAM."""
        total = self.event3 + self.event4
        return self.event4 / total if total > 0 else 0.0


CACHE_LINE_BYTES = 64.0

#: Read/write split of DRAM traffic assumed by the synthesizer; typical
#: HPC codes read roughly twice what they write.
READ_FRACTION = 0.67

#: Relative (log-normal) jitter of a noisy counter read; PMU counters on
#: real parts jitter by around a percent.
COUNTER_NOISE = 0.01


def synthesize_counters(
    *,
    instructions: float,
    duration_s: float,
    n_threads: int,
    frequency_hz: float,
    dram_bytes: float,
    remote_fraction: float,
    icache_mpki: float,
    rng: np.random.Generator | None = None,
) -> EventCounters:
    """Build an :class:`EventCounters` for one execution interval.

    Parameters
    ----------
    instructions:
        Instructions retired during the interval (all threads).
    duration_s:
        Interval wall time.
    n_threads:
        Active threads; active cycles are ``n_threads * f * duration``
        (cores busy-wait or stall rather than sleep during a phase).
    frequency_hz:
        Core clock during the interval.
    dram_bytes:
        Total DRAM traffic (read+write) in bytes.
    remote_fraction:
        Fraction of L3 misses served by the remote socket.
    icache_mpki:
        Instruction-cache misses per kilo-instruction (a front-end
        footprint proxy; large multi-zone solvers score higher).
    rng:
        Optional source of multiplicative log-normal measurement noise
        (:data:`COUNTER_NOISE`).
    """
    check_non_negative(instructions, "instructions")
    check_non_negative(duration_s, "duration_s")
    check_non_negative(dram_bytes, "dram_bytes")
    if not 0.0 <= remote_fraction <= 1.0:
        raise ValueError(f"remote_fraction must lie in [0,1]: {remote_fraction}")

    reads = dram_bytes * READ_FRACTION
    writes = dram_bytes - reads
    misses = dram_bytes / CACHE_LINE_BYTES
    values = np.array(
        [
            icache_mpki * instructions / 1e3,
            reads,
            writes,
            misses * (1.0 - remote_fraction),
            misses * remote_fraction,
            n_threads * frequency_hz * duration_s,
            instructions,
        ]
    )
    if rng is not None:
        values = values * np.exp(rng.normal(0.0, COUNTER_NOISE, size=values.shape))
    return EventCounters(
        event0=float(values[0]),
        event1=float(values[1]),
        event2=float(values[2]),
        event3=float(values[3]),
        event4=float(values[4]),
        event5=float(values[5]),
        event6=float(values[6]),
        event7=0.0,
        duration_s=duration_s,
    )
