"""Run records: what one simulated execution produced.

:class:`NodeRunRecord` captures one node's resolved steady state;
:class:`RunResult` aggregates the whole job.  These are the objects
every experiment consumes, so they carry everything the paper reports:
wall time, per-domain power, energy, throttle flags, and the Table-I
hardware events for the profiler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.counters import EventCounters
from repro.hw.rapl import OperatingPoint

__all__ = ["NodeRunRecord", "RunResult"]


@dataclass(frozen=True)
class NodeRunRecord:
    """One participating node's steady state during the run."""

    node_id: int
    operating_point: OperatingPoint
    t_iter_s: float
    activity: float
    busy_fraction: float
    avg_pkg_w: float
    avg_dram_w: float
    events: EventCounters
    phase_times: tuple[tuple[str, float], ...] = ()
    #: Time-averaged accelerator power (0 on CPU-only nodes).
    avg_gpu_w: float = 0.0
    #: Share of the iteration the device spent busy (0 without offload).
    gpu_busy_fraction: float = 0.0


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated job execution."""

    app_name: str
    n_nodes: int
    n_threads_per_node: int
    affinity: str
    iterations: int
    t_step_s: float
    comm_s: float
    total_time_s: float
    energy_j: float
    avg_power_w: float
    peak_power_w: float
    nodes: tuple[NodeRunRecord, ...]

    @property
    def performance(self) -> float:
        """Throughput in iterations per second — the paper's `perf`."""
        return self.iterations / self.total_time_s if self.total_time_s > 0 else 0.0

    @property
    def imbalance(self) -> float:
        """Max-over-mean iteration-time spread across nodes.

        1.0 means perfectly balanced; manufacturing variability under a
        uniform cap pushes this above 1 (§III-B.2).
        """
        times = [n.t_iter_s for n in self.nodes]
        mean = sum(times) / len(times)
        return max(times) / mean if mean > 0 else 1.0

    @property
    def edp(self) -> float:
        """Energy-delay product (J·s), a common efficiency summary."""
        return self.energy_j * self.total_time_s

    def summary(self) -> str:
        """One-line human-readable result."""
        return (
            f"{self.app_name}: {self.n_nodes} nodes x "
            f"{self.n_threads_per_node} threads [{self.affinity}] "
            f"t={self.total_time_s:.2f}s perf={self.performance:.4f} it/s "
            f"avgP={self.avg_power_w:.0f}W peakP={self.peak_power_w:.0f}W"
        )
