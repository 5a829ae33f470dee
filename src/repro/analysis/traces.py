"""Power-trace export and run audits.

The paper's helper tools automate "the collection and recording of
performance and power data for jobs" (§IV-B.4).  These utilities turn
the simulator's meters and run records into the artifacts an operator
would keep: CSV traces, per-run summaries, and cap-violation audits.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from repro.hw.cluster import SimulatedCluster
from repro.sim.trace import RunResult

__all__ = [
    "samples_to_csv",
    "cluster_trace_csv",
    "CapViolation",
    "audit_cap_violations",
    "summarize_run",
]


def samples_to_csv(samples) -> str:
    """Render meter samples as CSV (t_s, pkg_w, dram_w, other_w, total_w)."""
    buf = io.StringIO()
    buf.write("t_s,pkg_w,dram_w,other_w,total_w\n")
    for s in samples:
        buf.write(
            f"{s.t_s:.3f},{s.pkg_w:.3f},{s.dram_w:.3f},"
            f"{s.other_w:.3f},{s.total_w:.3f}\n"
        )
    return buf.getvalue()


def cluster_trace_csv(cluster: SimulatedCluster) -> str:
    """One CSV over all nodes' meters (node_id column added)."""
    buf = io.StringIO()
    buf.write("node_id,t_s,pkg_w,dram_w,other_w,total_w\n")
    for node in cluster.nodes:
        for s in node.meter.samples():
            buf.write(
                f"{node.node_id},{s.t_s:.3f},{s.pkg_w:.3f},{s.dram_w:.3f},"
                f"{s.other_w:.3f},{s.total_w:.3f}\n"
            )
    return buf.getvalue()


@dataclass(frozen=True)
class CapViolation:
    """A node whose RAPL cap was below the hardware floor during a run."""

    node_id: int
    domain: str
    steady_power_w: float


def audit_cap_violations(result: RunResult) -> list[CapViolation]:
    """List every domain that ran above its programmed limit.

    Violations happen only when a cap was set below the domain's
    hardware floor (lowest P-state / lowest memory level) — a
    scheduler bug or an infeasible budget the caller should know about.
    """
    out: list[CapViolation] = []
    for rec in result.nodes:
        op = rec.operating_point
        if op.cpu_cap_violated:
            out.append(
                CapViolation(rec.node_id, "pkg", op.pkg_power_w)
            )
        if op.mem_cap_violated:
            out.append(
                CapViolation(rec.node_id, "dram", op.dram_power_w)
            )
    return out


def summarize_run(result: RunResult) -> dict:
    """Flat metrics dictionary for logging/regression tracking."""
    ops = [r.operating_point for r in result.nodes]
    return {
        "app": result.app_name,
        "n_nodes": result.n_nodes,
        "n_threads": result.n_threads_per_node,
        "affinity": result.affinity,
        "iterations": result.iterations,
        "total_time_s": result.total_time_s,
        "performance": result.performance,
        "avg_power_w": result.avg_power_w,
        "peak_power_w": result.peak_power_w,
        "energy_j": result.energy_j,
        "edp": result.edp,
        "imbalance": result.imbalance,
        "comm_fraction": result.comm_s / result.t_step_s if result.t_step_s else 0.0,
        "min_frequency_ghz": min(op.frequency_hz for op in ops) / 1e9,
        "max_frequency_ghz": max(op.frequency_hz for op in ops) / 1e9,
        "any_duty_cycling": any(op.duty_cycle < 1.0 for op in ops),
        "cap_violations": len(audit_cap_violations(result)),
    }
