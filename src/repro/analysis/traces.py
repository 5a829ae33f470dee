"""Run audits.

The paper's helper tools automate "the collection and recording of
performance and power data for jobs" (§IV-B.4).  The cap-violation
audit here lists every power domain a run drove above its programmed
limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.trace import RunResult

__all__ = ["CapViolation", "audit_cap_violations"]


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
