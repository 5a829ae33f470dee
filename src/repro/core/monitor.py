"""Cluster-wide budget-invariant auditing.

A power-bounded system has one non-negotiable contract: the sum of the
caps it programs never exceeds the cluster budget, and every node's cap
stays inside the application's acceptable power range (§III-B.1's
:math:`[L2, L1]`).  The scheduler, the multi-job coordinator, the job
queue, and the §VII runtime all *intend* to honour that contract, but
each computes caps on its own path — re-coordination after a budget
swing, a shrink onto surviving nodes, a co-scheduled batch — and a bug
on any path silently hands out watts the facility does not have.

:class:`BudgetInvariantMonitor` closes the loop: every issued cap set
is audited at the moment it is committed, and the audit trail is a
first-class artifact (JSON-safe, CI-checkable).  The monitor is shared
through :class:`~repro.core.pipeline.DecisionPipeline`, so every
consumer of the pipeline reports to the same ledger.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass, field

from repro.errors import BudgetInvariantError

__all__ = ["CapAudit", "BudgetInvariantMonitor"]

#: Absolute slack (watts) granted to floating-point cap arithmetic.
AUDIT_TOLERANCE_W = 1e-6


def _per_rank_bounds(bound, n_ranks: int) -> list[float] | None:
    """Normalize a scalar-or-sequence bound to one float per rank."""
    if bound is None:
        return None
    if isinstance(bound, (int, float)):
        return [float(bound)] * n_ranks
    seq = [float(b) for b in bound]
    if len(seq) != n_ranks:
        raise ValueError(
            f"per-rank bounds cover {len(seq)} ranks, cap set has {n_ranks}"
        )
    return seq


def _bound_field(bound):
    """The bound as stored on :class:`CapAudit` (scalar or tuple)."""
    if bound is None or isinstance(bound, (int, float)):
        return bound if bound is None else float(bound)
    return tuple(float(b) for b in bound)


@dataclass(frozen=True)
class CapAudit:
    """One audited cap set: who issued what against which budget.

    ``node_lo_w`` / ``node_hi_w`` are floats when every rank is of one
    hardware class (one shared acceptable range) and per-rank tuples
    when the ranks span several classes.

    The ledger keeps the caps packed — float64 bytes plus each node's
    tuple length, ~8 bytes a cap against ~50 as tuples of floats — so
    the audits a fleet's budget swings accumulate stay small;
    :attr:`caps` unpacks them.
    """

    source: str
    app_name: str
    cluster_budget_w: float
    packed_caps: bytes = field(repr=False)
    cap_arity: bytes = field(repr=False)
    node_lo_w: float | tuple[float, ...] | None
    node_hi_w: float | tuple[float, ...] | None
    violations: tuple[str, ...]

    @property
    def caps(self) -> tuple[tuple[float, ...], ...]:
        """Per-node cap tuples: ``(pkg, dram)`` on CPU nodes, ``(pkg,
        dram, gpu)`` on accelerator nodes — a set may mix both."""
        values = iter(memoryview(self.packed_caps).cast("d").tolist())
        return tuple(tuple(itertools.islice(values, k)) for k in self.cap_arity)

    @property
    def ok(self) -> bool:
        """Whether the cap set satisfied every checked invariant."""
        return not self.violations

    @property
    def total_capped_w(self) -> float:
        """Sum of every programmed cap across all nodes and domains."""
        return float(sum(sum(cap) for cap in self.caps))

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "source": self.source,
            "app_name": self.app_name,
            "cluster_budget_w": self.cluster_budget_w,
            "total_capped_w": self.total_capped_w,
            "n_nodes": len(self.caps),
            "node_lo_w": (
                list(self.node_lo_w)
                if isinstance(self.node_lo_w, tuple)
                else self.node_lo_w
            ),
            "node_hi_w": (
                list(self.node_hi_w)
                if isinstance(self.node_hi_w, tuple)
                else self.node_hi_w
            ),
            "ok": self.ok,
            "violations": list(self.violations),
        }


@dataclass
class BudgetInvariantMonitor:
    """Audits every issued cap set against the cluster power contract.

    The monitor is append-only: :meth:`audit` records the outcome and
    returns it, never raising, so enforcement paths stay hot;
    :meth:`assert_clean` is the strict checkpoint for tests, CI, and
    drain loops that must prove zero violations.
    """

    audits: list[CapAudit] = field(default_factory=list)

    def audit(
        self,
        source: str,
        app_name: str,
        cluster_budget_w: float,
        caps: tuple[tuple[float, ...], ...],
        node_lo_w: "float | Sequence[float] | None" = None,
        node_hi_w: "float | Sequence[float] | None" = None,
        tolerance_w: float = AUDIT_TOLERANCE_W,
    ) -> CapAudit:
        """Record one issued cap set and check the invariants.

        Checks: the caps summed over every node and power domain stay
        at or under ``cluster_budget_w``; when the acceptable range is
        supplied, every node's total cap sits in ``[node_lo_w,
        node_hi_w]``.  Each node's tuple carries one entry per capped
        domain — ``(pkg, dram)`` on CPU nodes, ``(pkg, dram, gpu)`` on
        accelerator nodes — and a set may mix lengths on a mixed
        fleet.  Bounds may be scalars (one range for all ranks) or
        per-rank sequences aligned with *caps* — the mixed-class
        form, where each slot's class has its own range.  Range checks use a relative tolerance on top of
        *tolerance_w* so legitimate float round-off never flags.
        """
        lo_seq = _per_rank_bounds(node_lo_w, len(caps))
        hi_seq = _per_rank_bounds(node_hi_w, len(caps))
        # each node's total, taken once for both the cluster sum and
        # the range checks; the ledger keeps the caps packed
        arity = bytes(map(len, caps))
        packed = struct.pack(f"{sum(arity)}d", *itertools.chain.from_iterable(caps))
        totals = [sum(cap) for cap in caps]
        violations: list[str] = []
        total = float(sum(totals))
        slack = tolerance_w + 1e-9 * max(abs(cluster_budget_w), 1.0)
        if total > cluster_budget_w + slack:
            violations.append(
                f"sum of caps {total:.3f} W exceeds cluster budget "
                f"{cluster_budget_w:.3f} W"
            )
        for rank, (cap, node_total) in enumerate(zip(caps, totals)):
            if cap and min(cap) < -tolerance_w:
                listed = ", ".join(f"{c:.3f}" for c in cap)
                violations.append(
                    f"node {rank}: negative cap ({listed}) W"
                )
            if lo_seq is not None and node_total < lo_seq[rank] - slack:
                violations.append(
                    f"node {rank}: cap {node_total:.3f} W below the "
                    f"acceptable floor {lo_seq[rank]:.3f} W"
                )
            if hi_seq is not None and node_total > hi_seq[rank] + slack:
                violations.append(
                    f"node {rank}: cap {node_total:.3f} W above the "
                    f"acceptable ceiling {hi_seq[rank]:.3f} W"
                )
        audit = CapAudit(
            source=source,
            app_name=app_name,
            cluster_budget_w=cluster_budget_w,
            packed_caps=packed,
            cap_arity=arity,
            node_lo_w=_bound_field(node_lo_w),
            node_hi_w=_bound_field(node_hi_w),
            violations=tuple(violations),
        )
        self.audits.append(audit)
        return audit

    def audit_split(
        self,
        source: str,
        app_name: str,
        parent_budget_w: float,
        child_budgets_w,
        tolerance_w: float = AUDIT_TOLERANCE_W,
    ) -> CapAudit:
        """Audit one level of a hierarchical budget split.

        Checks that the child budgets (e.g. per-rack shares of the
        cluster budget) sum to at most the parent budget.  Each child
        budget is recorded as a ``(budget, 0)`` cap pair so the split
        rides the same append-only ledger as node-level cap sets.
        """
        return self.audit(
            source,
            app_name,
            parent_budget_w,
            tuple((float(b), 0.0) for b in child_budgets_w),
            tolerance_w=tolerance_w,
        )

    # ------------------------------------------------------------------

    @property
    def n_audits(self) -> int:
        """Total cap sets recorded so far."""
        return len(self.audits)

    @property
    def n_violations(self) -> int:
        """Number of recorded cap sets that broke an invariant."""
        return sum(1 for a in self.audits if not a.ok)

    def violations(self) -> list[CapAudit]:
        """The failed audits, in issue order."""
        return [a for a in self.audits if not a.ok]

    def assert_clean(self) -> None:
        """Raise :class:`BudgetInvariantError` if any audit failed."""
        bad = self.violations()
        if bad:
            first = bad[0]
            raise BudgetInvariantError(
                f"{len(bad)}/{self.n_audits} cap sets violated the power "
                f"contract; first: [{first.source}] {first.violations[0]}"
            )

    def reset(self) -> None:
        """Clear the audit trail (between independent scenarios)."""
        self.audits.clear()

    def report(self) -> dict:
        """JSON-safe summary: counts per source plus any violations."""
        per_source: dict[str, int] = {}
        for a in self.audits:
            per_source[a.source] = per_source.get(a.source, 0) + 1
        return {
            "n_audits": self.n_audits,
            "n_violations": self.n_violations,
            "audits_by_source": per_source,
            "violations": [a.to_dict() for a in self.violations()],
        }
