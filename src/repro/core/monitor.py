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
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import BudgetInvariantError

__all__ = ["CapAudit", "BudgetInvariantMonitor", "unpack_caps"]

#: Absolute slack (watts) granted to floating-point cap arithmetic.
AUDIT_TOLERANCE_W = 1e-6

#: Cap sets from this many nodes on find the nodes that break a
#: per-node invariant with one array pass; smaller sets run the scalar
#: checks on every node.  On 2-cap nodes the scalar audit took 13-21 µs
#: against 22-37 µs at 6-8 nodes, the two met at about 24 nodes, and
#: the array pass took 0.20-0.40 ms against 0.80-0.82 ms at 1024
#: (docs/performance.md §10).
ARRAY_AUDIT_MIN = 24


def _normalized_bound(bound, n_ranks: int):
    """One bound converted once, as :class:`CapAudit` stores it: a float
    (one bound for every rank), a tuple of floats (one per rank), or
    ``None``.  The scalar checks index the tuple; the array pass reads
    it without a second conversion."""
    if bound is None:
        return None
    if isinstance(bound, (int, float)):
        return float(bound)
    per_rank = tuple(map(float, bound))
    if len(per_rank) != n_ranks:
        raise ValueError(
            f"per-rank bounds cover {len(per_rank)} ranks, cap set has {n_ranks}"
        )
    return per_rank


def unpack_caps(packed: bytes, arity: bytes) -> tuple[tuple[float, ...], ...]:
    """Per-node cap tuples back from a packed float64 buffer: node *i*
    holds the next ``arity[i]`` values."""
    values = iter(memoryview(packed).cast("d").tolist())
    if arity.count(2) == len(arity):
        return tuple(zip(values, values))
    return tuple(tuple(itertools.islice(values, k)) for k in arity)


def _node_totals(packed: bytes, arity: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Each node's cap total and smallest cap, as ``sum(cap)`` and
    ``min(cap)`` give them.

    Two-domain nodes (every CPU fleet) take one array pass over the
    packed caps: ``(0.0 + pkg) + dram`` is the float Python's ``sum``
    returns for a pair, compensated (3.12+) or not, and ``dram if dram
    < pkg else pkg`` is ``min``.  Any other arity goes node by node
    through ``sum``/``min`` themselves.
    """
    n = len(arity)
    if arity.count(2) == n:
        pairs = np.frombuffer(packed, dtype=np.float64).reshape(n, 2)
        pkg, dram = pairs[:, 0], pairs[:, 1]
        return (0.0 + pkg) + dram, np.where(dram < pkg, dram, pkg)
    caps = unpack_caps(packed, arity)
    totals = np.array([sum(cap) for cap in caps], dtype=np.float64)
    smallest = np.array([min(cap) if cap else np.inf for cap in caps])
    return totals, smallest


def _node_violations(
    rank: int,
    cap: tuple[float, ...],
    node_total: float,
    lo: float | None,
    hi: float | None,
    slack: float,
) -> list[str]:
    """The per-node invariants one node's caps break, in check order."""
    violations = []
    if cap and min(cap) < -AUDIT_TOLERANCE_W:
        listed = ", ".join(f"{c:.3f}" for c in cap)
        violations.append(f"node {rank}: negative cap ({listed}) W")
    if lo is not None and node_total < lo - slack:
        violations.append(
            f"node {rank}: cap {node_total:.3f} W below the "
            f"acceptable floor {lo:.3f} W"
        )
    if hi is not None and node_total > hi + slack:
        violations.append(
            f"node {rank}: cap {node_total:.3f} W above the "
            f"acceptable ceiling {hi:.3f} W"
        )
    return violations


def _budget_violations(total: float, budget_w: float, slack: float) -> list[str]:
    """The cluster-sum invariant, checked on Python's ``sum`` of the
    node totals."""
    if total > budget_w + slack:
        return [
            f"sum of caps {total:.3f} W exceeds cluster budget "
            f"{budget_w:.3f} W"
        ]
    return []


class CapAudit(NamedTuple):
    """One audited cap set: who issued what against which budget.

    ``node_lo_w`` / ``node_hi_w`` are floats when every rank is of one
    hardware class (one shared acceptable range) and per-rank tuples
    when the ranks span several classes.

    The ledger keeps the caps packed — float64 bytes plus each node's
    tuple length, ~8 bytes a cap against ~50 as tuples of floats — so
    the audits a fleet's budget swings accumulate stay small;
    :attr:`caps` unpacks them.  A record is an immutable named tuple
    (no per-record ``__dict__``): a 1024-node decision writes 130 of
    them, and a tuple builds several times faster than a frozen
    dataclass.
    """

    source: str
    app_name: str
    cluster_budget_w: float
    packed_caps: bytes
    cap_arity: bytes
    node_lo_w: float | tuple[float, ...] | None
    node_hi_w: float | tuple[float, ...] | None
    violations: tuple[str, ...]

    def __repr__(self) -> str:
        # the packed buffers are noise in a ledger dump
        return (
            f"CapAudit(source={self.source!r}, app_name={self.app_name!r}, "
            f"cluster_budget_w={self.cluster_budget_w!r}, "
            f"node_lo_w={self.node_lo_w!r}, node_hi_w={self.node_hi_w!r}, "
            f"violations={self.violations!r})"
        )

    @property
    def caps(self) -> tuple[tuple[float, ...], ...]:
        """Per-node cap tuples: ``(pkg, dram)`` on CPU nodes, ``(pkg,
        dram, gpu)`` on accelerator nodes — a set may mix both."""
        return unpack_caps(self.packed_caps, self.cap_arity)

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

    audits: list[CapAudit] = field(default_factory=list, init=False)

    def audit(
        self,
        source: str,
        app_name: str,
        cluster_budget_w: float,
        caps: "Sequence[tuple[float, ...]] | bytes",
        node_lo_w: "float | Sequence[float] | None" = None,
        node_hi_w: "float | Sequence[float] | None" = None,
        cap_arity: bytes | None = None,
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
        form, where each slot's class has its own range.  Range checks
        use a relative tolerance on top of :data:`AUDIT_TOLERANCE_W` so
        legitimate float round-off never flags.

        *caps* is a sequence of per-node tuples or, with *cap_arity*
        given, already packed as :class:`CapAudit` keeps it (a
        :class:`~repro.core.pipeline.SchedulingDecision`'s
        ``packed_caps``); the ledger record then holds that buffer as
        it is.  Both forms run the same checks.
        """
        if cap_arity is None:
            arity = bytes(map(len, caps))
            packed = struct.pack(
                f"{sum(arity)}d", *itertools.chain.from_iterable(caps)
            )
        else:
            packed, arity, caps = caps, cap_arity, None
            if len(packed) != 8 * sum(arity):
                raise ValueError(
                    f"the packed caps hold {len(packed) / 8:g} values, "
                    f"cap_arity counts {sum(arity)}"
                )
        n_ranks = len(arity)
        lo = _normalized_bound(node_lo_w, n_ranks)
        hi = _normalized_bound(node_hi_w, n_ranks)
        # each node's total, taken once for both the cluster sum and
        # the range checks
        slack = AUDIT_TOLERANCE_W + 1e-9 * max(abs(cluster_budget_w), 1.0)
        if n_ranks < ARRAY_AUDIT_MIN:
            if caps is None:
                caps = unpack_caps(packed, arity)
            node_totals = [sum(cap) for cap in caps]
            flagged = range(n_ranks)
        else:
            # one array pass picks the nodes the scalar checks must see
            totals, smallest = _node_totals(packed, arity)
            node_totals = totals.tolist()
            bad = smallest < -AUDIT_TOLERANCE_W
            lo_cmp, hi_cmp = (
                np.fromiter(b, np.float64, len(b)) if isinstance(b, tuple) else b
                for b in (lo, hi)
            )
            if lo is not None:
                bad |= totals < lo_cmp - slack
            if hi is not None:
                bad |= totals > hi_cmp + slack
            flagged = np.flatnonzero(bad).tolist()
            if flagged and caps is None:
                caps = unpack_caps(packed, arity)
        violations = _budget_violations(
            float(sum(node_totals)), cluster_budget_w, slack
        )
        for rank in flagged:
            violations += _node_violations(
                rank,
                caps[rank],
                node_totals[rank],
                lo[rank] if isinstance(lo, tuple) else lo,
                hi[rank] if isinstance(hi, tuple) else hi,
                slack,
            )
        audit = CapAudit(
            source=source,
            app_name=app_name,
            cluster_budget_w=cluster_budget_w,
            packed_caps=packed,
            cap_arity=arity,
            node_lo_w=lo,
            node_hi_w=hi,
            violations=tuple(violations),
        )
        self.audits.append(audit)
        return audit

    def audit_segments(
        self,
        sources,
        app_name: str,
        budgets_w,
        audited: CapAudit,
        widths,
    ) -> tuple[CapAudit, ...]:
        """Audit consecutive runs of an audited cap set, one record each.

        Run ``j`` is the next ``widths[j]`` nodes of *audited*'s caps,
        recorded under ``sources[j]`` against ``budgets_w[j]`` — the
        record :meth:`audit` would write for that slice alone (no range
        bounds; ranks count from the run's first node).  The records
        slice *audited*'s packed buffer, and the node totals and
        negative-cap checks run once over the whole set.
        """
        packed, arity = audited.packed_caps, audited.cap_arity
        if not len(sources) == len(budgets_w) == len(widths):
            raise ValueError(
                f"{len(sources)} sources, {len(budgets_w)} budgets and "
                f"{len(widths)} widths do not describe one set of runs"
            )
        if sum(widths) != len(arity):
            raise ValueError(
                f"runs cover {sum(widths)} nodes, the audited set has {len(arity)}"
            )
        totals, smallest = _node_totals(packed, arity)
        node_totals = totals.tolist()
        negative = np.flatnonzero(smallest < -AUDIT_TOLERANCE_W).tolist()
        # byte offset of each node's first cap, and of the end
        offsets = [0]
        offsets += (8 * np.cumsum(np.frombuffer(arity, dtype=np.uint8))).tolist()
        records = []
        start = 0
        for source, budget_w, width in zip(sources, budgets_w, widths):
            end = start + width
            slack = AUDIT_TOLERANCE_W + 1e-9 * max(abs(budget_w), 1.0)
            violations = _budget_violations(
                float(sum(node_totals[start:end])), budget_w, slack
            )
            while negative and negative[0] < end:
                node = negative.pop(0)
                (cap,) = unpack_caps(
                    packed[offsets[node]:offsets[node + 1]], arity[node:node + 1]
                )
                violations += _node_violations(
                    node - start, cap, node_totals[node], None, None, slack
                )
            records.append(
                CapAudit(
                    source=source,
                    app_name=app_name,
                    cluster_budget_w=budget_w,
                    packed_caps=packed[offsets[start]:offsets[end]],
                    cap_arity=arity[start:end],
                    node_lo_w=None,
                    node_hi_w=None,
                    violations=tuple(violations),
                )
            )
            start = end
        self.audits.extend(records)
        return tuple(records)

    def audit_split(
        self,
        source: str,
        app_name: str,
        parent_budget_w: float,
        child_budgets_w,
    ) -> CapAudit:
        """Audit one level of a hierarchical budget split.

        Checks that the child budgets (e.g. per-rack shares of the
        cluster budget) sum to at most the parent budget.  Each child
        budget is recorded as a ``(budget, 0)`` cap pair so the split
        rides the same append-only ledger as node-level cap sets.
        """
        pairs = [x for b in child_budgets_w for x in (float(b), 0.0)]
        return self.audit(
            source,
            app_name,
            parent_budget_w,
            array("d", pairs).tobytes(),
            cap_arity=b"\x02" * (len(pairs) // 2),
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
