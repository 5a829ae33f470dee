"""Hierarchical cluster → rack → node budget partitioning.

A 1,000-node facility does not coordinate power as one flat pool:
FastCap-style hierarchical capping splits the budget at an intermediate
enclosure level first, then solves each enclosure independently — the
split is exact, each sub-problem is small, and the search cost scales
with rack size instead of fleet size.

:func:`split_cluster_budget` implements the two-level split for CLIP:
the cluster budget is divided across racks proportionally to each
rack's aggregate power capacity (the sum of its slots' acceptable
ceilings), clamped into ``[sum(lo), sum(hi)]`` per rack by the
node level's own clamp-and-redistribute step
(:func:`~repro.core.coordination.clamp_to_ranges`), then every rack's
share is split over its nodes in one segmented pass
(:func:`~repro.core.coordination.coordinate_segments`: each rack split
exactly as :func:`~repro.core.coordination.coordinate_power` would
split it alone, the racks of one width solved as the rows of one
array).  Both levels are auditable: the
returned :class:`RackBudget` records carry the rack shares so
:class:`~repro.core.monitor.BudgetInvariantMonitor` can check
``sum(rack budgets) <= cluster budget`` and, per rack,
``sum(node caps) <= rack budget``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.coordination import (
    VARIABILITY_THRESHOLD,
    clamp_to_ranges,
    coordinate_power,
    coordinate_segments,
    segment_sums,
)
from repro.errors import SchedulingError

# ``coordinate_power``, the one-rack split, stays importable from here
# for callers and tracers that patch it module by module
__all__ = ["RackBudget", "coordinate_power", "split_cluster_budget"]


class RackBudget(NamedTuple):
    """One rack's share of the cluster budget.

    ``budget_w`` is the share assigned by the cluster-level split;
    ``allocated_w`` is what the intra-rack coordination actually handed
    out (at most ``budget_w``).  ``lo_w`` / ``hi_w`` are the rack's
    aggregate floor and ceiling (sums over its participating slots).
    An immutable named tuple: every 1024-node decision builds 128 of
    them, and a tuple builds several times faster than a frozen
    dataclass.
    """

    index: int
    name: str
    start_slot: int
    n_nodes: int
    budget_w: float
    allocated_w: float
    lo_w: float
    hi_w: float

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "index": self.index,
            "name": self.name,
            "start_slot": self.start_slot,
            "n_nodes": self.n_nodes,
            "budget_w": self.budget_w,
            "allocated_w": self.allocated_w,
            "lo_w": self.lo_w,
            "hi_w": self.hi_w,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RackBudget":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            index=int(raw["index"]),
            name=str(raw["name"]),
            start_slot=int(raw["start_slot"]),
            n_nodes=int(raw["n_nodes"]),
            budget_w=float(raw["budget_w"]),
            allocated_w=float(raw["allocated_w"]),
            lo_w=float(raw["lo_w"]),
            hi_w=float(raw["hi_w"]),
        )


def split_cluster_budget(
    total_budget_w: float,
    factors: np.ndarray,
    lo_w: float | np.ndarray,
    hi_w: float | np.ndarray,
    rack_of_slot: tuple[int, ...] | np.ndarray,
    rack_names: tuple[str, ...] | None = None,
    threshold: float = VARIABILITY_THRESHOLD,
) -> tuple[np.ndarray, tuple[RackBudget, ...]]:
    """Split a cluster budget cluster → rack → node.

    Parameters
    ----------
    total_budget_w:
        Power available to all participating nodes together.
    factors:
        Per-slot efficiency factors (participating slots only).
    lo_w / hi_w:
        Acceptable per-node power range — scalar or one entry per
        participating slot.
    rack_of_slot:
        Rack index of each participating slot.  Slots of one rack must
        be contiguous (slots are filled in rack order).
    rack_names:
        Display names per rack index (defaults to ``rackN``).
    threshold:
        Variability spread below which intra-rack splits stay uniform.

    Returns
    -------
    (budgets, rack_budgets):
        Per-slot budgets (same order as ``factors``) and one
        :class:`RackBudget` per rack with participating slots.

    Raises
    ------
    SchedulingError
        If the budget cannot give every slot its floor, or the slots of
        a rack are not contiguous.
    """
    factors = np.asarray(factors, dtype=np.float64)
    n = len(factors)
    if n < 1:
        raise SchedulingError("need at least one participating node")
    rack_of = np.asarray(rack_of_slot[:n], dtype=np.int64)
    if len(rack_of) != n:
        raise SchedulingError("rack_of_slot must cover every participating slot")
    if np.any(np.diff(rack_of) < 0):
        raise SchedulingError("slots of one rack must be contiguous")
    lo = np.array(np.broadcast_to(np.asarray(lo_w, dtype=np.float64), (n,)))
    hi = np.array(np.broadcast_to(np.asarray(hi_w, dtype=np.float64), (n,)))
    if np.any(lo <= 0) or np.any(hi < lo):
        raise SchedulingError("invalid per-node power ranges")

    # racks that actually hold participating slots, in slot order
    present = np.unique(rack_of)
    n_present = len(present)
    # position of each slot's rack inside `present`
    pos = np.searchsorted(present, rack_of)
    rack_lo = np.bincount(pos, weights=lo, minlength=n_present)
    rack_hi = np.bincount(pos, weights=hi, minlength=n_present)
    sizes = np.bincount(pos, minlength=n_present)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)

    total_eff = min(float(total_budget_w), float(rack_hi.sum()))
    if total_eff < rack_lo.sum() - 1e-9:
        raise SchedulingError(
            f"budget {total_budget_w:.1f} W cannot give {n} nodes their "
            f"floors summing to {rack_lo.sum():.1f} W"
        )

    # cluster → rack: proportional to aggregate capacity, clamped into
    # each rack's [sum(lo), sum(hi)] by the node level's own step
    shares = clamp_to_ranges(
        total_eff, total_eff * rack_hi / rack_hi.sum(), rack_hi, rack_lo, rack_hi
    )

    # rack → node: every rack's variability-aware split in one pass
    budgets = coordinate_segments(shares, factors, lo, hi, sizes, threshold)
    allocated = segment_sums(budgets, sizes).tolist()
    names = (
        [f"rack{r}" for r in present.tolist()]
        if rack_names is None
        else [rack_names[r] for r in present.tolist()]
    )
    records = tuple(
        map(
            RackBudget,
            present.tolist(),
            names,
            starts.tolist(),
            sizes.tolist(),
            shares.tolist(),
            allocated,
            rack_lo.tolist(),
            rack_hi.tolist(),
        )
    )
    return budgets, records
