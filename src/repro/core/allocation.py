"""Cluster-level power allocation (§III-B.1, Algorithm 1 step 1).

Decides how many nodes participate and what power each gets, reasoning
entirely in CLIP's fitted models:

* The application's **acceptable node power range**
  ``[node_lo, node_hi]`` (from :class:`ClipPowerModel`) bounds how thin
  the budget may be sliced: below ``node_lo`` a node's performance
  collapses; above ``node_hi`` watts are wasted.
* Candidate node counts are those keeping the per-node share inside
  the range (or the application's predefined decomposition counts, per
  Algorithm 1's first branch).
* Following §III-B.1 ("determine the number of nodes by predicting the
  performance with different configurations"), each candidate is scored
  with the performance model — per-node iteration time at the
  achievable frequency, divided by the node count for the strong-scaled
  work — and the best predicted cluster performance wins.  The
  ``simple`` mode instead follows Algorithm 1's listed arithmetic
  literally (useful for ablations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core import hierarchy
from repro.core.coordination import VARIABILITY_THRESHOLD, coordinate_power
from repro.core.recommend import Recommender
from repro.errors import InfeasibleBudgetError, SchedulingError
from repro.units import check_positive

__all__ = ["ClusterAllocation", "ClusterAllocator", "RackLayout", "acceptable_range"]


def acceptable_range(recommender: Recommender) -> tuple[float, float]:
    """``(floor, ceiling)`` per-node power range of one hardware class.

    The ceiling is the power worth giving a node at the unbounded
    concurrency; the floor is the cheapest *candidate* concurrency
    — a node below the all-core floor can still contribute at
    reduced concurrency, CLIP's node-level lever.
    """
    n_threads = recommender.unbounded_concurrency()
    rng = recommender.power_model.power_range(n_threads)
    return recommender.min_floor_w(), rng.node_hi_w


@dataclass(frozen=True)
class ClusterAllocation:
    """Node count plus per-node budgets chosen for one job.

    ``node_lo_w`` / ``node_hi_w`` describe the primary (slot-0)
    hardware class.  ``node_ranges_w`` carries each participating
    slot's own ``(lo, hi)`` when the participating slots span more
    than one hardware class, and is ``None`` when they all share one
    class — every slot then has the primary range.
    """

    n_nodes: int
    node_budgets_w: tuple[float, ...]
    node_lo_w: float
    node_hi_w: float
    predicted_cluster_perf: float
    node_ranges_w: tuple[tuple[float, float], ...] | None = None
    rack_budgets_w: tuple[float, ...] | None = None

    @property
    def total_allocated_w(self) -> float:
        """Sum of per-node budgets (<= the cluster budget)."""
        return float(sum(self.node_budgets_w))

    @property
    def n_racks(self) -> int:
        """Racks the participating nodes span (1 on a flat cluster)."""
        return len(self.rack_budgets_w) if self.rack_budgets_w else 1


class RackLayout(NamedTuple):
    """A multi-rack fleet's slot-to-rack map, converted once per fleet.

    ``rack_of_slot`` is each slot's rack index (int64; slots run rack
    by rack), ``bounds`` the slot count up to and including each rack,
    and ``names`` the rack names in rack order.
    """

    rack_of_slot: np.ndarray
    bounds: tuple[int, ...]
    names: tuple[str, ...]

    @classmethod
    def of(cls, rack_of_slot, names: tuple[str, ...]) -> "RackLayout":
        """The layout of a fleet given each slot's rack index."""
        rack_of = np.asarray(rack_of_slot, dtype=np.int64)
        return cls(rack_of, tuple(np.cumsum(np.bincount(rack_of)).tolist()), names)


class ClusterAllocator:
    """Chooses node count and per-node budgets for one application.

    ``class_ranges`` holds one :func:`acceptable_range` per hardware
    class and ``slot_class`` each slot's index into it (default: one
    class, the recommender's).  Slots fill in order.  ``racks`` is the
    fleet's :class:`RackLayout`, ``None`` on a single-rack cluster.
    """

    def __init__(
        self,
        recommender: Recommender,
        n_total_nodes: int,
        node_factors: np.ndarray | None = None,
        variability_threshold: float = VARIABILITY_THRESHOLD,
        class_ranges: tuple[tuple[float, float], ...] | None = None,
        slot_class: np.ndarray | tuple[int, ...] | None = None,
        racks: RackLayout | None = None,
    ):
        if n_total_nodes < 1:
            raise SchedulingError("cluster must have at least one node")
        self._rec = recommender
        self._n_total = n_total_nodes
        self._factors = (
            np.asarray(node_factors, dtype=np.float64)
            if node_factors is not None
            else np.ones(n_total_nodes)
        )
        if len(self._factors) != n_total_nodes:
            raise SchedulingError("node_factors must cover every node")
        self._threshold = variability_threshold
        if class_ranges is None:
            class_ranges = (acceptable_range(recommender),)
        slot_class = (
            np.zeros(n_total_nodes, dtype=np.int64)
            if slot_class is None
            else np.asarray(slot_class, dtype=np.int64)
        )
        if len(slot_class) != n_total_nodes:
            raise SchedulingError("slot_class must cover every node")
        self._range = tuple(class_ranges[slot_class[0]])
        table = np.asarray(class_ranges, dtype=np.float64)
        self._lo = table[slot_class, 0]
        self._hi = table[slot_class, 1]
        # length of the leading run of slots sharing slot 0's class
        # (the first mismatch, or every slot): jobs no larger than this
        # have one shared (scalar) range
        self._n_one_class = (
            int((slot_class == slot_class[0]).argmin()) or n_total_nodes
        )
        # rack structure: None on a flat (single-rack) cluster;
        # multi-rack fleets split hierarchically and search
        # rack-decomposed candidates
        if racks is not None and len(racks.rack_of_slot) != n_total_nodes:
            raise SchedulingError("rack_of_slot must cover every node")
        self._racks = racks

    # ------------------------------------------------------------------

    def acceptable_range(self) -> tuple[float, float]:
        """The primary (slot-0) class's per-node range."""
        return self._range

    def candidate_node_counts(
        self, cluster_budget_w: float, predefined: tuple[int, ...] | None = None
    ) -> tuple[int, ...]:
        """Node counts whose per-node share lies in the acceptable range."""
        # slots are filled in order: n nodes fit when the first n
        # floors fit under the budget together
        max_nodes = int(
            self._lo.cumsum().searchsorted(cluster_budget_w + 1e-9, side="right")
        )
        if max_nodes < 1:
            raise InfeasibleBudgetError(
                f"cluster budget {cluster_budget_w:.1f} W below the single-node "
                f"floor {self._lo[0]:.1f} W"
            )
        if predefined:
            cands = tuple(n for n in sorted(predefined) if 1 <= n <= max_nodes)
            if not cands:
                raise InfeasibleBudgetError(
                    f"no predefined node count fits budget {cluster_budget_w:.1f} W"
                )
            return cands
        if self._racks is None:
            return tuple(range(1, max_nodes + 1))
        return self._rack_candidates(max_nodes)

    def _rack_candidates(self, max_nodes: int) -> tuple[int, ...]:
        """Rack-decomposed candidate node counts.

        Slots fill in rack order, and within one rack every node is
        interchangeable at the cluster-level granularity, so the search
        only needs (a) every count inside the first rack — the
        small-job regime where exact node count matters most — plus
        (b) each whole-rack prefix boundary, plus (c) the feasibility
        maximum.  Search cost scales with rack size, not fleet size.
        """
        bounds = self._racks.bounds
        cands = set(range(1, min(bounds[0], max_nodes) + 1))
        cands.update(b for b in bounds if b <= max_nodes)
        cands.add(max_nodes)
        return tuple(sorted(cands))

    def allocate(
        self,
        cluster_budget_w: float,
        predefined: tuple[int, ...] | None = None,
        mode: str = "predictive",
    ) -> ClusterAllocation:
        """Choose the node count and split the budget.

        ``mode='predictive'`` scores candidates with the performance
        model (the §III-B.1 procedure); ``mode='simple'`` applies
        Algorithm 1's listed arithmetic (largest count fitting the
        floor for predefined decompositions, budget over the range top
        otherwise).
        """
        check_positive(cluster_budget_w, "cluster budget", InfeasibleBudgetError)
        lo, hi = self.acceptable_range()
        if mode == "simple":
            n_nodes = self._simple_node_count(cluster_budget_w, predefined)
        elif mode == "predictive":
            n_nodes = self._predictive_node_count(cluster_budget_w, predefined)
        else:
            raise SchedulingError(f"unknown allocation mode {mode!r}")

        ranges = None
        if n_nodes <= self._n_one_class:
            # one hardware class: the shared range stays a scalar
            lo_b: float | np.ndarray = lo
            hi_b: float | np.ndarray = hi
            total = min(cluster_budget_w / n_nodes, hi) * n_nodes
        else:
            lo_b, hi_b = self._lo[:n_nodes], self._hi[:n_nodes]
            total = min(cluster_budget_w, float(hi_b.sum()))
            ranges = tuple(zip(lo_b.tolist(), hi_b.tolist()))
        rack_budgets = None
        if self._racks is None:
            budgets = coordinate_power(
                total, self._factors[:n_nodes], lo_b, hi_b, self._threshold
            )
        else:
            # multi-rack fleet: split cluster → rack → node
            budgets, rack_records = hierarchy.split_cluster_budget(
                total,
                self._factors[:n_nodes],
                lo_b,
                hi_b,
                self._racks.rack_of_slot,
                rack_names=self._racks.names,
                threshold=self._threshold,
            )
            rack_budgets = tuple(r.budget_w for r in rack_records)
        perf = self._predict_cluster_perf(n_nodes, float(np.mean(budgets)))
        return ClusterAllocation(
            n_nodes=n_nodes,
            node_budgets_w=tuple(budgets.tolist()),
            node_lo_w=lo,
            node_hi_w=hi,
            predicted_cluster_perf=perf,
            node_ranges_w=ranges,
            rack_budgets_w=rack_budgets,
        )

    # ------------------------------------------------------------------

    def _simple_node_count(
        self, budget: float, predefined: tuple[int, ...] | None
    ) -> int:
        """Algorithm 1's literal node-count arithmetic.

        Cumulative per-slot sums stand in for the ``n * lo`` /
        ``n * hi`` products: n nodes fit when the first n floors fit,
        and the "each node at the range top" count is the largest n
        whose ceilings sum under the budget.
        """
        floors = np.cumsum(self._lo)
        if predefined:
            fitting = [
                n
                for n in sorted(predefined)
                if n <= self._n_total and floors[n - 1] <= budget + 1e-9
            ]
            if not fitting:
                raise InfeasibleBudgetError(
                    f"no predefined count fits {budget:.1f} W at floor "
                    f"{self._lo[0]:.1f} W"
                )
            return fitting[-1]
        ceilings = np.cumsum(self._hi)
        if budget > ceilings[-1]:
            return self._n_total
        n = int(np.searchsorted(ceilings, budget + 1e-9, side="right"))
        if n >= 1:
            return n
        if budget >= self._lo[0]:
            return 1
        raise InfeasibleBudgetError(
            f"budget {budget:.1f} W below single-node floor {self._lo[0]:.1f} W"
        )

    def _predictive_node_count(
        self, budget: float, predefined: tuple[int, ...] | None
    ) -> int:
        """Score candidate counts with the performance model.

        The per-node share clamps to the acceptable ceiling, so many
        candidate counts collapse to the same recommendation input on a
        large fleet — the recommender is consulted once per *unique*
        clamped share, keeping the scan's model cost bounded by the
        number of distinct shares rather than the fleet size.
        """
        _, hi = self.acceptable_range()
        best_n, best_perf = None, -np.inf
        memo: dict[float, float] = {}
        for n in self.candidate_node_counts(budget, predefined):
            share = min(budget / n, hi)
            node_perf = memo.get(share)
            if node_perf is None:
                node_perf = self._predict_node_perf(share)
                memo[share] = node_perf
            perf = node_perf * n
            if perf > best_perf * (1.0 + 1e-9):
                best_n, best_perf = n, perf
        if best_n is None:  # pragma: no cover - candidates is non-empty
            raise InfeasibleBudgetError("no feasible node count")
        return best_n

    def _predict_cluster_perf(self, n_nodes: int, node_budget: float) -> float:
        """Predicted job throughput at a candidate allocation.

        The profile measured full-problem single-node iteration times;
        with the work strong-scaled over *n_nodes*, the predicted step
        time is the node time divided by the node count (CLIP has no
        communication model — the allocator's estimate is deliberately
        the paper's optimistic one).
        """
        return self._predict_node_perf(node_budget) * n_nodes

    def _predict_node_perf(self, node_budget: float) -> float:
        """Predicted single-node throughput at a candidate budget."""
        _, hi = self.acceptable_range()
        try:
            cfg = self._rec.choose(min(node_budget, hi))
        except InfeasibleBudgetError:
            return -np.inf
        return cfg.predicted_perf
