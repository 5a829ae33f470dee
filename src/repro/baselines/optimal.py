"""Oracle: exhaustive configuration search.

The paper repeatedly compares CLIP against "the optimal solution"
found "through an exhaustive search" (Figs. 7–9 discussion).  On the
simulated testbed we can afford the real thing: sweep node counts,
thread counts, both affinities, and a grid of CPU/DRAM splits;
execute each candidate with a short iteration count; keep the best
*budget-respecting* result.

This is also the upper bound the Conductor-style related work would
approach at much higher search cost — CLIP's claim is getting close
with 2–3 profiling runs.

The search runs on the engine's what-if evaluation
(:meth:`ExecutionEngine.evaluate_many`): all surviving candidates are
scored in one call — as one ``(n_candidates, n_nodes)`` array program
unless they span only a handful of node-cells — and
candidates whose *analytic power floor* already exceeds the budget are
pruned before simulation.  The floor comes from the Eq. 4–9 power
model: a node hosting ``n`` threads draws at least

    ``(n_sockets * P_base_pkg + n * P_leak + n_sockets * P_base_dram) * eff``

(zero dynamic power, zero delivered bandwidth), so when the floors of
the participating nodes sum above the tolerated budget the candidate
can never pass the budget filter — skipping it cannot change the
search result.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import accumulate

import numpy as np

from repro.baselines.base import PowerBoundedScheduler
from repro.errors import InfeasibleBudgetError
from repro.hw.numa import AffinityKind
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["OracleScheduler"]

#: Iterations used to score candidates during the search.
SEARCH_ITERATIONS = 2

#: Budget tolerance: a candidate qualifies if the sum of its nodes'
#: steady-state capped power stays within this factor of the budget.
BUDGET_TOLERANCE = 1.0 + 1e-6

#: Extra relative slack applied to the pruning floor so float noise can
#: never prune a candidate the budget filter would have accepted.
_PRUNE_MARGIN = 1.0 + 1e-9


class OracleScheduler(PowerBoundedScheduler):
    """Exhaustive search over the configuration space.

    The DRAM-cap grid is the exact hardware floor (``n_sockets *
    P_base_dram``, the lowest cap the memory can honor) plus five points
    up to the DRAM domain maximum.

    Parameters
    ----------
    thread_step:
        Stride of the thread sweep.  One thread is always tried in
        addition to the stepped range, so ``thread_step=2`` covers
        ``1, 2, 4, ...`` instead of silently skipping serial execution.
    """

    name = "Optimal"

    def __init__(
        self,
        engine: ExecutionEngine,
        thread_step: int = 2,
    ):
        super().__init__(engine)
        classes = engine.cluster.spec.node_classes
        # every grid point must be honorable on every class: floor at
        # the highest class floor, ceiling at the lowest class max
        lo = max(s.n_sockets * s.socket.memory.p_base_w for s in classes)
        hi = min(s.p_mem_max_w for s in classes)
        self._dram_grid = (lo,) + tuple(
            float(w) for w in np.linspace(lo + 2.0, hi, 5)
        )
        self._thread_step = max(1, thread_step)
        min_cores = min(s.n_cores for s in classes)
        self._thread_grid = tuple(
            sorted({1} | set(range(self._thread_step, min_cores + 1, self._thread_step)))
        )
        self._last_stats: dict[str, int] = {}

    @property
    def thread_grid(self) -> tuple[int, ...]:
        """Thread counts the search sweeps."""
        return self._thread_grid

    @property
    def dram_grid_w(self) -> tuple[float, ...]:
        """DRAM caps the search sweeps."""
        return self._dram_grid

    @property
    def search_stats(self) -> dict[str, int]:
        """Bookkeeping of the most recent :meth:`plan` call.

        Keys: ``candidates`` (full enumeration size), ``pruned``
        (skipped by the analytic floor), ``evaluated`` (simulated),
        ``feasible`` (passed the budget filter).
        """
        return dict(self._last_stats)

    def _candidate_node_counts(self) -> tuple[int, ...]:
        """Node counts the exhaustive sweep enumerates.

        A flat (single-rack) cluster sweeps every count — the paper's
        8-node exhaustive search, bit-identical to previous releases.
        A multi-rack fleet decomposes by rack: slots fill in rack
        order and racks repeat the same hardware groups, so the sweep
        needs every count within the first rack plus each whole-rack
        prefix boundary — search cost scales with rack size, not fleet
        size.
        """
        cluster = self.engine.cluster
        if cluster.n_racks <= 1:
            return tuple(range(1, cluster.n_nodes + 1))
        boundaries = list(accumulate(cluster.spec.rack_sizes))
        cands = set(range(1, boundaries[0] + 1))
        cands.update(boundaries)
        return tuple(sorted(cands))

    def plan(
        self, app: WorkloadCharacteristics, cluster_budget_w: float
    ) -> ExecutionConfig:
        """Exhaustively search and return the best budget-respecting config."""
        cluster = self.engine.cluster
        homogeneous = cluster.spec.is_homogeneous
        # Eq. 4-9 floor: per-thread leakage on top of the package and
        # DRAM base powers, scaled by each node's variability factor.
        if homogeneous:
            node = cluster.spec.node_specs[0]
            static_base = (
                node.n_sockets * node.socket.p_base_w
                + node.n_sockets * node.socket.memory.p_base_w
            )
            p_leak = node.socket.core.p_leak_w
            eff_prefix = list(accumulate(n.efficiency for n in cluster.nodes))
        else:
            # mixed cluster: each slot contributes its own class's base
            # and leakage terms, so the floor splits into two prefixes
            static_prefix = list(
                accumulate(
                    (
                        n.spec.n_sockets * n.spec.socket.p_base_w
                        + n.spec.n_sockets * n.spec.socket.memory.p_base_w
                    )
                    * n.efficiency
                    for n in cluster.nodes
                )
            )
            leak_prefix = list(
                accumulate(
                    n.spec.socket.core.p_leak_w * n.efficiency
                    for n in cluster.nodes
                )
            )

        candidates: list[ExecutionConfig] = []
        total = 0
        pruned = 0
        for n_nodes in self._candidate_node_counts():
            node_share = cluster_budget_w / n_nodes
            for dram in self._dram_grid:
                pkg = node_share - dram
                if pkg <= 0:
                    continue
                for n_threads in self._thread_grid:
                    total += len(AffinityKind)
                    if homogeneous:
                        floor = (static_base + n_threads * p_leak) * eff_prefix[
                            n_nodes - 1
                        ]
                    else:
                        floor = (
                            static_prefix[n_nodes - 1]
                            + n_threads * leak_prefix[n_nodes - 1]
                        )
                    if floor > cluster_budget_w * BUDGET_TOLERANCE * _PRUNE_MARGIN:
                        pruned += len(AffinityKind)
                        continue
                    for kind in AffinityKind:
                        candidates.append(
                            ExecutionConfig(
                                n_nodes=n_nodes,
                                n_threads=n_threads,
                                affinity=kind,
                                pkg_cap_w=pkg,
                                dram_cap_w=dram,
                                iterations=SEARCH_ITERATIONS,
                            )
                        )

        results = self.engine.evaluate_many(app, candidates)

        best_cfg: ExecutionConfig | None = None
        best_perf = -np.inf
        feasible = 0
        for cfg, result in zip(candidates, results):
            drawn = sum(
                r.operating_point.pkg_power_w + r.operating_point.dram_power_w
                for r in result.nodes
            )
            if drawn > cluster_budget_w * BUDGET_TOLERANCE:
                continue  # cap floor overshot the budget
            feasible += 1
            if result.performance > best_perf:
                best_perf = result.performance
                best_cfg = cfg
        self._last_stats = {
            "candidates": total,
            "pruned": pruned,
            "evaluated": len(candidates),
            "feasible": feasible,
        }
        if best_cfg is None:
            raise InfeasibleBudgetError(
                f"oracle found no budget-respecting configuration at "
                f"{cluster_budget_w:.1f} W"
            )
        return replace(best_cfg, iterations=None)
