"""Multi-job power and node partitioning.

The paper evaluates one job at a time; its related work (POW-shed,
Ellsworth et al. SC'15 [11]) "shifts power to more power-intensive
applications to improve throughput without exploring concurrency
throttling".  This extension combines both ideas: partition the
cluster's nodes *and* its power budget across several concurrent jobs
using each job's CLIP models (acceptable ranges + predicted
performance), including per-job concurrency throttling.

The partitioner is a marginal-utility greedy: every job starts from the
smallest feasible allocation (one node at its power floor), then node
and power increments are repeatedly granted to the job whose predicted
*relative* throughput (against its unbounded prediction) gains most —
maximizing the geometric-mean progress across jobs, the usual fairness
objective for co-scheduled HPC workloads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.recommend import NodeConfig, Recommender
from repro.core.scheduler import ClipScheduler
from repro.errors import InfeasibleBudgetError, SchedulingError
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["JobPlacement", "MultiJobCoordinator"]

#: Power granted per greedy step (watts).
POWER_STEP_W = 25.0


@dataclass(frozen=True)
class JobPlacement:
    """One job's share of the cluster."""

    app_name: str
    node_ids: tuple[int, ...]
    budget_w: float
    config: NodeConfig

    @property
    def n_nodes(self) -> int:
        """Nodes granted to this job."""
        return len(self.node_ids)


class _JobState:
    """Mutable partitioning state for one job."""

    def __init__(self, app: WorkloadCharacteristics, recommender: Recommender):
        self.app = app
        self.rec = recommender
        self.n_nodes = 1
        floor = recommender.min_floor_w()
        self.budget = floor * 1.02  # minimal feasible allocation
        self.floor = floor
        hi_threads = recommender.unbounded_concurrency()
        self.hi_per_node = recommender.power_model.power_range(hi_threads).node_hi_w
        self.unbounded_perf = recommender.choose(
            self.hi_per_node
        ).predicted_perf

    def predicted_relative(
        self, n_nodes: int | None = None, budget: float | None = None
    ) -> float:
        """Predicted throughput relative to this job's unbounded run."""
        n = n_nodes if n_nodes is not None else self.n_nodes
        b = budget if budget is not None else self.budget
        per_node = min(b / n, self.hi_per_node)
        if per_node < self.floor:
            return 0.0
        try:
            cfg = self.rec.choose(per_node)
        except InfeasibleBudgetError:
            return 0.0
        return cfg.predicted_perf * n / (self.unbounded_perf * 1.0)


class MultiJobCoordinator:
    """Partition nodes and power across concurrent jobs."""

    def __init__(self, scheduler: ClipScheduler):
        self._scheduler = scheduler

    def partition(
        self,
        apps: list[WorkloadCharacteristics],
        total_budget_w: float,
        node_ids: tuple[int, ...] | None = None,
    ) -> list[JobPlacement]:
        """Split nodes and power across *apps*.

        ``node_ids`` restricts the placement to a pool of nodes (e.g.
        the survivors after a failure); it defaults to the whole
        cluster.  Raises :class:`InfeasibleBudgetError` if the budget
        (or node count) cannot give every job its minimal feasible
        allocation.
        """
        if not apps:
            raise SchedulingError("need at least one job")
        pool = (
            tuple(node_ids)
            if node_ids is not None
            else tuple(range(self._scheduler.engine.cluster.n_nodes))
        )
        if len(apps) > len(pool):
            raise SchedulingError(
                f"{len(apps)} jobs exceed the {len(pool)}-node pool"
            )
        # the shared pipeline caches the fitted model bundle per entry,
        # so repeated partitions of the same jobs fit nothing new
        pipeline = self._scheduler.pipeline
        states = [
            _JobState(app, pipeline.bundle_for(app).recommender) for app in apps
        ]

        spent = sum(s.budget for s in states)
        if spent > total_budget_w:
            raise InfeasibleBudgetError(
                f"budget {total_budget_w:.0f} W below the jobs' combined "
                f"floor {spent:.0f} W"
            )
        free_nodes = len(pool) - len(states)
        free_power = total_budget_w - spent

        # Marginal-utility greedy over (grant node | grant power) moves.
        # Gains are measured in *log* relative throughput, the gradient
        # of the geometric-mean objective: a grant to a starved job
        # (low current relative) outranks the same absolute gain to a
        # nearly-saturated one.
        def log_gain(base: float, new: float) -> float:
            if new <= base:
                return 0.0
            return float(np.log(new / max(base, 1e-6)))

        while True:
            best = None  # (gain, state, kind, amount)
            for s in states:
                base = s.predicted_relative()
                if free_nodes >= 1 and s.budget >= (s.n_nodes + 1) * s.floor:
                    gain = log_gain(
                        base, s.predicted_relative(n_nodes=s.n_nodes + 1)
                    )
                    if best is None or gain > best[0]:
                        best = (gain, s, "node", 1)
                if free_power >= POWER_STEP_W:
                    gain = log_gain(
                        base, s.predicted_relative(budget=s.budget + POWER_STEP_W)
                    )
                    if best is None or gain > best[0]:
                        best = (gain, s, "power", POWER_STEP_W)
            if best is None or best[0] <= 1e-9:
                break
            _, s, kind, amount = best
            if kind == "node":
                s.n_nodes += 1
                free_nodes -= 1
            else:
                s.budget += amount
                free_power -= amount

        # materialize placements on disjoint node ids from the pool
        placements: list[JobPlacement] = []
        next_node = 0
        for s in states:
            per_node = min(s.budget / s.n_nodes, s.hi_per_node)
            cfg = s.rec.recommend(per_node)
            ids = pool[next_node : next_node + s.n_nodes]
            next_node += s.n_nodes
            placements.append(
                JobPlacement(
                    app_name=s.app.name,
                    node_ids=ids,
                    budget_w=per_node * s.n_nodes,
                    config=cfg,
                )
            )
        return placements
