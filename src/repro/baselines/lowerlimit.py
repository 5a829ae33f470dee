"""The Lower-Limit baseline (§V-C).

"This method ensures that no nodes participating in the computation
are allocated a budget less than a preset value, i.e., 180 Watts.  If
the total power budget cannot allocate every node more than 180 watts,
the scheduler decreases the number of active nodes.  Additionally, this
method utilizes all cores on each active node and allocates 30 watts to
memory."

The 180 W floor is application-*oblivious* — the same preset for every
code — which is exactly what CLIP's application-specific acceptable
range improves on.
"""

from __future__ import annotations

from repro.baselines.allin import ALLIN_MEM_W
from repro.baselines.base import PowerBoundedScheduler
from repro.errors import InfeasibleBudgetError
from repro.sim.engine import ExecutionConfig
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["LowerLimitScheduler", "NODE_FLOOR_W"]

#: The preset per-node budget floor.
NODE_FLOOR_W = 180.0


class LowerLimitScheduler(PowerBoundedScheduler):
    """Shed nodes until each active node gets at least 180 W."""

    name = "Lower-Limit"

    def plan(
        self, app: WorkloadCharacteristics, cluster_budget_w: float
    ) -> ExecutionConfig:
        """Shed nodes until each share clears the preset floor."""
        cluster = self.engine.cluster
        n_nodes = min(int(cluster_budget_w // NODE_FLOOR_W), cluster.n_nodes)
        if n_nodes < 1:
            raise InfeasibleBudgetError(
                f"Lower-Limit: budget {cluster_budget_w:.1f} W below the "
                f"{NODE_FLOOR_W:.0f} W single-node floor"
            )
        node_share = cluster_budget_w / n_nodes
        return ExecutionConfig(
            n_nodes=n_nodes,
            n_threads=min(s.n_cores for s in cluster.spec.node_specs),
            pkg_cap_w=node_share - ALLIN_MEM_W,
            dram_cap_w=ALLIN_MEM_W,
        )
