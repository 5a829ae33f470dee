"""The simulated cluster: a set of nodes plus interconnect facts.

This is the full stand-in for the paper's 8-node Haswell testbed.  It
owns the :class:`~repro.hw.variability.VariabilityModel`, instantiates
one :class:`~repro.hw.node.SimulatedNode` per slot with its drawn
efficiency factor, each born in its row of one
:class:`~repro.hw.rapl.CapBank` (registers, counters and meter), and
exposes the aggregate power-range facts the cluster-level allocator
needs.
"""

from __future__ import annotations

from repro.errors import NodeFailureError, SpecError
from repro.hw.node import SimulatedNode
from repro.hw.rapl import CapBank
from repro.hw.specs import ClusterSpec, haswell_testbed, mixed_testbed
from repro.hw.variability import VariabilityModel

__all__ = ["SimulatedCluster"]


class SimulatedCluster:
    """A cluster of simulated nodes."""

    def __init__(self, spec: ClusterSpec):
        self._spec = spec
        self._variability = VariabilityModel(
            spec.n_nodes, sigma=spec.variability_sigma, seed=spec.variability_seed
        )
        self._cap_bank = CapBank(spec.n_nodes)
        self._nodes = [
            SimulatedNode(node_spec, node_id=i, efficiency=f, bank=self._cap_bank)
            for i, (node_spec, f) in enumerate(
                zip(spec.node_specs, self._variability.factors)
            )
        ]
        self._failed: set[int] = set()

    @classmethod
    def testbed(cls, **kwargs) -> "SimulatedCluster":
        """The paper's 8-node dual-socket Haswell testbed (§V-A)."""
        return cls(haswell_testbed(**kwargs))

    @classmethod
    def mixed_testbed(cls) -> "SimulatedCluster":
        """The mixed fleet: 4× Haswell + 4× Broadwell behind one fabric."""
        return cls(mixed_testbed())

    @property
    def spec(self) -> ClusterSpec:
        """Static cluster description."""
        return self._spec

    @property
    def variability(self) -> VariabilityModel:
        """Per-node efficiency factors."""
        return self._variability

    @property
    def cap_bank(self) -> CapBank:
        """Every node's hardware state as arrays, one row per node id."""
        return self._cap_bank

    @property
    def nodes(self) -> tuple[SimulatedNode, ...]:
        """All nodes, indexed by node id."""
        return tuple(self._nodes)

    def degrade_node(self, node_id: int, factor: float) -> SimulatedNode:
        """Worsen one node's power efficiency mid-life (fault injection).

        Models field events — thermal-paste degradation, a failing fan
        forcing higher leakage — by replacing the node with one whose
        efficiency multiplier is scaled by *factor* (> 1 means more
        watts for the same work).  The slot's bank row resets in place
        with the replacement — caps, counters, meter and fault models —
        as it would across the implied maintenance reboot; the replaced
        node object views the same row, so callers drop it.  Returns the
        new node.
        """
        old = self.node(node_id)
        if factor <= 0:
            raise SpecError(f"degradation factor must be > 0, got {factor}")
        return self._refill(old, old.efficiency * factor)

    def _refill(self, old: SimulatedNode, efficiency: float) -> SimulatedNode:
        # rebuild from the node's *own* spec — in a mixed cluster a
        # Broadwell slot must come back as a Broadwell
        node = SimulatedNode(
            old.spec, node_id=old.node_id, efficiency=efficiency,
            bank=self._cap_bank,
        )
        self._nodes[old.node_id] = node
        return node

    # -- node failure state (fault injection) ---------------------------

    def fail_node(self, node_id: int) -> None:
        """Mark one node failed (crash, PSU loss, network partition).

        A failed node keeps its slot and identity but may not
        participate in runs until :meth:`recover_node` refills its
        slot (and resets its bank row) with a fresh node.
        """
        self.node(node_id)  # raises on an id outside the cluster
        self._failed.add(node_id)

    def recover_node(self, node_id: int) -> SimulatedNode:
        """Return a failed node to service after its implied reboot.

        The slot is refilled with a fresh node at the same efficiency
        factor, its bank row reset in place across the reboot, exactly
        as in :meth:`degrade_node`.  Returns the new node.
        """
        old = self.node(node_id)
        if node_id not in self._failed:
            raise NodeFailureError(f"node {node_id} is not failed")
        self._failed.discard(node_id)
        return self._refill(old, old.efficiency)

    def is_available(self, node_id: int) -> bool:
        """Whether the node is in service (exists and is not failed)."""
        return 0 <= node_id < self.n_nodes and node_id not in self._failed

    @property
    def failed_node_ids(self) -> tuple[int, ...]:
        """Ids of the nodes currently marked failed, ascending."""
        return tuple(sorted(self._failed))

    @property
    def available_node_ids(self) -> tuple[int, ...]:
        """Ids of the nodes currently in service, ascending."""
        return tuple(i for i in range(self.n_nodes) if i not in self._failed)

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the cluster."""
        return self._spec.n_nodes

    # -- rack structure (fleet-scale specs) -----------------------------

    @property
    def n_racks(self) -> int:
        """Number of racks (1 for a flat single-rack cluster)."""
        return self._spec.n_racks

    def node(self, node_id: int) -> SimulatedNode:
        """Access one node by id."""
        if not 0 <= node_id < self.n_nodes:
            raise SpecError(f"node id {node_id} outside [0, {self.n_nodes})")
        return self._nodes[node_id]

    def reset(self) -> None:
        """Reset every node (caps, meters, fault models) in one pass
        over the bank; RAPL energy and throttle counters keep counting."""
        self._cap_bank.clear()

    # -- aggregate power facts used by cluster-level allocation ---------

    @property
    def p_max_w(self) -> float:
        """Peak cluster power with every node flat out."""
        return self._spec.p_cluster_max_w
