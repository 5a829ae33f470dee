"""A simulated compute node.

:class:`SimulatedNode` composes the per-node substrate pieces — power
model (with this node's variability factor), RAPL interface, NUMA
topology, and a power meter — behind the small
surface the execution engine and CLIP's helper tools use.  The node's
registers, counters and meter readings live in one row of a
:class:`~repro.hw.rapl.CapBank`.
"""

from __future__ import annotations

from repro.hw.meter import PowerMeter
from repro.hw.numa import NumaTopology
from repro.hw.power import PowerModel
from repro.hw.rapl import CapBank, Domain, RaplInterface
from repro.hw.specs import NodeSpec

__all__ = ["SimulatedNode"]


class SimulatedNode:
    """One node of the simulated testbed.

    Parameters
    ----------
    spec:
        Static node description.
    node_id:
        Position in the cluster.
    efficiency:
        Manufacturing-variability multiplier for this part.
    bank:
        The fleet bank whose row *node_id* this node's state lives in,
        reset as a new node's; a one-row bank of its own when omitted.
    """

    def __init__(
        self, spec: NodeSpec, node_id: int = 0, efficiency: float = 1.0,
        bank: CapBank | None = None,
    ):
        self._spec = spec
        self._node_id = node_id
        self._power_model = PowerModel(spec, efficiency=efficiency)
        bank, row = (CapBank(1), 0) if bank is None else (bank, node_id)
        self._rapl = RaplInterface(self._power_model, bank, row)
        self._numa = NumaTopology(spec)
        self._meter = PowerMeter(bank, row)

    # -- identity ------------------------------------------------------

    @property
    def spec(self) -> NodeSpec:
        """Static description of the node."""
        return self._spec

    @property
    def node_id(self) -> int:
        """Cluster-wide index of this node."""
        return self._node_id

    @property
    def efficiency(self) -> float:
        """This part's variability multiplier."""
        return self._power_model.efficiency

    # -- substrate components ------------------------------------------

    @property
    def power_model(self) -> PowerModel:
        """Ground-truth power model (includes the variability factor)."""
        return self._power_model

    @property
    def rapl(self) -> RaplInterface:
        """RAPL cap/measurement interface."""
        return self._rapl

    @property
    def numa(self) -> NumaTopology:
        """NUMA topology of the node."""
        return self._numa

    @property
    def meter(self) -> PowerMeter:
        """Wall-power meter for this node."""
        return self._meter

    # -- convenience ----------------------------------------------------

    def set_power_caps(
        self,
        pkg_w: float | None,
        dram_w: float | None,
        gpu_w: float | None = None,
    ) -> None:
        """Program the RAPL limits at once (``None`` clears a limit).

        The GPU limit applies only on accelerator-bearing nodes; on
        CPU-only nodes it is ignored (the domain does not exist).
        """
        self._rapl.set_cap(Domain.PKG, pkg_w)
        self._rapl.set_cap(Domain.DRAM, dram_w)
        if self._spec.has_gpu:
            self._rapl.set_cap(Domain.GPU, gpu_w)
