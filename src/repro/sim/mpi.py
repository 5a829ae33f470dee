"""Inter-node communication model.

An alpha–beta (latency–bandwidth) model of the hybrid applications' MPI
step, in the spirit of the buffer-based communication idioms of mpi4py:
per iteration each rank exchanges halo messages with neighbours and/or
participates in collectives.  The model captures the two cluster-level
effects CLIP's allocator must weigh:

* communication cost *grows* with node count (more surfaces, deeper
  collective trees), opposing the compute gain of adding nodes;
* halo volume per node *shrinks* as the per-node domain shrinks
  (surface-to-volume under strong scaling).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.hw.specs import ClusterSpec
from repro.units import check_positive
from repro.workloads.characteristics import CommPattern, WorkloadCharacteristics

__all__ = ["CommModel"]

#: Payload of one allreduce element set (bytes) — small, latency-bound.
ALLREDUCE_BYTES = 4096.0


class CommModel:
    """Per-iteration communication time for one application."""

    def __init__(self, cluster: ClusterSpec):
        self._alpha = cluster.link_latency_s
        self._beta = 1.0 / check_positive(
            cluster.link_bandwidth, "link_bandwidth"
        )
        self._max_nodes = cluster.n_nodes

    @property
    def alpha_s(self) -> float:
        """Per-message latency (seconds)."""
        return self._alpha

    @property
    def beta_s_per_byte(self) -> float:
        """Per-byte transfer time (seconds/byte)."""
        return self._beta

    def halo_bytes(self, chars: WorkloadCharacteristics, n_nodes: int) -> float:
        """Per-node halo volume per iteration at *n_nodes*.

        ``comm_bytes_per_iter`` is the reference volume of the 1-node
        decomposition.  Under strong scaling (the global problem divided
        over the nodes) the per-node surface shrinks as
        :math:`(1/N)^{2/3}` (3-D domain decompositions).
        """
        return chars.comm_bytes_per_iter * n_nodes ** (-2.0 / 3.0)

    def iteration_time(
        self, chars: WorkloadCharacteristics, n_nodes: int
    ) -> float:
        """Communication seconds added to each bulk-synchronous step."""
        if not 1 <= n_nodes <= self._max_nodes:
            raise WorkloadError(
                f"n_nodes {n_nodes} outside [1, {self._max_nodes}]"
            )
        if n_nodes == 1 or chars.comm_pattern is CommPattern.NONE:
            return 0.0
        if chars.comm_pattern is CommPattern.HALO:
            msgs = chars.comm_msgs_per_iter
            vol = self.halo_bytes(chars, n_nodes)
            # neighbour exchanges proceed concurrently; one message set
            # per direction pays latency, the volume pays bandwidth
            return msgs * self._alpha + vol * self._beta
        if chars.comm_pattern is CommPattern.ALLREDUCE:
            depth = float(np.ceil(np.log2(n_nodes)))
            return depth * (self._alpha + ALLREDUCE_BYTES * self._beta)
        raise WorkloadError(  # pragma: no cover - enum exhaustive
            f"unknown comm pattern {chars.comm_pattern!r}"
        )
