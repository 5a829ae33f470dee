"""NUMA topology: socket layout and placement queries.

The paper's nodes are dual-socket NUMA machines; CLIP's node level
chooses both *how many* threads to run and *where* to put them
("core-thread affinity", §I).  This module provides the topology facts
those decisions consume:

* which socket owns each core,
* the remote-access fraction implied by a placement and a page policy.

Placement policies themselves live in :mod:`repro.sim.affinity`; this
module is policy-free.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import AffinityError, SpecError
from repro.hw.specs import NodeSpec

__all__ = ["AffinityKind", "NumaTopology"]


class AffinityKind(enum.Enum):
    """Thread placement families the framework selects between.

    COMPACT fills one socket before spilling to the next — best for
    workloads dominated by shared-cache reuse and synchronization.
    SCATTER round-robins threads across sockets — best for
    bandwidth-bound workloads because it engages both memory
    controllers.  This is the "mapping preference" CLIP's smart
    profiler distinguishes (§IV-B.1, citing [16]).
    """

    COMPACT = "compact"
    SCATTER = "scatter"


class NumaTopology:
    """Socket/core layout of one node and placement queries."""

    def __init__(self, node: NodeSpec):
        self._n_sockets = node.n_sockets
        self._cores_per_socket = node.socket.n_cores

    @property
    def n_sockets(self) -> int:
        """Number of NUMA domains (sockets)."""
        return self._n_sockets

    @property
    def cores_per_socket(self) -> int:
        """Physical cores per socket."""
        return self._cores_per_socket

    @property
    def n_cores(self) -> int:
        """Total cores on the node."""
        return self._n_sockets * self._cores_per_socket

    def socket_of(self, core: int) -> int:
        """NUMA domain owning *core*.  Cores are numbered socket-major."""
        if not 0 <= core < self.n_cores:
            raise AffinityError(f"core {core} outside [0, {self.n_cores})")
        return core // self._cores_per_socket

    def threads_per_socket(self, placement) -> np.ndarray:
        """Histogram of a placement's threads over sockets.

        *placement* is a sequence of core ids (one per thread).
        """
        counts = np.zeros(self._n_sockets, dtype=np.int64)
        seen: set[int] = set()
        for core in placement:
            if core in seen:
                raise AffinityError(f"core {core} assigned to two threads")
            seen.add(core)
            counts[self.socket_of(core)] += 1
        return counts

    def sockets_used(self, placement) -> int:
        """Number of sockets with at least one thread."""
        return int(np.count_nonzero(self.threads_per_socket(placement)))

    def remote_access_fraction(
        self, placement, shared_fraction: float
    ) -> float:
        """Fraction of memory accesses crossing the QPI link.

        The model assumes first-touch page placement: a thread's
        *private* pages are always local, while accesses to the
        application's *shared* working set (a ``shared_fraction`` of all
        accesses) land on each socket proportionally to its thread
        count.  For a placement with thread shares :math:`s_i` per
        socket, the probability a shared access is remote is
        :math:`1 - \\sum_i s_i^2` (access issued by socket *i* with
        probability :math:`s_i`, data homed on socket *j* with
        probability :math:`s_j`).
        """
        if not 0.0 <= shared_fraction <= 1.0:
            raise SpecError(f"shared_fraction must lie in [0,1]: {shared_fraction}")
        counts = self.threads_per_socket(placement)
        total = counts.sum()
        if total == 0:
            return 0.0
        shares = counts / total
        p_remote_shared = 1.0 - float(np.sum(shares**2))
        return shared_fraction * p_remote_shared
