"""Manufacturing variability across nodes.

Nominally identical parts differ in leakage and efficiency; under a
uniform power cap that variation becomes a *performance* variation and
inflates synchronization cost (Inadomi et al., SC'15 [20], which the
paper adopts in §III-B.2).  We model it as a per-node multiplicative
efficiency factor applied to PKG and DRAM power: a node with factor
1.05 burns 5 % more power for the same work, so under the same cap it
runs proportionally slower.

Factors are drawn once per cluster from a truncated normal and are
deterministic in the seed, so experiments are reproducible.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SpecError
from repro.units import check_non_negative

__all__ = ["VariabilityModel"]


class VariabilityModel:
    """Per-node power-efficiency multipliers for a cluster."""

    #: Truncation width: factors stay within 3 sigma of 1.0.
    TRUNCATION_SIGMAS = 3.0

    def __init__(self, n_nodes: int, sigma: float = 0.03, seed: int = 2017):
        if n_nodes < 1:
            raise SpecError(f"n_nodes must be >= 1, got {n_nodes}")
        check_non_negative(sigma, "sigma")
        if sigma >= 0.5:
            raise SpecError("sigma >= 0.5 would allow non-physical factors")
        self._n_nodes = n_nodes
        self._sigma = sigma
        self._seed = seed
        rng = np.random.default_rng(seed)
        width = self.TRUNCATION_SIGMAS * sigma
        raw = rng.normal(loc=1.0, scale=sigma, size=n_nodes) if sigma > 0 else np.ones(n_nodes)
        self._factors = np.clip(raw, 1.0 - width, 1.0 + width)

    @property
    def n_nodes(self) -> int:
        """Number of nodes the model covers."""
        return self._n_nodes

    @property
    def sigma(self) -> float:
        """Relative standard deviation of the efficiency factors."""
        return self._sigma

    @property
    def seed(self) -> int:
        """Seed the factors were drawn with."""
        return self._seed

    @property
    def factors(self) -> np.ndarray:
        """Efficiency multipliers, one per node (copy)."""
        return self._factors.copy()

    @property
    def spread(self) -> float:
        """Max-to-min factor ratio minus one.

        This is the statistic CLIP compares against its coordination
        threshold (§III-B.2): when the spread is below the threshold
        the testbed is "quite homogeneous" and no inter-node shifting
        is performed.
        """
        return float(self._factors.max() / self._factors.min() - 1.0)
