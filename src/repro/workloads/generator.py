"""Randomized synthetic application generator.

CLIP's inflection-point regression is trained on a corpus of benchmarks
(NPB, HPCC, STREAM, PolyBench — §V-B.2).  We stand that corpus in with
randomized :class:`WorkloadCharacteristics` drawn from ranges wide
enough to cover all three scalability classes; the generator is seeded
and therefore reproducible.

Draws are rejection-filtered so a requested class mix can be produced
(e.g. "give me 40 logarithmic apps" for Fig. 7's training set).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.hw.specs import NodeSpec
from repro.workloads.characteristics import CommPattern, WorkloadCharacteristics
from repro.workloads.model import true_scalability_class

__all__ = ["SyntheticAppGenerator"]


class SyntheticAppGenerator:
    """Draws random workloads, optionally conditioned on their class."""

    #: Upper bound on rejection-sampling attempts per requested app.
    MAX_ATTEMPTS = 400

    def __init__(self, node: NodeSpec, seed: int):
        self._node = node
        self._rng = np.random.default_rng(seed)
        self._counter = 0

    @property
    def node(self) -> NodeSpec:
        """Node the class labels are evaluated on."""
        return self._node

    def draw(self) -> WorkloadCharacteristics:
        """One unconditioned random workload."""
        rng = self._rng
        self._counter += 1
        # log-uniform memory intensity spanning compute-bound to STREAM
        bpi = float(np.exp(rng.uniform(np.log(0.01), np.log(6.0))))
        instr = float(rng.uniform(2e10, 1.5e11))
        # synchronization cost: log-uniform, scaled with problem size so
        # its share of the iteration time (not its absolute value)
        # decides scalability — large draws flip the app parabolic
        sync = float(
            np.exp(rng.uniform(np.log(1e-4), np.log(2e-1))) * instr / 8e10
        )
        return WorkloadCharacteristics(
            name=f"synthetic-{self._counter:04d}",
            description="generated training workload",
            instructions_per_iter=instr,
            bytes_per_instruction=bpi,
            serial_fraction=float(rng.uniform(0.0, 0.02)),
            sync_cost_s=sync,
            ipc_fraction=float(rng.uniform(0.3, 0.7)),
            shared_fraction=float(rng.uniform(0.05, 0.5)),
            icache_mpki=float(np.exp(rng.uniform(np.log(0.05), np.log(8.0)))),
            comm_pattern=CommPattern.HALO,
            comm_bytes_per_iter=float(rng.uniform(0.0, 3e7)),
            iterations=int(rng.integers(50, 400)),
            problem_size="synthetic",
        )

    def draw_class(self, want: str) -> WorkloadCharacteristics:
        """One random workload whose emergent class equals *want*."""
        if want not in ("linear", "logarithmic", "parabolic"):
            raise WorkloadError(f"unknown class {want!r}")
        for _ in range(self.MAX_ATTEMPTS):
            app = self.draw()
            if true_scalability_class(app, self._node) == want:
                return app
        raise WorkloadError(
            f"could not draw a {want} app in {self.MAX_ATTEMPTS} attempts"
        )

    def corpus(
        self,
        n_linear: int = 15,
        n_logarithmic: int = 25,
        n_parabolic: int = 20,
    ) -> list[WorkloadCharacteristics]:
        """A class-balanced training corpus.

        Defaults are weighted toward the non-linear classes because
        only those contribute inflection points the MLR must predict.
        """
        out: list[WorkloadCharacteristics] = []
        for want, count in (
            ("linear", n_linear),
            ("logarithmic", n_logarithmic),
            ("parabolic", n_parabolic),
        ):
            out.extend(self.draw_class(want) for _ in range(count))
        return out
