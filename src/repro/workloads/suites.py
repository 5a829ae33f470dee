"""Named training corpora.

The paper trains its MLR inflection-point model on benchmarks "from NAS
Parallel Benchmarks (NPB), HPC Challenge Benchmark (HPCC), UVA STREAM,
PolyBench and others" (§V-B.2).  This module provides a fixed, named
set of workloads mimicking those suites' spread of behaviours, plus a
seeded synthetic tail for volume.  Having named members (rather than
only random draws) keeps Fig.-7-style experiments interpretable.
"""

from __future__ import annotations

from repro.hw.specs import NodeSpec, haswell_node
from repro.workloads.characteristics import CommPattern, WorkloadCharacteristics
from repro.workloads.generator import SyntheticAppGenerator

__all__ = ["NAMED_TRAINING_APPS", "training_corpus"]


def _k(name: str, instr: float, bpi: float, **kw) -> WorkloadCharacteristics:
    defaults = dict(
        serial_fraction=0.003,
        sync_cost_s=2e-4,
        ipc_fraction=0.5,
        shared_fraction=0.25,
        icache_mpki=1.0,
        comm_pattern=CommPattern.NONE,
        comm_bytes_per_iter=0.0,
        iterations=100,
        problem_size="train",
    )
    defaults.update(kw)
    return WorkloadCharacteristics(
        name=name, instructions_per_iter=instr, bytes_per_instruction=bpi, **defaults
    )


#: Hand-written members standing in for the public suites.
NAMED_TRAINING_APPS: tuple[WorkloadCharacteristics, ...] = (
    # NPB-like kernels
    _k("npb.ep.train", 4e10, 0.004, ipc_fraction=0.65, sync_cost_s=2e-5),
    _k("npb.cg.train", 5e10, 2.1, ipc_fraction=0.35, shared_fraction=0.45),
    _k("npb.mg.train", 6e10, 1.2, ipc_fraction=0.42),
    _k("npb.ft.train", 7e10, 0.9, ipc_fraction=0.48, icache_mpki=2.0),
    _k("npb.bt.train", 9e10, 1.0, ipc_fraction=0.46, sync_cost_s=4e-4),
    _k("npb.lu.train", 8e10, 1.5, ipc_fraction=0.44, sync_cost_s=6e-4),
    _k("npb.sp.train", 9e10, 1.8, ipc_fraction=0.42, sync_cost_s=2.5e-2),
    # HPCC-like kernels
    _k("hpcc.hpl.train", 1.2e11, 0.05, ipc_fraction=0.7),
    _k("hpcc.dgemm.train", 1.0e11, 0.03, ipc_fraction=0.72),
    _k("hpcc.ptrans.train", 3e10, 3.0, ipc_fraction=0.4),
    _k("hpcc.randomaccess.train", 2e10, 4.5, ipc_fraction=0.2, shared_fraction=0.6),
    # STREAM kernels
    _k("stream.copy.train", 6e9, 8.0, ipc_fraction=0.7, sync_cost_s=1e-4),
    _k("stream.triad.train", 9e9, 7.0, ipc_fraction=0.7, sync_cost_s=1e-4),
    # PolyBench-like kernels
    _k("poly.jacobi2d.train", 4e10, 2.4, ipc_fraction=0.4, sync_cost_s=1.5e-3),
    _k("poly.gemver.train", 3e10, 3.2, ipc_fraction=0.38, sync_cost_s=1.2e-2),
    _k("poly.correlation.train", 5e10, 0.3, ipc_fraction=0.55),
    _k("poly.seidel2d.train", 4e10, 1.6, serial_fraction=0.02, sync_cost_s=1.4e-2),
)


#: Size and seed of the corpus's synthetic tail.
N_SYNTHETIC = 45
TRAINING_SEED = 7


def training_corpus(node: NodeSpec | None = None) -> list[WorkloadCharacteristics]:
    """Named suite members plus a seeded synthetic tail.

    The synthetic tail is class-balanced (see
    :meth:`SyntheticAppGenerator.corpus`) so the regression sees enough
    non-linear examples.
    """
    gen = SyntheticAppGenerator(node or haswell_node(), TRAINING_SEED)
    n_lin = N_SYNTHETIC // 4
    n_par = (N_SYNTHETIC - n_lin) // 2
    n_log = N_SYNTHETIC - n_lin - n_par
    corpus = list(NAMED_TRAINING_APPS)
    corpus.extend(gen.corpus(n_lin, n_log, n_par))
    return corpus
