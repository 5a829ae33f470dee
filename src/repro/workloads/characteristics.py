"""Workload characteristic records.

A :class:`WorkloadCharacteristics` is the ground-truth description of a
hybrid MPI/OpenMP application: everything the analytic performance
model needs to produce execution times on the simulated testbed.  CLIP
never reads these records — it sees only profiled times, powers, and
event counters, exactly as on real hardware.

The fields map onto the physical effects the paper's Section II
attributes the three scalability classes to:

* ``instructions_per_iter`` / ``bytes_per_instruction`` set the
  roofline position (compute- vs. memory-bound);
* ``serial_fraction`` is the Amdahl term;
* ``sync_cost_s`` is the per-thread synchronization/contention cost
  whose linear-in-threads growth produces the *parabolic* class;
* ``shared_fraction`` controls NUMA remote traffic and therefore the
  mapping preference the smart profiler detects;
* the communication fields shape the cluster-level (MPI) cost.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.errors import WorkloadError
from repro.units import check_fraction, check_non_negative, check_positive

__all__ = ["CommPattern", "Phase", "WorkloadCharacteristics"]


class CommPattern(enum.Enum):
    """Dominant MPI communication pattern of an application.

    HALO — nearest-neighbour exchange whose message volume shrinks as
    the per-node domain shrinks (surface-to-volume, strong scaling).
    ALLREDUCE — latency-bound collectives growing with log2(nodes).
    NONE — embarrassingly parallel (EP-style).
    """

    HALO = "halo"
    ALLREDUCE = "allreduce"
    NONE = "none"


@dataclass(frozen=True)
class Phase:
    """One phase of a multi-phase application.

    The paper notes BT-MZ's ``exch_qbc`` phase limits its scalability
    and changes concurrency "phase-by-phase" (§V-B.1).  A phase scales
    the parent workload's per-iteration volume by ``weight`` and may
    override the contention and memory intensity.
    """

    name: str
    weight: float
    bytes_per_instruction: float | None = None
    sync_cost_s: float | None = None
    max_useful_threads: int | None = None

    def __post_init__(self) -> None:
        check_positive(self.weight, "phase weight")
        if self.bytes_per_instruction is not None:
            check_non_negative(self.bytes_per_instruction, "bytes_per_instruction")
        if self.sync_cost_s is not None:
            check_non_negative(self.sync_cost_s, "sync_cost_s")
        if self.max_useful_threads is not None and self.max_useful_threads < 1:
            raise WorkloadError("max_useful_threads must be >= 1")


@dataclass(frozen=True)
class WorkloadCharacteristics:
    """Ground-truth description of one application + input.

    Attributes
    ----------
    name:
        Unique identifier, e.g. ``"sp-mz.C"``.
    instructions_per_iter:
        Total dynamic instructions per outer iteration across the whole
        problem (strong scaling divides this across nodes and threads).
    bytes_per_instruction:
        DRAM traffic per instruction — the arithmetic-intensity inverse
        that positions the code on the roofline.
    serial_fraction:
        Fraction of per-iteration work that cannot be threaded.
    sync_cost_s:
        Synchronization/contention cost *per extra thread per
        iteration* (lock handoffs, barrier spread, zone-copy overhead).
        This is the term that turns scalability parabolic.
    ipc_fraction:
        Achieved fraction of the core's peak IPC for compute phases.
    shared_fraction:
        Fraction of memory accesses hitting the shared working set;
        drives cross-NUMA traffic for scatter placements.
    icache_mpki:
        Instruction-cache misses per kilo-instruction (Table-I event0).
    per_thread_bw_limit:
        Max DRAM bandwidth one thread can extract (B/s) — few threads
        cannot saturate the memory controllers even for STREAM.
    comm_pattern / comm_bytes_per_iter / comm_msgs_per_iter:
        Cluster-level communication shape; ``comm_bytes_per_iter`` is
        the per-node halo volume at the 1-node reference decomposition.
    gpu_fraction:
        Fraction of the parallel per-iteration instructions offloaded
        to an accelerator *when one is present*.  On CPU-only nodes the
        same code runs its host fallback path (fraction treated as 0),
        so one record describes the application on both node classes.
    iterations:
        Outer iterations of a full production run.
    problem_size:
        Human-readable input label (Table II "Parameters" column).
    phases:
        Optional phase decomposition (weights should sum to ~1).
    """

    name: str
    instructions_per_iter: float
    bytes_per_instruction: float
    serial_fraction: float = 0.0
    sync_cost_s: float = 0.0
    ipc_fraction: float = 0.5
    shared_fraction: float = 0.3
    icache_mpki: float = 1.0
    per_thread_bw_limit: float = 9.0e9
    comm_pattern: CommPattern = CommPattern.HALO
    comm_bytes_per_iter: float = 0.0
    comm_msgs_per_iter: int = 6
    gpu_fraction: float = 0.0
    iterations: int = 200
    problem_size: str = "default"
    description: str = ""
    phases: tuple[Phase, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("workload name must be non-empty")
        check_positive(self.instructions_per_iter, "instructions_per_iter")
        check_non_negative(self.bytes_per_instruction, "bytes_per_instruction")
        check_fraction(self.serial_fraction, "serial_fraction")
        check_non_negative(self.sync_cost_s, "sync_cost_s")
        check_fraction(self.ipc_fraction, "ipc_fraction")
        if self.ipc_fraction == 0.0:
            raise WorkloadError("ipc_fraction must be > 0")
        check_fraction(self.shared_fraction, "shared_fraction")
        check_non_negative(self.icache_mpki, "icache_mpki")
        check_positive(self.per_thread_bw_limit, "per_thread_bw_limit")
        check_non_negative(self.comm_bytes_per_iter, "comm_bytes_per_iter")
        if self.comm_msgs_per_iter < 0:
            raise WorkloadError("comm_msgs_per_iter must be >= 0")
        check_fraction(self.gpu_fraction, "gpu_fraction")
        if self.gpu_fraction >= 1.0:
            raise WorkloadError(
                "gpu_fraction must be < 1: some host share always remains"
            )
        if self.iterations < 1:
            raise WorkloadError("iterations must be >= 1")
        if self.phases:
            total = sum(p.weight for p in self.phases)
            if not 0.5 <= total <= 1.5:
                raise WorkloadError(
                    f"phase weights should sum to ~1, got {total:.3f}"
                )

    @property
    def is_memory_intensive(self) -> bool:
        """Rough one-bit workload-pattern label (Table II column)."""
        return self.bytes_per_instruction >= 0.08

    def with_iterations(self, iterations: int) -> "WorkloadCharacteristics":
        """Copy with a different iteration count (used by profiling)."""
        return replace(self, iterations=iterations)

    def effective_phases(self) -> tuple[Phase, ...]:
        """The phase list, defaulting to a single whole-app phase."""
        if self.phases:
            return self.phases
        return (Phase(name="main", weight=1.0),)

    def phase_view(self, phase: Phase) -> "WorkloadCharacteristics":
        """Characteristics of one phase as a standalone workload.

        The phase inherits everything from the parent except the
        per-iteration volume (scaled by its weight) and any overridden
        fields.
        """
        return replace(
            self,
            name=f"{self.name}:{phase.name}",
            instructions_per_iter=self.instructions_per_iter * phase.weight,
            bytes_per_instruction=(
                phase.bytes_per_instruction
                if phase.bytes_per_instruction is not None
                else self.bytes_per_instruction
            ),
            sync_cost_s=(
                phase.sync_cost_s * phase.weight
                if phase.sync_cost_s is not None
                else self.sync_cost_s * phase.weight
            ),
            comm_bytes_per_iter=self.comm_bytes_per_iter * phase.weight,
            phases=(),
        )
