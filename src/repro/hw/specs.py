"""Static hardware specifications.

The dataclasses here describe the *shape* of a machine — core counts,
frequency range, peak bandwidths, and the coefficients of the analytic
power model.  They are immutable; runtime state (current frequency,
caps, energy counters) lives in :mod:`repro.hw.node`.

:func:`haswell_testbed` builds the paper's evaluation platform: an
8-node cluster where each node has two 12-core Intel Xeon E5-2670 v3
(Haswell) processors at 2.30 GHz and 128 GB of DDR4 split evenly across
the two NUMA sockets (§V-A).  Power-model coefficients are calibrated to
public Haswell figures: 120 W TDP per package and DDR4 DIMM power in the
tens of watts per socket under load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SpecError
from repro.units import GHZ, gbps, ghz

__all__ = [
    "CoreSpec",
    "SocketSpec",
    "MemorySpec",
    "GpuSpec",
    "NodeSpec",
    "NodeGroup",
    "RackSpec",
    "ClusterSpec",
    "haswell_node",
    "haswell_testbed",
    "broadwell_node",
    "broadwell_testbed",
    "mixed_testbed",
    "gpu_node",
    "gpu_testbed",
    "mixed_gpu_testbed",
    "HASWELL_FREQ_LADDER_GHZ",
    "BROADWELL_FREQ_LADDER_GHZ",
    "GPU_CLOCK_LADDER_GHZ",
]

#: Discrete DVFS ladder of the E5-2670 v3 in GHz.  1.2 GHz is the lowest
#: P-state, 2.3 GHz the nominal frequency, 3.1 GHz the max turbo bin.
HASWELL_FREQ_LADDER_GHZ: tuple[float, ...] = (
    1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2, 2.3,
    2.4, 2.5, 2.6, 2.7, 2.8, 2.9, 3.0, 3.1,
)


@dataclass(frozen=True)
class CoreSpec:
    """A single CPU core.

    Attributes
    ----------
    ipc_peak:
        Peak retired instructions per cycle for compute-bound code; used
        by the event synthesizer and the workload ground-truth model.
    p_leak_w:
        Static (leakage) power drawn whenever the core is active,
        independent of frequency.
    p_dyn_w:
        Dynamic power at the *nominal* frequency under full load.  The
        power model scales this as ``(f / f_nominal) ** dyn_exponent``.
    dyn_exponent:
        Exponent of the frequency–power relationship.  Voltage scales
        roughly linearly with frequency in the DVFS range, making
        dynamic power super-linear; 2.4 is a common empirical fit for
        Haswell.
    """

    ipc_peak: float = 4.0
    p_leak_w: float = 1.0
    p_dyn_w: float = 7.5
    dyn_exponent: float = 2.4

    def __post_init__(self) -> None:
        if self.ipc_peak <= 0:
            raise SpecError(f"ipc_peak must be > 0, got {self.ipc_peak}")
        if self.p_leak_w < 0 or self.p_dyn_w <= 0:
            raise SpecError("core power coefficients must be non-negative")
        if not 1.0 <= self.dyn_exponent <= 3.5:
            raise SpecError(
                f"dyn_exponent outside plausible range [1, 3.5]: {self.dyn_exponent}"
            )


@dataclass(frozen=True)
class MemorySpec:
    """The DRAM attached to one NUMA socket.

    Attributes
    ----------
    capacity_bytes:
        Installed DRAM capacity.
    peak_bandwidth:
        Peak sustainable read+write bandwidth (bytes/s) at the highest
        memory power level.
    p_base_w:
        Background DRAM power (refresh, PLLs) at idle — the
        :math:`P_{mbase}` term of Eq. 9.
    p_load_max_w:
        Additional power at peak bandwidth — the :math:`P_{mload}` term
        of Eq. 9 evaluated at full load.  Load power is modeled as
        linear in delivered bandwidth, the relationship RAPL's DRAM
        domain exploits.
    n_power_levels:
        Number of discrete memory power levels the platform exposes
        (bandwidth throttling states used to honor a DRAM cap).
    """

    capacity_bytes: float = 64 * 2**30
    peak_bandwidth: float = gbps(59.7)
    p_base_w: float = 4.0
    p_load_max_w: float = 14.0
    n_power_levels: int = 8

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.peak_bandwidth <= 0:
            raise SpecError("memory capacity and bandwidth must be > 0")
        if self.p_base_w < 0 or self.p_load_max_w < 0:
            raise SpecError("memory power coefficients must be >= 0")
        if self.n_power_levels < 1:
            raise SpecError("need at least one memory power level")

    @property
    def p_max_w(self) -> float:
        """Maximum DRAM power for this socket (base + full load)."""
        return self.p_base_w + self.p_load_max_w

    def bandwidth_at_level(self, level: int) -> float:
        """Peak bandwidth available at a discrete power *level*.

        Level ``n_power_levels - 1`` is full speed; level 0 retains a
        floor of 1/n of peak so memory never stalls completely.
        """
        if not 0 <= level < self.n_power_levels:
            raise SpecError(
                f"memory power level {level} outside [0, {self.n_power_levels})"
            )
        return self.peak_bandwidth * (level + 1) / self.n_power_levels


@dataclass(frozen=True)
class SocketSpec:
    """One processor package plus its local memory controller.

    Attributes
    ----------
    n_cores:
        Physical cores in the package.
    f_min / f_nominal / f_max:
        DVFS range in Hz; ``f_max`` includes turbo headroom.
    freq_ladder:
        Discrete frequencies (Hz) the DVFS controller may select.
    p_base_w:
        Package power with all cores idle — uncore, caches, and the
        memory controller: the :math:`P_{pbase}` term of Eq. 7.
    tdp_w:
        Thermal design power of the package; default PKG RAPL cap.
    core:
        Per-core specification.
    memory:
        Local DRAM specification.
    """

    n_cores: int = 12
    f_min: float = ghz(1.2)
    f_nominal: float = ghz(2.3)
    f_max: float = ghz(3.1)
    freq_ladder: tuple[float, ...] = tuple(f * GHZ for f in HASWELL_FREQ_LADDER_GHZ)
    p_base_w: float = 16.0
    tdp_w: float = 120.0
    core: CoreSpec = field(default_factory=CoreSpec)
    memory: MemorySpec = field(default_factory=MemorySpec)

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise SpecError(f"socket needs >= 1 core, got {self.n_cores}")
        if not 0 < self.f_min <= self.f_nominal <= self.f_max:
            raise SpecError(
                "frequency range must satisfy 0 < f_min <= f_nominal <= f_max"
            )
        if not self.freq_ladder:
            raise SpecError("freq_ladder must be non-empty")
        if tuple(sorted(self.freq_ladder)) != self.freq_ladder:
            raise SpecError("freq_ladder must be sorted ascending")
        if abs(self.freq_ladder[0] - self.f_min) > 1e3:
            raise SpecError("freq_ladder must start at f_min")
        if abs(self.freq_ladder[-1] - self.f_max) > 1e3:
            raise SpecError("freq_ladder must end at f_max")
        if self.p_base_w < 0 or self.tdp_w <= 0:
            raise SpecError("socket power coefficients must be valid")

    @property
    def p_pkg_max_w(self) -> float:
        """Package power with all cores at maximum frequency.

        May exceed ``tdp_w``: turbo is opportunistic, and RAPL resolves
        the overshoot by clipping frequency — exactly the behaviour the
        cap-resolution logic models.
        """
        core_w = self.core.p_leak_w + self.core.p_dyn_w * (
            self.f_max / self.f_nominal
        ) ** self.core.dyn_exponent
        return self.p_base_w + self.n_cores * core_w


#: Discrete clock ladder of the simulated accelerator board in GHz.
#: 0.6 GHz is the lowest P-state, 1.1 GHz the nominal clock, 1.3 GHz
#: the boost bin.
GPU_CLOCK_LADDER_GHZ: tuple[float, ...] = (
    0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3,
)


@dataclass(frozen=True)
class GpuSpec:
    """One accelerator board attached to a node.

    The accelerator is a third RAPL-style power domain: it has its own
    clock ladder, its own cap, and its own power curve, mirroring the
    CPU package idiom.

    Attributes
    ----------
    clock_ladder_hz:
        Discrete clocks (Hz) the device firmware may select, ascending.
    clk_nominal_hz:
        Reference clock; dynamic power and throughput scale relative
        to it.
    p_idle_w:
        Board power with the device powered but idle.
    p_dyn_w:
        Additional board power at the nominal clock under full
        utilization; scales as ``(clk / clk_nominal) ** dyn_exponent``.
    dyn_exponent:
        Exponent of the clock–power relationship.
    instr_rate:
        Device throughput (instructions/s) at the nominal clock; the
        offload performance model scales it linearly with clock.
    """

    name: str = "gpu"
    clock_ladder_hz: tuple[float, ...] = tuple(
        f * GHZ for f in GPU_CLOCK_LADDER_GHZ
    )
    clk_nominal_hz: float = ghz(1.1)
    p_idle_w: float = 18.0
    p_dyn_w: float = 165.0
    dyn_exponent: float = 2.0
    instr_rate: float = 4.0e11

    def __post_init__(self) -> None:
        if not self.clock_ladder_hz:
            raise SpecError("gpu clock_ladder_hz must be non-empty")
        if tuple(sorted(self.clock_ladder_hz)) != self.clock_ladder_hz:
            raise SpecError("gpu clock_ladder_hz must be sorted ascending")
        if not (
            self.clock_ladder_hz[0]
            <= self.clk_nominal_hz
            <= self.clock_ladder_hz[-1]
        ):
            raise SpecError("gpu nominal clock must lie inside the ladder")
        if self.p_idle_w < 0 or self.p_dyn_w <= 0:
            raise SpecError("gpu power coefficients must be valid")
        if not 1.0 <= self.dyn_exponent <= 3.5:
            raise SpecError(
                f"gpu dyn_exponent outside [1, 3.5]: {self.dyn_exponent}"
            )
        if self.instr_rate <= 0:
            raise SpecError("gpu instr_rate must be > 0")

    @property
    def clk_min_hz(self) -> float:
        """Lowest selectable device clock."""
        return self.clock_ladder_hz[0]

    @property
    def clk_max_hz(self) -> float:
        """Highest selectable device clock."""
        return self.clock_ladder_hz[-1]

    def power_at(self, clock_hz: float) -> float:
        """Board power at *clock_hz*, fully utilized."""
        scale = (clock_hz / self.clk_nominal_hz) ** self.dyn_exponent
        return self.p_idle_w + self.p_dyn_w * scale

    @property
    def p_min_w(self) -> float:
        """Board power at the lowest clock, fully utilized."""
        return self.power_at(self.clk_min_hz)

    @property
    def p_max_w(self) -> float:
        """Board power at the highest clock, fully utilized."""
        return self.power_at(self.clk_max_hz)


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: one or more sockets plus non-capped components.

    ``p_other_w`` covers the board, fans, NIC, and disks — the
    :math:`P_{OtherT}` term of Eq. 5.  It is constant and outside RAPL
    control, so schedulers must subtract it from any node budget before
    splitting power between CPU and DRAM.

    Nodes may carry accelerator boards (``gpu`` + ``n_gpus``): those add
    a third cappable power domain next to PKG and DRAM.  The
    ``gpu_cap_levels_w`` / ``gpu_level_clocks_hz`` views expose the
    quantized cap↔clock trade-off at the spec level, so decision layers
    can reason about the device domain without reaching into
    :class:`GpuSpec` internals.
    """

    name: str = "node"
    n_sockets: int = 2
    socket: SocketSpec = field(default_factory=SocketSpec)
    p_other_w: float = 35.0
    gpu: GpuSpec | None = None
    n_gpus: int = 0

    def __post_init__(self) -> None:
        if self.n_sockets < 1:
            raise SpecError(f"node needs >= 1 socket, got {self.n_sockets}")
        if self.p_other_w < 0:
            raise SpecError("p_other_w must be >= 0")
        if self.gpu is not None and self.n_gpus < 1:
            raise SpecError("a GPU-bearing node needs n_gpus >= 1")
        if self.gpu is None and self.n_gpus != 0:
            raise SpecError("n_gpus > 0 requires a GpuSpec")

    @property
    def n_cores(self) -> int:
        """Total physical cores on the node."""
        return self.n_sockets * self.socket.n_cores

    @property
    def has_gpu(self) -> bool:
        """Whether this node class carries accelerator boards."""
        return self.gpu is not None

    @property
    def p_cpu_max_w(self) -> float:
        """Aggregate package power ceiling across sockets."""
        return self.n_sockets * self.socket.p_pkg_max_w

    @property
    def p_mem_max_w(self) -> float:
        """Aggregate DRAM power ceiling across sockets."""
        return self.n_sockets * self.socket.memory.p_max_w

    @property
    def p_gpu_max_w(self) -> float:
        """Aggregate device power ceiling across boards (0 without GPUs)."""
        if self.gpu is None:
            return 0.0
        return self.n_gpus * self.gpu.p_max_w

    @property
    def p_gpu_min_w(self) -> float:
        """Aggregate device power at the lowest clock, fully utilized."""
        if self.gpu is None:
            return 0.0
        return self.n_gpus * self.gpu.p_min_w

    @property
    def p_gpu_idle_w(self) -> float:
        """Aggregate device idle power (0 without GPUs)."""
        if self.gpu is None:
            return 0.0
        return self.n_gpus * self.gpu.p_idle_w

    @property
    def gpu_cap_levels_w(self) -> tuple[float, ...]:
        """Full-utilization device power at each clock level, ascending.

        Empty without GPUs.  These are the meaningful GPU cap choices:
        capping between two levels buys nothing, because the device
        quantizes to the ladder anyway.
        """
        if self.gpu is None:
            return ()
        return tuple(
            self.n_gpus * self.gpu.power_at(clk)
            for clk in self.gpu.clock_ladder_hz
        )

    @property
    def gpu_level_clocks_hz(self) -> tuple[float, ...]:
        """Absolute device clock of each ladder level, ascending."""
        if self.gpu is None:
            return ()
        return tuple(self.gpu.clock_ladder_hz)

    @property
    def p_node_max_w(self) -> float:
        """Peak node power: CPU + DRAM (+ GPU) + uncapped components."""
        if self.gpu is None:
            return self.p_cpu_max_w + self.p_mem_max_w + self.p_other_w
        return (
            self.p_cpu_max_w
            + self.p_mem_max_w
            + self.p_gpu_max_w
            + self.p_other_w
        )

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate DRAM bandwidth across sockets (bytes/s)."""
        return self.n_sockets * self.socket.memory.peak_bandwidth


@dataclass(frozen=True)
class NodeGroup:
    """A run of identical nodes inside a (possibly mixed) cluster.

    Clusters are described as an ordered list of groups — e.g.
    4× Haswell followed by 4× Broadwell — and slot ids are assigned in
    group order: the first ``count`` slots carry the first group's spec,
    and so on.
    """

    spec: NodeSpec
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SpecError(f"node group needs >= 1 node, got {self.count}")


@dataclass(frozen=True)
class RackSpec:
    """One rack (or enclosure): an ordered run of node groups.

    Racks are the intermediate tier between the cluster and its nodes
    — the level facility budgets are partitioned at (FastCap-style
    per-level splitting).  A rack is described exactly like a small
    cluster population: an ordered tuple of :class:`NodeGroup`\\ s,
    slot ids assigned in group order within the rack.
    """

    name: str
    groups: tuple[NodeGroup, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("rack needs a non-empty name")
        if not self.groups:
            raise SpecError(f"rack {self.name!r} needs >= 1 node group")
        for g in self.groups:
            if not isinstance(g, NodeGroup):
                raise SpecError(
                    f"rack {self.name!r} groups must contain NodeGroup, got {g!r}"
                )

    @property
    def n_nodes(self) -> int:
        """Number of node slots in this rack."""
        return sum(g.count for g in self.groups)


def _merge_adjacent_groups(
    groups: tuple[NodeGroup, ...],
) -> tuple[NodeGroup, ...]:
    """Coalesce adjacent groups with identical specs.

    Rack-composed clusters concatenate each rack's groups; merging
    keeps a fleet of identical racks one group, the same population
    its flat construction would carry.
    """
    merged: list[NodeGroup] = []
    for g in groups:
        if merged and merged[-1].spec == g.spec:
            merged[-1] = NodeGroup(g.spec, merged[-1].count + g.count)
        else:
            merged.append(g)
    return tuple(merged)


class ClusterSpec:
    """A cluster of nodes plus its interconnect.

    The node population is an ordered tuple of :class:`NodeGroup`\\ s;
    a homogeneous cluster is the one-class special case.  The per-slot
    view is :attr:`node_specs`; the fleet model every layer reads is
    the class table — :attr:`node_classes` (the distinct specs, in
    first-slot order) and :attr:`slot_class` (each slot's index into
    it).  The legacy :attr:`node` property remains valid only for
    one-class clusters and raises :class:`SpecError` on mixed ones.

    Fleet-scale clusters are composed of **racks** (``racks=``): an
    ordered tuple of :class:`RackSpec`\\ s whose groups are concatenated
    (adjacent identical specs merged) into the flat group population,
    with the rack partition kept alongside for hierarchical budgeting.
    Clusters built without ``racks=`` are one implicit rack.

    ``variability_sigma`` is the relative standard deviation of each
    node's power-efficiency multiplier due to manufacturing variability
    (§III-B.2); the paper's testbed is "quite homogeneous" so the
    default is small.  The interconnect is described by an alpha–beta
    model consumed by :mod:`repro.sim.mpi`.

    Instances are immutable and hashable (run-cache keys include the
    cluster spec).
    """

    __slots__ = (
        "name",
        "groups",
        "racks",
        "link_latency_s",
        "link_bandwidth",
        "variability_sigma",
        "variability_seed",
        "node_classes",
        "slot_class",
        "_node_specs",
    )

    def __init__(
        self,
        name: str = "cluster",
        *,
        groups: tuple[NodeGroup, ...] | None = None,
        racks: tuple[RackSpec, ...] | None = None,
        link_latency_s: float = 1.5e-6,
        link_bandwidth: float = gbps(6.8),
        variability_sigma: float = 0.03,
        variability_seed: int = 2017,
    ):
        if racks is not None:
            if groups is not None:
                raise SpecError("pass racks= or groups=, not both")
            racks = tuple(racks)
            if not racks:
                raise SpecError("cluster needs >= 1 rack")
            for r in racks:
                if not isinstance(r, RackSpec):
                    raise SpecError(f"racks must contain RackSpec, got {r!r}")
            seen: set[str] = set()
            for r in racks:
                if r.name in seen:
                    raise SpecError(f"duplicate rack name {r.name!r}")
                seen.add(r.name)
            groups = _merge_adjacent_groups(
                tuple(g for r in racks for g in r.groups)
            )
        elif groups is not None:
            groups = tuple(groups)
            if not groups:
                raise SpecError("cluster needs >= 1 node group")
            for g in groups:
                if not isinstance(g, NodeGroup):
                    raise SpecError(f"groups must contain NodeGroup, got {g!r}")
        else:
            raise SpecError("cluster needs groups= or racks=")
        if link_latency_s < 0 or link_bandwidth <= 0:
            raise SpecError("interconnect parameters must be valid")
        if not 0.0 <= variability_sigma < 0.5:
            raise SpecError("variability_sigma must lie in [0, 0.5)")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "racks", racks)
        object.__setattr__(self, "link_latency_s", link_latency_s)
        object.__setattr__(self, "link_bandwidth", link_bandwidth)
        object.__setattr__(self, "variability_sigma", variability_sigma)
        object.__setattr__(self, "variability_seed", variability_seed)
        # the class table: one hash per group, never one per slot
        class_of: dict[NodeSpec, int] = {}
        slot_class: list[int] = []
        for g in groups:
            slot_class += [class_of.setdefault(g.spec, len(class_of))] * g.count
        object.__setattr__(self, "node_classes", tuple(class_of))
        object.__setattr__(self, "slot_class", tuple(slot_class))
        object.__setattr__(
            self,
            "_node_specs",
            tuple(g.spec for g in groups for _ in range(g.count)),
        )

    def __setattr__(self, key, value):
        raise AttributeError(f"ClusterSpec is immutable (tried to set {key!r})")

    def __delattr__(self, key):
        raise AttributeError(f"ClusterSpec is immutable (tried to delete {key!r})")

    def _identity(self) -> tuple:
        return (
            self.name,
            self.groups,
            self.racks,
            self.link_latency_s,
            self.link_bandwidth,
            self.variability_sigma,
            self.variability_seed,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClusterSpec):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        racks = f"racks={self.racks!r}, " if self.racks is not None else ""
        return (
            f"ClusterSpec(name={self.name!r}, groups={self.groups!r}, "
            f"{racks}"
            f"link_latency_s={self.link_latency_s!r}, "
            f"link_bandwidth={self.link_bandwidth!r}, "
            f"variability_sigma={self.variability_sigma!r}, "
            f"variability_seed={self.variability_seed!r})"
        )

    @property
    def n_nodes(self) -> int:
        """Number of node slots across all groups."""
        return sum(g.count for g in self.groups)

    @property
    def is_homogeneous(self) -> bool:
        """Whether every slot carries the same node spec."""
        return len(self.node_classes) == 1

    @property
    def node(self) -> NodeSpec:
        """The single node spec of a homogeneous cluster.

        Mixed clusters have no "the" node; use :attr:`node_specs`.
        """
        if not self.is_homogeneous:
            raise SpecError(
                f"cluster {self.name!r} is heterogeneous "
                f"({len(self.groups)} node groups); use node_specs for the "
                f"per-slot view or groups for the group population"
            )
        return self.groups[0].spec

    @property
    def node_specs(self) -> tuple[NodeSpec, ...]:
        """One :class:`NodeSpec` per slot, in slot-id order."""
        return self._node_specs

    @property
    def p_cluster_max_w(self) -> float:
        """Peak cluster power (all nodes flat out)."""
        if self.is_homogeneous:
            # keep the seed's count * value arithmetic bit-identical
            return self.n_nodes * self.groups[0].spec.p_node_max_w
        return float(
            sum(g.count * g.spec.p_node_max_w for g in self.groups)
        )

    # -- rack partition (hierarchical budgeting) ------------------------

    @property
    def n_racks(self) -> int:
        """Number of racks (1 for clusters built without ``racks=``)."""
        return len(self.racks) if self.racks is not None else 1

    @property
    def rack_names(self) -> tuple[str, ...]:
        """Rack names, in rack order (a single implicit ``rack0``
        when the cluster was built without ``racks=``)."""
        if self.racks is None:
            return ("rack0",)
        return tuple(r.name for r in self.racks)

    @property
    def rack_sizes(self) -> tuple[int, ...]:
        """Node count per rack, in rack order."""
        if self.racks is None:
            return (self.n_nodes,)
        return tuple(r.n_nodes for r in self.racks)

    @property
    def rack_of_slot(self) -> tuple[int, ...]:
        """Rack index of every node slot, in slot-id order.

        Slot ids run rack by rack: rack 0's slots first, then rack 1's,
        matching the group concatenation order of the constructor.
        """
        return tuple(
            r for r, size in enumerate(self.rack_sizes) for _ in range(size)
        )


def haswell_node() -> NodeSpec:
    """The paper's node: 2× 12-core E5-2670 v3 @ 2.30 GHz, 128 GB DDR4."""
    return NodeSpec(name="haswell")


def _rack_fleet(racks: int, rack_groups: tuple[NodeGroup, ...]) -> tuple[RackSpec, ...]:
    """*racks* identical racks, each carrying *rack_groups*."""
    if racks < 2:
        raise SpecError(f"a rack fleet needs >= 2 racks, got {racks}")
    return tuple(RackSpec(f"rack{r}", rack_groups) for r in range(racks))


def _testbed(
    name: str,
    groups: tuple[NodeGroup, ...],
    racks: int | None,
    variability_sigma: float,
    seed: int,
    **fabric: float,
) -> ClusterSpec:
    """A cluster of *groups*, or of ``racks`` (>= 2) identical racks of
    them; ``racks=None`` or ``racks=1`` keeps the single-rack
    construction bit-identical."""
    if racks is not None and racks > 1:
        layout = {"racks": _rack_fleet(racks, groups)}
    else:
        layout = {"groups": groups}
    return ClusterSpec(
        name=name,
        **layout,
        **fabric,
        variability_sigma=variability_sigma,
        variability_seed=seed,
    )


#: Per-node efficiency spread of every testbed (§II, manufacturing
#: variability).
VARIABILITY_SIGMA = 0.03


def haswell_testbed(
    n_nodes: int = 8,
    variability_sigma: float = VARIABILITY_SIGMA,
    racks: int | None = None,
) -> ClusterSpec:
    """The paper's testbed: an 8-node dual-socket Haswell cluster (§V-A).

    ``racks=N`` (N >= 2) composes a fleet of N identical racks of
    ``n_nodes`` Haswell nodes each.
    """
    return _testbed(
        "haswell-testbed", (NodeGroup(haswell_node(), n_nodes),), racks,
        variability_sigma, 2017,
    )


#: Broadwell (E5-2698 v4 class) DVFS ladder in GHz.
BROADWELL_FREQ_LADDER_GHZ: tuple[float, ...] = (
    1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0, 2.1, 2.2,
    2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9, 3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6,
)


def broadwell_node() -> NodeSpec:
    """A next-generation node: 2x 20-core Broadwell-class sockets.

    More cores per socket at a lower nominal clock, a higher TDP, and
    faster DDR4 — the kind of platform shift that broke the fixed
    regression models CLIP's related work used ("hardware evolution
    causes the old methods to lose precision", §III-A), and exactly
    what the profile-driven method should absorb without retuning.
    """
    socket = SocketSpec(
        n_cores=20,
        f_min=ghz(1.2),
        f_nominal=ghz(2.2),
        f_max=ghz(3.6),
        freq_ladder=tuple(f * GHZ for f in BROADWELL_FREQ_LADDER_GHZ),
        p_base_w=20.0,
        tdp_w=135.0,
        core=CoreSpec(p_dyn_w=5.2),
        memory=MemorySpec(
            capacity_bytes=128 * 2**30,
            peak_bandwidth=gbps(68.0),
            p_base_w=5.0,
            p_load_max_w=16.0,
        ),
    )
    return NodeSpec(name="broadwell", n_sockets=2, socket=socket, p_other_w=40.0)


def broadwell_testbed(racks: int | None = None) -> ClusterSpec:
    """An 8-node Broadwell-class cluster for generality studies.

    ``racks=N`` (N >= 2) composes N identical Broadwell racks.
    """
    return _testbed(
        "broadwell-testbed", (NodeGroup(broadwell_node(), 8),), racks,
        VARIABILITY_SIGMA, 2016,
        link_latency_s=1.2e-6, link_bandwidth=gbps(12.0),
    )


def mixed_testbed(racks: int | None = None) -> ClusterSpec:
    """A mixed fleet: 4 Haswell slots first, then 4 Broadwell slots.

    The incremental-procurement cluster: the original Haswell racks
    plus a newer Broadwell purchase behind the same interconnect.  The
    Haswell group comes first deliberately — slot 0 (where profiling
    samples land) is the *smaller* node class, so a uniform per-rank
    thread count chosen from it is valid on every slot.

    ``racks=N`` (N >= 2) composes N identical mixed racks of that
    layout.
    """
    return _testbed(
        "mixed-testbed",
        (NodeGroup(haswell_node(), 4), NodeGroup(broadwell_node(), 4)),
        racks, VARIABILITY_SIGMA, 2017,
    )


def gpu_node() -> NodeSpec:
    """A Haswell host carrying one accelerator board.

    Same dual-socket host as :func:`haswell_node`, plus a GPU whose
    board power is a third cappable domain.  ``p_other_w`` is a little
    higher than the CPU-only node for the board's fans and VRMs.
    """
    return NodeSpec(
        name="haswell-gpu",
        n_sockets=2,
        socket=SocketSpec(),
        p_other_w=45.0,
        gpu=GpuSpec(),
        n_gpus=1,
    )


def gpu_testbed(racks: int | None = None) -> ClusterSpec:
    """An 8-node GPU cluster: every node is a Haswell host + one GPU.

    ``racks=N`` (N >= 2) composes N identical GPU racks.
    """
    return _testbed(
        "gpu-testbed", (NodeGroup(gpu_node(), 8),), racks,
        VARIABILITY_SIGMA, 2018,
    )


def mixed_gpu_testbed(racks: int | None = None) -> ClusterSpec:
    """A mixed fleet: 4 GPU slots first, then 4 CPU-only Haswell slots.

    The partial-accelerator procurement: half the fleet gained boards,
    half stayed CPU-only, all behind one fabric.  The GPU group comes
    first deliberately — slot 0 (where profiling samples land) is the
    accelerated class, so offload behaviour is visible to the profiler;
    both classes share the Haswell host, so a uniform per-rank thread
    count is valid on every slot.

    ``racks=N`` (N >= 2) composes N identical mixed racks of that
    layout.
    """
    return _testbed(
        "mixed-gpu-testbed",
        (NodeGroup(gpu_node(), 4), NodeGroup(haswell_node(), 4)),
        racks, VARIABILITY_SIGMA, 2018,
    )
