"""The steady-state execution engine.

Runs a workload on the simulated cluster under a concrete execution
configuration (nodes, threads, affinity, per-node power caps) and
returns a :class:`~repro.sim.trace.RunResult`.

The engine resolves the circular dependency between power capping and
performance by fixed-point iteration: the workload's bandwidth demand
and core activity depend on the iteration time, which depends on the
RAPL-resolved frequency and bandwidth, which depend on demand and
activity.  The loop is damped and converges in a handful of rounds
(each round is O(sockets) arithmetic, so a full cluster run costs
microseconds — cheap enough for the exhaustive oracle baseline).

Execution is bulk-synchronous: every iteration, all participating
nodes compute their local share, then exchange halos/collectives; the
slowest node paces the step, which is how manufacturing variability
turns into synchronization waste (§III-B.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.errors import NodeFailureError, SchedulingError
from repro.hw.cluster import SimulatedCluster
from repro.hw.counters import synthesize_counters
from repro.hw.numa import AffinityKind
from repro.sim.affinity import Placement, make_placement, placement_for
from repro.sim.mpi import CommModel
from repro.sim.trace import NodeRunRecord, RunResult
from repro.units import check_non_negative
from repro.workloads.characteristics import WorkloadCharacteristics
from repro.workloads.model import GroundTruthModel

__all__ = ["ExecutionConfig", "ExecutionEngine"]

#: Fixed-point iteration control.
_MAX_ROUNDS = 12
_DAMPING = 0.5
_REL_TOL = 1e-6

#: Activity floor used for cores idling at the step barrier.
_IDLE_ACTIVITY = 0.05


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything the launcher decides before a run.

    ``pkg_cap_w`` / ``dram_cap_w`` are *per participating node* and
    cover all sockets of the node (``None`` leaves the factory default
    limit); ``gpu_cap_w`` additionally limits the device domain on
    accelerator-bearing nodes (silently ignored elsewhere, matching the
    hardware: the register does not exist).  ``per_node_caps``
    overrides them with one ``(pkg, dram)`` — or ``(pkg, dram, gpu)``
    for GPU slots — tuple per node for variability-coordinated
    allocations (§III-B.2).  ``node_ids`` selects specific nodes
    (defaults to the first ``n_nodes``).  ``phase_threads`` optionally
    overrides the thread count of named workload phases — the paper's
    BT-MZ phase-wise concurrency adjustment (§V-B.1).  Execution is
    strong-scaled, the paper's setting: the global problem is divided
    over the nodes.
    """

    n_nodes: int
    n_threads: int
    affinity: AffinityKind | None = None
    pkg_cap_w: float | None = None
    dram_cap_w: float | None = None
    gpu_cap_w: float | None = None
    per_node_caps: tuple[tuple[float, ...], ...] | None = None
    node_ids: tuple[int, ...] | None = None
    frequency_hz: float | None = None
    iterations: int | None = None
    phase_threads: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise SchedulingError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_threads < 1:
            raise SchedulingError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.iterations is not None and self.iterations < 1:
            raise SchedulingError("iterations override must be >= 1")
        if self.per_node_caps is not None:
            if len(self.per_node_caps) != self.n_nodes:
                raise SchedulingError("per_node_caps must have one entry per node")
            if any(len(entry) not in (2, 3) for entry in self.per_node_caps):
                raise SchedulingError(
                    "per_node_caps entries must be (pkg, dram) or (pkg, dram, gpu)"
                )
        if self.node_ids is not None:
            if len(self.node_ids) != self.n_nodes:
                raise SchedulingError("node_ids must have one entry per node")
            if len(set(self.node_ids)) != self.n_nodes:
                raise SchedulingError(
                    f"node_ids must be distinct, got {self.node_ids}"
                )

    def caps_for(self, rank: int) -> tuple[float | None, float | None]:
        """(PKG, DRAM) caps for the rank-th participating node."""
        if self.per_node_caps is not None:
            entry = self.per_node_caps[rank]
            return entry[0], entry[1]
        return self.pkg_cap_w, self.dram_cap_w

    def gpu_cap_for(self, rank: int) -> float | None:
        """GPU cap for the rank-th node (``None`` = uncapped/absent)."""
        if self.per_node_caps is not None:
            entry = self.per_node_caps[rank]
            return entry[2] if len(entry) > 2 else None
        return self.gpu_cap_w


class ExecutionEngine:
    """Runs workloads on a :class:`SimulatedCluster`."""

    def __init__(self, cluster: SimulatedCluster, seed: int = 42):
        self._cluster = cluster
        # each slot's hardware class as an int: the per-run code keys
        # on it, since hashing a NodeSpec walks all its nested specs
        self._slot_class = cluster.spec.slot_class
        # one ground-truth timing model per distinct hardware class
        self._class_models = tuple(
            GroundTruthModel(spec) for spec in cluster.spec.node_classes
        )
        self._comm = CommModel(cluster.spec)
        self._seed = seed
        self._batch = None
        self._calibration: dict = {}

    @property
    def cluster(self) -> SimulatedCluster:
        """The testbed this engine executes on."""
        return self._cluster

    @property
    def comm_model(self) -> CommModel:
        """Inter-node communication model."""
        return self._comm

    @property
    def seed(self) -> int:
        """Seed of the per-run counter-noise RNG."""
        return self._seed

    @property
    def calibration_cache(self) -> dict:
        """Cached node-factor calibrations keyed by cluster fingerprint."""
        return self._calibration

    def calibration_fingerprint(self):
        """Key identifying the fleet state a calibration is valid for.

        Includes per-node efficiencies and the failed set, so
        ``fail_node`` / ``recover_node`` / ``degrade_node`` each change
        the fingerprint and invalidate cached factors by construction.
        """
        return (
            self._cluster.spec,
            tuple(n.efficiency for n in self._cluster.nodes),
            self._cluster.failed_node_ids,
        )

    # ------------------------------------------------------------------

    def evaluate_many(
        self, app: WorkloadCharacteristics, configs: list[ExecutionConfig]
    ) -> list[RunResult]:
        """What-if evaluation of many configs at once.

        Returns one :class:`RunResult` per config, in order, identical
        to what :meth:`run` would produce on a fault-free cluster.  Caps
        come from each config, availability is ignored, and no node
        state changes.  A small batch (at most
        :data:`~repro.sim.batch.FLOAT_PATH_MAX_CELLS` node-cells) runs
        on :meth:`run`'s own float code, as does any batch that spans
        hardware classes, reaches a GPU class or sets ``phase_threads``;
        a larger one on one CPU-only class runs as a single
        ``(n_candidates, n_nodes)`` array program.
        """
        if self._batch is None:
            from repro.sim.batch import BatchEvaluator

            self._batch = BatchEvaluator(self)
        return self._batch.run_many(app, configs)

    # ------------------------------------------------------------------

    def run(
        self, app: WorkloadCharacteristics, config: ExecutionConfig
    ) -> RunResult:
        """Execute *app* under *config* and return the result.

        Programs each participant's RAPL caps through its actuation
        policy, resolves under the caps the silicon then enforces, and
        accounts the run's energy in the RAPL registers and the power
        meters.

        Raises
        ------
        SchedulingError
            If the configuration does not fit the cluster.
        NodeFailureError
            If a participating node is failed.
        PowerDomainError
            If a cap is below the hardware floor for the requested
            concurrency (propagated from cap resolution).
        """
        cluster = self._cluster
        participants = self._participants(config)
        down = [n.node_id for n in participants if not cluster.is_available(n.node_id)]
        if down:
            raise NodeFailureError(
                f"cannot run on failed node(s) {down}; "
                f"available: {list(cluster.available_node_ids)}"
            )
        return self._simulate(app, config, participants, execute=True)

    def _what_if(
        self, app: WorkloadCharacteristics, configs: list[ExecutionConfig]
    ) -> list[RunResult]:
        """What-if evaluation of *configs* on :meth:`run`'s float code.

        The batch kernel's semantics: every config is validated first,
        caps come from the config alone, availability is ignored, and
        no RAPL register, actuation policy or meter is read or written.
        """
        participants = [self._what_if_participants(c) for c in configs]
        return [
            self._simulate(app, config, nodes, execute=False)
            for config, nodes in zip(configs, participants)
        ]

    def _participants(self, config: ExecutionConfig) -> list:
        """The nodes *config* runs on, checked against the cluster."""
        cluster = self._cluster
        if config.n_nodes > cluster.n_nodes:
            raise SchedulingError(
                f"{config.n_nodes} nodes requested, cluster has {cluster.n_nodes}"
            )
        if config.node_ids is not None:
            participants = [cluster.node(i) for i in config.node_ids]
        else:
            participants = list(cluster.nodes[: config.n_nodes])
        min_cores = min(n.spec.n_cores for n in participants)
        if config.n_threads > min_cores:
            raise SchedulingError(
                f"{config.n_threads} threads requested, node has {min_cores} cores"
            )
        return participants

    def _what_if_participants(self, config: ExecutionConfig) -> list:
        """:meth:`_participants` plus a check of every cap in the config.

        ``run`` checks a cap when it programs it, so it never sees a
        GPU cap meant for a CPU-only node; a what-if evaluation checks
        them all up front.
        """
        participants = self._participants(config)
        entries = (
            config.per_node_caps
            if config.per_node_caps is not None
            else [(config.pkg_cap_w, config.dram_cap_w, config.gpu_cap_w)]
        )
        for entry in entries:
            for cap in entry:
                if cap is not None:
                    check_non_negative(cap, "cap")
        return participants

    def _simulate(
        self,
        app: WorkloadCharacteristics,
        config: ExecutionConfig,
        participants: list,
        execute: bool,
    ) -> RunResult:
        """The steady state of *app* under *config* on *participants*.

        ``execute`` selects :meth:`run`'s hardware side effects; without
        it the caps come from the config and no node state changes.
        """
        # Placement is identical on every node of one hardware class
        # (homogeneous job launch); mixed clusters place per class.
        slot_class = self._slot_class
        placements: dict = {}
        phase_tps_by: dict = {}
        for part in participants:
            k = slot_class[part.node_id]
            if k in placements:
                continue
            topo = part.numa
            if config.affinity is None:
                placement = placement_for(
                    topo,
                    config.n_threads,
                    app.shared_fraction,
                    app.is_memory_intensive,
                )
            else:
                placement = make_placement(
                    topo, config.n_threads, config.affinity, app.shared_fraction
                )
            placements[k] = placement
            phase_tps_by[k] = {
                name: tuple(
                    int(c)
                    for c in make_placement(
                        topo, n, placement.kind, app.shared_fraction
                    ).threads_per_socket
                )
                for name, n in config.phase_threads.items()
            }

        iterations = config.iterations or app.iterations
        # strong scaling divides the global problem over the nodes
        work_fraction = 1.0 / config.n_nodes

        records: list[NodeRunRecord] = []
        rng = self._run_rng(app, config)
        for rank, node in enumerate(participants):
            k = slot_class[node.node_id]
            records.append(
                self._run_node(
                    node, app, config, self._class_models[k],
                    placements[k], phase_tps_by[k],
                    work_fraction, iterations, rng, rank, execute,
                )
            )

        comm_s = self._comm.iteration_time(app, config.n_nodes)
        t_step = max(r.t_iter_s for r in records) + comm_s
        total_time = iterations * t_step

        # Energy: each node is busy for its own iteration time and
        # idles at the barrier for the remainder of every step.
        energy = 0.0
        peak = 0.0
        final_records = []
        for node, rec in zip(participants, records):
            spec = node.spec
            placement = placements[slot_class[node.node_id]]
            busy_frac = rec.t_iter_s / t_step if t_step > 0 else 1.0
            idle_pkg = sum(
                node.power_model.pkg_power(
                    c, spec.socket.f_min, _IDLE_ACTIVITY
                )
                for c in placement.threads_per_socket
            )
            idle_dram = spec.n_sockets * node.power_model.dram_power(0.0)
            avg_pkg = rec.operating_point.pkg_power_w * busy_frac + idle_pkg * (
                1.0 - busy_frac
            )
            avg_dram = rec.operating_point.dram_power_w * busy_frac + idle_dram * (
                1.0 - busy_frac
            )
            if spec.has_gpu:
                # The board falls back to its idle floor while the host
                # waits at the step barrier.
                idle_gpu = spec.p_gpu_idle_w * node.efficiency
                avg_gpu = rec.operating_point.gpu_power_w * busy_frac + idle_gpu * (
                    1.0 - busy_frac
                )
                capped_w = avg_pkg + avg_dram + avg_gpu
                peak += (
                    rec.operating_point.pkg_power_w
                    + rec.operating_point.dram_power_w
                    + rec.operating_point.gpu_power_w
                )
            else:
                avg_gpu = 0.0
                capped_w = avg_pkg + avg_dram
                peak += (
                    rec.operating_point.pkg_power_w
                    + rec.operating_point.dram_power_w
                )
            node_energy = (capped_w + spec.p_other_w) * total_time
            energy += node_energy
            if execute:
                node.rapl.accumulate(
                    rec.operating_point, iterations * rec.t_iter_s
                )
                node.meter.record(capped_w, node_energy, total_time)
            final_records.append(
                NodeRunRecord(
                    node_id=rec.node_id,
                    operating_point=rec.operating_point,
                    t_iter_s=rec.t_iter_s,
                    activity=rec.activity,
                    busy_fraction=busy_frac,
                    avg_pkg_w=avg_pkg,
                    avg_dram_w=avg_dram,
                    events=rec.events,
                    phase_times=rec.phase_times,
                    avg_gpu_w=avg_gpu,
                    gpu_busy_fraction=rec.gpu_busy_fraction,
                )
            )
        first = participants[0]
        first_class = slot_class[first.node_id]
        if all(slot_class[n.node_id] == first_class for n in participants):
            # seed's count * value arithmetic, kept bit-identical
            peak += config.n_nodes * first.spec.p_other_w
        else:
            for node in participants:
                peak += node.spec.p_other_w

        return RunResult(
            app_name=app.name,
            n_nodes=config.n_nodes,
            n_threads_per_node=config.n_threads,
            affinity=placements[first_class].kind.value,
            iterations=iterations,
            t_step_s=t_step,
            comm_s=comm_s,
            total_time_s=total_time,
            energy_j=energy,
            avg_power_w=energy / total_time if total_time > 0 else 0.0,
            peak_power_w=peak,
            nodes=tuple(final_records),
        )

    # ------------------------------------------------------------------

    def _run_node(
        self,
        node,
        app: WorkloadCharacteristics,
        config: ExecutionConfig,
        model: GroundTruthModel,
        placement: Placement,
        phase_tps: dict[str, tuple[int, ...]],
        work_fraction: float,
        iterations: int,
        rng: np.random.Generator,
        rank: int,
        execute: bool,
    ) -> NodeRunRecord:
        """Fixed-point resolve one node's steady state.

        Executed, the config's caps are programmed into the node and
        resolution reads them back (counting throttle events); as a
        what-if, the config's caps are resolved directly.
        """
        pkg_cap, dram_cap = config.caps_for(rank)
        gpu_cap = config.gpu_cap_for(rank)
        rapl = node.rapl
        if execute:
            node.set_power_caps(pkg_cap, dram_cap, gpu_cap)
            resolve = rapl.resolve
        else:
            resolve = partial(rapl.resolve_under, pkg_cap, dram_cap)
        # The device clock is sized once, against worst-case (fully
        # busy) draw, so it is independent of the damped host loop.
        gpu_rate = 0.0
        gpu_clock = 0.0
        gpu_throttled = gpu_violated = False
        if node.spec.has_gpu and app.gpu_fraction > 0:
            if execute:
                resolved_gpu = rapl.resolve_gpu()
            else:
                resolved_gpu = rapl.resolve_gpu_under(gpu_cap)
            gpu_clock, gpu_throttled, gpu_violated = resolved_gpu
            gpu_rate = model.device_rate(app, gpu_clock)
        mem = node.spec.socket.memory
        tps = placement.threads_per_socket
        activity = 0.9
        demand = tuple(
            mem.peak_bandwidth if c > 0 else 0.0 for c in tps
        )
        timing = None
        prev_t = None
        op = None
        for _ in range(_MAX_ROUNDS):
            op = resolve(tps, activity, demand, config.frequency_hz)
            timing = model.iteration_time(
                app,
                tps,
                op.effective_frequency_hz,
                op.bandwidth_per_socket,
                remote_fraction=placement.remote_fraction,
                work_fraction=work_fraction,
                phase_threads=phase_tps or None,
                gpu_rate=gpu_rate,
            )
            activity = _DAMPING * activity + (1 - _DAMPING) * timing.activity
            demand = tuple(
                _DAMPING * d + (1 - _DAMPING) * nd
                for d, nd in zip(demand, timing.bw_demand_per_socket)
            )
            if prev_t is not None and abs(timing.t_iter_s - prev_t) <= _REL_TOL * prev_t:
                break
            prev_t = timing.t_iter_s

        # Final consistency pass with converged activity/demand.
        op = resolve(
            tps, timing.activity, timing.bw_demand_per_socket, config.frequency_hz
        )
        if node.spec.has_gpu:
            # Device power over the busy iteration: dynamic draw for the
            # share of the step the kernels run, idle floor otherwise.
            # A board with nothing offloaded still idles on the bus.
            if gpu_rate > 0:
                gpu_w = node.power_model.gpu_power(
                    gpu_clock, timing.device_busy_fraction
                )
            else:
                gpu_w = node.spec.p_gpu_idle_w * node.efficiency
            op = replace(
                op,
                gpu_clock_hz=gpu_clock,
                gpu_power_w=gpu_w,
                gpu_throttled=gpu_throttled,
                gpu_cap_violated=gpu_violated,
            )
        events = synthesize_counters(
            instructions=timing.instructions * iterations,
            duration_s=timing.t_iter_s * iterations,
            n_threads=placement.n_threads,
            frequency_hz=op.effective_frequency_hz,
            dram_bytes=timing.dram_bytes * iterations,
            remote_fraction=placement.remote_fraction,
            icache_mpki=app.icache_mpki,
            rng=rng,
        )
        return NodeRunRecord(
            node_id=node.node_id,
            operating_point=op,
            t_iter_s=timing.t_iter_s,
            activity=timing.activity,
            busy_fraction=1.0,
            avg_pkg_w=op.pkg_power_w,
            avg_dram_w=op.dram_power_w,
            events=events,
            phase_times=timing.phase_times,
            avg_gpu_w=op.gpu_power_w,
            gpu_busy_fraction=timing.device_busy_fraction,
        )

    def _run_rng(
        self, app: WorkloadCharacteristics, config: ExecutionConfig
    ) -> np.random.Generator:
        """Deterministic per-(app, config) RNG for counter noise."""
        name_hash = sum(ord(c) * (i + 1) for i, c in enumerate(app.name)) % (2**31)
        return np.random.default_rng(
            [self._seed, name_hash, config.n_nodes, config.n_threads]
        )
