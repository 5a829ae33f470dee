"""The Smart Profiling Module (§IV-B.1).

Profiles an application with at most three short sample executions on a
single node:

1. **all-core** run with sufficient (uncapped) power — measures memory
   bandwidth and cross-NUMA intensity to pick the core affinity;
2. **half-core** run with that affinity — together with run 1 this
   yields the classification ratio and the Table-I event rates;
3. an optional **confirmation** run at the predicted inflection point
   for non-linear applications — "the last step uses the predicted
   configuration and measures the events and power again to deduct the
   model".

Each sample runs only a few iterations of the application ("smart
profiling with a few iterations incurs minimal overhead" compared to
the hundreds or thousands of iterations of a production run).

The profiler sees exactly what the real framework sees: wall times,
RAPL power, and PMU events.  It never touches the workload's
ground-truth characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.classify import ScalabilityClass, classify_ratio
from repro.errors import ProfilingError
from repro.hw.counters import EventCounters
from repro.hw.numa import AffinityKind
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["SampleRun", "AppProfile", "SmartProfiler"]

#: Fraction of node peak DRAM bandwidth above which the profiler calls
#: the application memory-intensive and scatters its threads.
MEMORY_INTENSIVE_BW_FRACTION = 0.35

#: Iterations per sample execution (a "few iterations" per §IV-B.1).
DEFAULT_PROFILE_ITERATIONS = 5

#: Measured device-busy fraction above which an application is treated
#: as accelerator-offloaded.  The classification is observational, like
#: the ratio rule: the profiler looks at how much of the all-core
#: sample's iteration the device spent busy, not at any workload
#: metadata.  Offload ports sit well above this (≈0.4–0.8 on the
#: simulated testbed); host-only codes measure exactly 0.
GPU_OFFLOAD_BUSY_THRESHOLD = 0.3


@dataclass(frozen=True)
class SampleRun:
    """One profiling execution's measurements.

    Each sample configuration is executed at the two frequency
    extremes (a brief low-frequency phase inside the same profiling
    job): the ``*_w`` fields are the highest-frequency measurements
    (the paper's L1 power levels) and the ``*_lo_w`` fields the
    lowest-frequency ones (L2, §III-B.1).  Performance and events come
    from the high-frequency phase.
    """

    n_threads: int
    affinity: AffinityKind
    perf: float
    t_iter_s: float
    pkg_w: float
    dram_w: float
    frequency_hz: float
    pkg_lo_w: float
    dram_lo_w: float
    frequency_lo_hz: float
    t_iter_lo_s: float
    events: EventCounters
    phase_times: tuple[tuple[str, float], ...] = ()
    #: Time-averaged accelerator power at the highest frequency
    #: (0 on CPU-only nodes — the GPU domain is absent, not idle).
    gpu_w: float = 0.0
    #: Accelerator power during the low-frequency phase.
    gpu_lo_w: float = 0.0
    #: Share of the iteration the device spent busy.
    gpu_busy_fraction: float = 0.0
    #: Device clock the sample resolved to (0 without a device).
    gpu_clock_hz: float = 0.0

    @property
    def capped_w(self) -> float:
        """Host RAPL power at the highest frequency (PKG + DRAM).

        Deliberately excludes the accelerator: the host power model is
        fitted from these samples, and the GPU domain has its own
        ladder-derived model.  Use :attr:`gpu_w` for the device share.
        """
        return self.pkg_w + self.dram_w

    @property
    def device_s(self) -> float:
        """Measured device-busy time per iteration (seconds)."""
        return self.gpu_busy_fraction * self.t_iter_s


@dataclass(frozen=True)
class AppProfile:
    """Everything the profiler learned about one application + input."""

    app_name: str
    problem_size: str
    n_cores: int
    peak_node_bandwidth: float
    all_run: SampleRun
    half_run: SampleRun
    confirm_run: SampleRun | None = None

    @property
    def ratio(self) -> float:
        """The classification ratio Perf_half / Perf_all."""
        return self.half_run.perf / self.all_run.perf

    @property
    def scalability_class(self) -> ScalabilityClass:
        """Scalability class from the paper's threshold rule.

        A measured device-busy fraction above
        :data:`GPU_OFFLOAD_BUSY_THRESHOLD` takes precedence: when the
        accelerator carries the iteration, host thread scaling no
        longer describes the application and the coordinator must
        balance the host and device power domains instead.
        """
        if self.all_run.gpu_busy_fraction > GPU_OFFLOAD_BUSY_THRESHOLD:
            return ScalabilityClass.GPU_OFFLOAD
        return classify_ratio(self.half_run.perf, self.all_run.perf)

    @property
    def gpu_offloaded(self) -> bool:
        """Whether the device-busy measurement drove the class."""
        return self.all_run.gpu_busy_fraction > GPU_OFFLOAD_BUSY_THRESHOLD

    @property
    def affinity(self) -> AffinityKind:
        """The mapping preference chosen from the all-core run."""
        return self.half_run.affinity

    @property
    def memory_intensive(self) -> bool:
        """Whether the all-core run saturated a bandwidth threshold."""
        return (
            self.all_run.events.memory_bandwidth
            > MEMORY_INTENSIVE_BW_FRACTION * self.peak_node_bandwidth
        )

    @property
    def n_samples(self) -> int:
        """How many sample executions this profile used (2 or 3)."""
        return 2 if self.confirm_run is None else 3

    def feature_vector(self) -> np.ndarray:
        """MLR feature vector from the Table-I event rates.

        Rates from the all-core and half-core runs are normalized to
        scale-free quantities (per instruction / per cycle / fractions)
        so the regression is independent of problem size, then the
        full/half performance ratio (event7) is appended, plus one
        engineered combination: the roofline knee estimate — the
        thread count at which the half-core run's per-thread
        instruction rate would consume the saturated bandwidth — which
        is exactly the quantity the raw events encode about "which
        concurrency level can cause performance stagnancy" (§III-A.2).
        """
        feats: list[float] = []
        for run in (self.all_run, self.half_run):
            ev = run.events
            instr = max(ev.event6, 1.0)
            cycles = max(ev.event5, 1.0)
            feats.extend(
                [
                    ev.event0 / instr * 1e3,  # icache MPKI
                    ev.memory_bandwidth / self.peak_node_bandwidth,
                    (ev.event1 + ev.event2) / instr,  # bytes/instr
                    ev.remote_miss_fraction,
                    ev.event6 / cycles,  # IPC
                ]
            )
        feats.append(self.all_run.perf / self.half_run.perf)  # event7
        feats.append(self.roofline_knee_estimate() / self.n_cores)
        return np.array(feats)

    def roofline_knee_estimate(self) -> float:
        """Thread count where bandwidth saturation should begin.

        Computed purely from measured event rates: the saturated node
        bandwidth divided by one thread's traffic rate in the (mostly
        unsaturated) half-core run.  Clipped to [1, 2 * n_cores] so
        compute-bound codes (near-zero traffic) stay finite.
        """
        half = self.half_run.events
        bw_sat = max(
            self.all_run.events.memory_bandwidth, half.memory_bandwidth
        )
        per_thread = half.memory_bandwidth / max(self.half_run.n_threads, 1)
        if per_thread <= 0:
            return 2.0 * self.n_cores
        return float(np.clip(bw_sat / per_thread, 1.0, 2.0 * self.n_cores))


class SmartProfiler:
    """Runs the 2–3 sample executions and assembles an AppProfile."""

    def __init__(self, engine: ExecutionEngine):
        self._engine = engine
        # samples run single-node on slot 0, so the profile describes
        # the cluster's primary hardware class
        node = engine.cluster.spec.node_specs[0]
        self._node_spec = node
        self._n_cores = node.n_cores
        self._peak_bw = node.peak_bandwidth

    @property
    def node_spec(self):
        """The node class the sample executions run on (slot 0's)."""
        return self._node_spec

    def _sample(
        self,
        app: WorkloadCharacteristics,
        n_threads: int,
        affinity: AffinityKind,
    ) -> SampleRun:
        """Execute one single-node sample configuration.

        The sample spends its iterations pinned at the nominal
        frequency and then a couple at the lowest P-state, yielding the
        L1 and L2 power levels of §III-B.1 within one profiling job.
        Pinning matters: with turbo left on, a half-core sample clocks
        higher than an all-core sample and the classification ratio
        would conflate frequency headroom with thread scalability.
        """
        socket = self._node_spec.socket
        # Both frequency points of the sample are one what-if candidate
        # set: two node-cells, so evaluate_many answers them on the
        # engine's float code, memoized via the engine cache when one
        # is attached.
        result, low_result = self._engine.evaluate_many(
            app,
            [
                ExecutionConfig(
                    n_nodes=1,
                    n_threads=n_threads,
                    affinity=affinity,
                    iterations=DEFAULT_PROFILE_ITERATIONS,
                    frequency_hz=socket.f_nominal,
                ),
                ExecutionConfig(
                    n_nodes=1,
                    n_threads=n_threads,
                    affinity=affinity,
                    iterations=max(2, DEFAULT_PROFILE_ITERATIONS // 2),
                    frequency_hz=socket.f_min,
                ),
            ],
        )
        rec = result.nodes[0]
        low = low_result.nodes[0]
        return SampleRun(
            n_threads=n_threads,
            affinity=affinity,
            perf=result.performance,
            t_iter_s=rec.t_iter_s,
            pkg_w=rec.operating_point.pkg_power_w,
            dram_w=rec.operating_point.dram_power_w,
            frequency_hz=rec.operating_point.frequency_hz,
            pkg_lo_w=low.operating_point.pkg_power_w,
            dram_lo_w=low.operating_point.dram_power_w,
            frequency_lo_hz=low.operating_point.frequency_hz,
            t_iter_lo_s=low.t_iter_s,
            events=rec.events,
            phase_times=rec.phase_times,
            gpu_w=rec.avg_gpu_w,
            gpu_lo_w=low.avg_gpu_w,
            gpu_busy_fraction=rec.gpu_busy_fraction,
            gpu_clock_hz=rec.operating_point.gpu_clock_hz,
        )

    def profile(self, app: WorkloadCharacteristics) -> AppProfile:
        """Run the two mandatory samples and build the profile."""
        # Step 1: all cores, sufficient power; both sockets are used so
        # the affinity families coincide — measure, then decide the
        # mapping preference for the half-core run.
        all_run = self._sample(app, self._n_cores, AffinityKind.SCATTER)
        memory_intensive = (
            all_run.events.memory_bandwidth
            > MEMORY_INTENSIVE_BW_FRACTION * self._peak_bw
        )
        half_affinity = (
            AffinityKind.SCATTER if memory_intensive else AffinityKind.COMPACT
        )
        # Step 2: half cores with the chosen mapping.
        half_run = self._sample(app, self._n_cores // 2, half_affinity)

        ratio_full_half = all_run.perf / half_run.perf
        all_run = replace(
            all_run, events=all_run.events.with_perf_ratio(ratio_full_half)
        )
        half_run = replace(
            half_run, events=half_run.events.with_perf_ratio(ratio_full_half)
        )
        return AppProfile(
            app_name=app.name,
            problem_size=app.problem_size,
            n_cores=self._n_cores,
            peak_node_bandwidth=self._peak_bw,
            all_run=all_run,
            half_run=half_run,
        )

    def confirm(
        self,
        app: WorkloadCharacteristics,
        profile: AppProfile,
        n_threads: int,
    ) -> AppProfile:
        """Run the third sample at the predicted configuration.

        Returns a new profile with ``confirm_run`` populated; used for
        the non-linear classes to anchor the piecewise model's second
        point at the inflection point.
        """
        if profile.app_name != app.name:
            raise ProfilingError(
                f"profile is for {profile.app_name!r}, not {app.name!r}"
            )
        if not 1 <= n_threads <= profile.n_cores:
            raise ProfilingError(
                f"confirm thread count {n_threads} outside [1, {profile.n_cores}]"
            )
        run = self._sample(app, n_threads, profile.affinity)
        run = replace(
            run,
            events=run.events.with_perf_ratio(profile.all_run.events.event7),
        )
        return replace(profile, confirm_run=run)
