"""Ground-truth node-level performance model.

The simulated testbed needs to answer: *how long does one outer
iteration of application A take on one node with n threads at frequency
f given per-socket bandwidth limits?*  The answer uses a roofline-style
decomposition whose terms correspond to the physical effects the paper
attributes the three scalability classes to (§II):

.. math::

    T_{iter} = T_{serial}(f) + \\max(T_{comp}(n, f),\\ T_{mem}(B_{eff}))
               + T_{sync}(n)

* ``T_comp`` shrinks as 1/(n·f) — alone it yields the **linear** class;
* ``T_mem`` is flat once the sockets' bandwidth saturates — the knee
  where compute time dips below memory time produces the
  **logarithmic** class and *is* the inflection point NP;
* ``T_sync`` grows with n — when it dominates the marginal compute
  gain, performance peaks and then falls: the **parabolic** class.

Effective bandwidth accounts for three real limits: the RAPL-governed
per-socket ceiling, the per-thread extraction limit (few threads cannot
drive both controllers), and the cross-NUMA penalty implied by the
placement's remote-access fraction.

Everything is vectorized over thread counts so parameter sweeps (Figs.
1–3) evaluate in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import WorkloadError
from repro.hw.specs import NodeSpec
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = [
    "NodePhaseTiming",
    "GroundTruthModel",
    "scalability_curve",
    "true_inflection_point",
    "true_scalability_class",
]

#: Throughput retained by a remote (cross-QPI) DRAM access relative to a
#: local one.
REMOTE_EFFICIENCY = 0.62

#: Uncore frequency scaling: on Haswell the ring/L3/memory-controller
#: clock follows the core clock domain, so deliverable DRAM bandwidth
#: degrades when cores run at low frequency.  The floor is the fraction
#: of peak bandwidth retained as the core clock approaches zero.
UNCORE_BW_FLOOR = 0.5

#: Multiplicative iteration-time penalty for odd thread counts (uneven
#: partitioning across zones/sockets); the paper observes odd
#: concurrency "performs worse ... in general" (§V-B.2).
ODD_CONCURRENCY_PENALTY = 0.015

#: Relative slowdown of a limited-concurrency phase per unit of
#: oversubscription: threads beyond ``max_useful_threads`` do not just
#: idle, they contend on the phase's serialized structures (the BT-MZ
#: ``exch_qbc`` effect, §V-B.1) — which is why the paper adjusts
#: concurrency phase-by-phase instead of relying on the idle threads
#: being harmless.
PHASE_OVERSUBSCRIPTION_PENALTY = 0.25


@dataclass(frozen=True)
class NodePhaseTiming:
    """Resolved timing of one iteration (or phase) on one node."""

    t_iter_s: float
    serial_s: float
    compute_s: float
    memory_s: float
    sync_s: float
    activity: float
    instructions: float
    dram_bytes: float
    bw_demand_per_socket: tuple[float, ...]
    remote_fraction: float
    phase_times: tuple[tuple[str, float], ...] = ()
    #: Device busy seconds inside the iteration (0 without offload).
    device_s: float = 0.0

    @property
    def bound(self) -> str:
        """Which roofline side limits the parallel section."""
        if self.device_s > max(self.compute_s, self.memory_s):
            return "device"
        return "memory" if self.memory_s > self.compute_s else "compute"

    @property
    def device_busy_fraction(self) -> float:
        """Share of the iteration the device spends busy."""
        if self.t_iter_s <= 0:
            return 0.0
        return min(self.device_s / self.t_iter_s, 1.0)


class GroundTruthModel:
    """Analytic timing model bound to one node specification."""

    def __init__(self, node: NodeSpec):
        self._node = node

    @property
    def node(self) -> NodeSpec:
        """The node this model times workloads on."""
        return self._node

    # ------------------------------------------------------------------

    def _core_rate(self, chars: WorkloadCharacteristics, f: float) -> float:
        """Instruction throughput of one core (instr/s) at frequency f."""
        return chars.ipc_fraction * self._node.socket.core.ipc_peak * f

    def device_rate(
        self, chars: WorkloadCharacteristics, gpu_clock_hz: float
    ) -> float:
        """Aggregate device throughput (instr/s) at *gpu_clock_hz*.

        Zero when the node has no accelerator or the workload offloads
        nothing — the signal :meth:`phase_time` uses to fall back to
        the host-only path bit-identically.
        """
        gpu = self._node.gpu
        if gpu is None or chars.gpu_fraction <= 0 or gpu_clock_hz <= 0:
            return 0.0
        return (
            self._node.n_gpus
            * gpu.instr_rate
            * (gpu_clock_hz / gpu.clk_nominal_hz)
        )

    def _effective_bandwidth(
        self,
        chars: WorkloadCharacteristics,
        threads_per_socket: tuple[int, ...],
        bw_limit_per_socket: tuple[float, ...],
        remote_fraction: float,
        frequency_hz: float,
    ) -> tuple[float, ...]:
        """Deliverable DRAM bandwidth per socket (B/s).

        A socket only serves traffic if it hosts threads (first-touch
        pages live where their writers run).  Each socket's ceiling is
        the lowest of the RAPL-imposed limit, what its threads can
        extract, and the uncore-frequency-scaled peak (the ring and
        memory controller clock down with the cores, so a heavily
        capped core clock also costs bandwidth); the remote-access
        fraction then degrades throughput.
        """
        uncore = min(
            1.0,
            UNCORE_BW_FLOOR
            + (1.0 - UNCORE_BW_FLOOR) * frequency_hz / self._node.socket.f_nominal,
        )
        peak = self._node.socket.memory.peak_bandwidth * uncore
        penalty = 1.0 - remote_fraction * (1.0 - REMOTE_EFFICIENCY)
        return tuple(
            min(min(limit, n * chars.per_thread_bw_limit), peak) * penalty
            for n, limit in zip(threads_per_socket, bw_limit_per_socket)
        )

    def phase_time(
        self,
        chars: WorkloadCharacteristics,
        threads_per_socket,
        frequency_hz: float,
        bw_limit_per_socket,
        remote_fraction: float = 0.0,
        work_fraction: float = 1.0,
        gpu_rate: float = 0.0,
    ) -> NodePhaseTiming:
        """Time one iteration of a (single-phase) workload on this node.

        Parameters
        ----------
        chars:
            Workload (treated as single-phase; multi-phase apps go
            through :meth:`iteration_time`).
        threads_per_socket:
            Thread counts per socket, e.g. ``[6, 6]``.
        frequency_hz:
            Shared core frequency.
        bw_limit_per_socket:
            Per-socket DRAM bandwidth ceilings (RAPL-resolved).
        remote_fraction:
            Fraction of accesses crossing sockets for this placement.
        work_fraction:
            Share of the *global* problem this node executes (1/N for
            an N-node balanced decomposition).
        gpu_rate:
            Aggregate device throughput (instr/s) at the resolved
            device clock; 0 disables offload (CPU-only node, capless
            host fallback, or a workload with ``gpu_fraction == 0``).
            Offloaded kernels overlap the host's parallel section:
            the device executes ``gpu_fraction`` of the parallel
            instructions while the host runs the remainder, so the
            parallel time is the roofline max over host compute, DRAM,
            and device time.  DRAM traffic stays with the host — the
            transfer stream to and from the board rides the same
            controllers.
        """
        tps = _per_socket(
            threads_per_socket, int,
            "threads_per_socket must have one entry per socket",
        )
        if len(tps) != self._node.n_sockets:
            raise WorkloadError("threads_per_socket must have one entry per socket")
        n_cores = self._node.socket.n_cores
        if any(c < 0 or c > n_cores for c in tps):
            raise WorkloadError("thread counts must fit each socket")
        n = sum(tps)
        if n < 1:
            raise WorkloadError("need at least one thread")
        if frequency_hz <= 0:
            raise WorkloadError("frequency must be > 0")
        if not 0.0 < work_fraction <= 1.0:
            raise WorkloadError("work_fraction must lie in (0, 1]")
        if not 0.0 <= remote_fraction <= 1.0:
            raise WorkloadError("remote_fraction must lie in [0, 1]")
        bw_lim = _per_socket(
            bw_limit_per_socket, float,
            "bw_limit_per_socket must match socket count",
        )
        if len(bw_lim) != len(tps):
            raise WorkloadError("bw_limit_per_socket must match socket count")

        instr = chars.instructions_per_iter * work_fraction
        serial_instr = instr * chars.serial_fraction
        par_instr = instr - serial_instr
        rate1 = self._core_rate(chars, frequency_hz)

        t_serial = serial_instr / rate1
        dev_instr = par_instr * chars.gpu_fraction if gpu_rate > 0 else 0.0
        t_comp = (par_instr - dev_instr) / (n * rate1)
        t_dev = dev_instr / gpu_rate if dev_instr > 0 else 0.0

        dram_bytes = instr * chars.bytes_per_instruction
        bw = self._effective_bandwidth(
            chars, tps, bw_lim, remote_fraction, frequency_hz
        )
        total_bw = _sum_in_order(bw)
        t_mem = dram_bytes / total_bw if dram_bytes > 0 else 0.0

        t_sync = chars.sync_cost_s * max(n - 1, 0)
        t_par = max(t_comp, t_mem, t_dev)
        t_iter = t_serial + t_par + t_sync
        if n % 2 == 1 and n > 1:
            t_iter *= 1.0 + ODD_CONCURRENCY_PENALTY

        # Compute phases clock at full activity; synchronization is
        # spin-waiting (OpenMP barriers default to active spinning) at
        # roughly half power; memory stalls clock-gate the pipeline.
        busy = t_serial + t_comp + 0.5 * t_sync
        activity = min(max(busy / t_iter if t_iter > 0 else 1.0, 0.05), 1.0)

        # Demand is what the workload would consume at this pace,
        # apportioned by each socket's share of deliverable bandwidth.
        if dram_bytes > 0 and t_iter > 0 and total_bw > 0:
            demand = tuple(b / total_bw * dram_bytes / t_iter for b in bw)
        else:
            demand = tuple(0.0 for _ in tps)

        return NodePhaseTiming(
            t_iter_s=t_iter,
            serial_s=t_serial,
            compute_s=t_comp,
            memory_s=t_mem,
            sync_s=t_sync,
            activity=activity,
            instructions=instr,
            dram_bytes=dram_bytes,
            bw_demand_per_socket=demand,
            remote_fraction=remote_fraction,
            device_s=t_dev,
        )

    def iteration_time(
        self,
        chars: WorkloadCharacteristics,
        threads_per_socket,
        frequency_hz: float,
        bw_limit_per_socket,
        remote_fraction: float = 0.0,
        work_fraction: float = 1.0,
        phase_threads: dict[str, tuple[int, ...]] | None = None,
        gpu_rate: float = 0.0,
    ) -> NodePhaseTiming:
        """Time one full iteration, summing over the app's phases.

        ``phase_threads`` optionally overrides the placement for named
        phases — the mechanism behind the paper's BT-MZ "concurrency
        phase-by-phase" adjustment.  A phase's own
        ``max_useful_threads`` additionally clips how many of the
        provided threads do useful work (the rest idle at the barrier).
        """
        totals = dict(
            t=0.0, serial=0.0, comp=0.0, mem=0.0, sync=0.0,
            instr=0.0, bytes_=0.0, dev=0.0,
        )
        busy_weighted = 0.0
        demand = (0.0,) * self._node.n_sockets
        phase_breakdown: list[tuple[str, float]] = []
        for phase in chars.effective_phases():
            tps = _per_socket(
                (phase_threads or {}).get(phase.name, threads_per_socket),
                int,
                "threads_per_socket must have one entry per socket",
            )
            oversub = 1.0
            if phase.max_useful_threads is not None:
                excess = sum(tps) - phase.max_useful_threads
                if excess > 0:
                    oversub = 1.0 + PHASE_OVERSUBSCRIPTION_PENALTY * (
                        excess / phase.max_useful_threads
                    )
                    tps = tuple(
                        _clip_total_threads(
                            np.asarray(tps, dtype=np.int64),
                            phase.max_useful_threads,
                        ).tolist()
                    )
            # the implicit whole-app phase (weight 1, no overrides) sees
            # the app's own numbers: phase_view would only multiply them
            # by 1.0, which changes no bit
            view = chars.phase_view(phase) if chars.phases else chars
            pt = self.phase_time(
                view, tps, frequency_hz, bw_limit_per_socket,
                remote_fraction=remote_fraction, work_fraction=work_fraction,
                gpu_rate=gpu_rate,
            )
            if oversub != 1.0:
                pt = replace(pt, t_iter_s=pt.t_iter_s * oversub)
            phase_breakdown.append((phase.name, pt.t_iter_s))
            totals["t"] += pt.t_iter_s
            totals["serial"] += pt.serial_s
            totals["comp"] += pt.compute_s
            totals["mem"] += pt.memory_s
            totals["sync"] += pt.sync_s
            totals["instr"] += pt.instructions
            totals["bytes_"] += pt.dram_bytes
            totals["dev"] += pt.device_s
            busy_weighted += pt.activity * pt.t_iter_s
            demand = tuple(
                d + b * pt.t_iter_s
                for d, b in zip(demand, pt.bw_demand_per_socket)
            )
        t = totals["t"]
        return NodePhaseTiming(
            t_iter_s=t,
            serial_s=totals["serial"],
            compute_s=totals["comp"],
            memory_s=totals["mem"],
            sync_s=totals["sync"],
            activity=float(busy_weighted / t) if t > 0 else 1.0,
            instructions=totals["instr"],
            dram_bytes=totals["bytes_"],
            bw_demand_per_socket=tuple(d / t for d in demand) if t > 0 else demand,
            remote_fraction=remote_fraction,
            phase_times=tuple(phase_breakdown),
            device_s=totals["dev"],
        )


def _per_socket(values, kind: type, message: str) -> tuple:
    """*values* as a tuple of Python ``int`` or ``float``, one per socket.

    A tuple already of *kind* (what the engine passes) is returned as
    is.  Anything else goes through the ``np.asarray`` cast the model
    has always applied -- so floats still truncate to thread counts --
    and must come out 1-D, else :class:`WorkloadError` (*message*).
    """
    if type(values) is tuple and all(type(v) is kind for v in values):
        return values
    arr = np.asarray(values, dtype=np.int64 if kind is int else np.float64)
    if arr.ndim != 1:
        raise WorkloadError(message)
    return tuple(arr.tolist())


def _sum_in_order(values: tuple[float, ...]) -> float:
    """The float sum ``ndarray.sum`` would return, without the array.

    Below eight elements NumPy adds left to right onto ``0.0`` (which
    also turns an all ``-0.0`` sum into ``0.0``); above, it sums
    pairwise, so only short tuples -- every real socket count -- are
    added here.  Python's ``sum`` is no substitute: from 3.12 it
    compensates float rounding.
    """
    if len(values) >= 8:
        return float(np.asarray(values, dtype=np.float64).sum())
    total = 0.0
    for v in values:
        total += v
    return total


def _clip_total_threads(tps: np.ndarray, limit: int) -> np.ndarray:
    """Reduce a per-socket thread histogram to at most *limit* threads,
    removing threads round-robin from the fullest sockets."""
    tps = tps.copy()
    while tps.sum() > limit:
        tps[int(np.argmax(tps))] -= 1
    return tps


# ----------------------------------------------------------------------
# curve-level helpers (ground truth used by tests and the oracle)
# ----------------------------------------------------------------------


def _balanced_split(n: int, n_sockets: int, cores_per_socket: int) -> np.ndarray:
    """Scatter-style balanced thread histogram over sockets."""
    base = n // n_sockets
    tps = np.full(n_sockets, base, dtype=np.int64)
    tps[: n % n_sockets] += 1
    if np.any(tps > cores_per_socket):
        raise WorkloadError(f"{n} threads exceed node capacity")
    return tps


def scalability_curve(
    chars: WorkloadCharacteristics,
    node: NodeSpec,
    n_threads: np.ndarray | None = None,
    frequency_hz: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth performance (iterations/s) vs. thread count.

    Threads are scattered across sockets (balanced split, the typical
    OpenMP default on a NUMA node) and memory is uncapped; frequency
    defaults to nominal.  Returns ``(n_values, perf_values)``.
    """
    model = GroundTruthModel(node)
    if n_threads is None:
        n_threads = np.arange(1, node.n_cores + 1)
    f = frequency_hz if frequency_hz is not None else node.socket.f_nominal
    full_bw = np.full(node.n_sockets, node.socket.memory.peak_bandwidth)
    perfs = np.empty(len(n_threads))
    from repro.hw.numa import NumaTopology

    topo = NumaTopology(node)
    for i, n in enumerate(np.asarray(n_threads, dtype=np.int64)):
        tps = _balanced_split(int(n), node.n_sockets, node.socket.n_cores)
        shares = tps / tps.sum()
        p_remote = 1.0 - float(np.sum(shares**2))
        remote = chars.shared_fraction * p_remote
        t = model.iteration_time(chars, tps, f, full_bw, remote_fraction=remote)
        perfs[i] = 1.0 / t.t_iter_s
    return np.asarray(n_threads, dtype=np.int64), perfs


def true_scalability_class(
    chars: WorkloadCharacteristics, node: NodeSpec
) -> str:
    """Ground-truth class from the paper's half/all-core ratio rule.

    ``perf_half / perf_all < 0.7`` → linear; ``< 1`` → logarithmic;
    ``>= 1`` → parabolic (§III-A.1).
    """
    ns, perfs = scalability_curve(
        chars, node, n_threads=np.array([node.n_cores // 2, node.n_cores])
    )
    ratio = perfs[0] / perfs[1]
    if ratio < 0.7:
        return "linear"
    if ratio < 1.0:
        return "logarithmic"
    return "parabolic"


def true_inflection_point(
    chars: WorkloadCharacteristics, node: NodeSpec
) -> int:
    """Ground-truth inflection point NP of the scalability curve.

    For parabolic curves NP is the performance peak.  For the others it
    is the breakpoint of the best two-segment piecewise-linear fit to
    the speedup curve (the point where the growth rate changes), found
    by exhaustive breakpoint search — cheap at <= 24 points.  Linear
    curves have no interior knee and report the full core count.

    The search runs on even thread counts only: the paper observes odd
    concurrency performs worse and floors predictions to even values
    (§V-B.2), and the even grid removes the odd-penalty sawtooth that
    would otherwise distract the piecewise fit.
    """
    even = np.arange(2, node.n_cores + 1, 2)
    ns, perfs = scalability_curve(chars, node, n_threads=even)
    speedup = perfs / perfs[0]
    peak = int(np.argmax(perfs))
    if peak < len(ns) - 1 and perfs[-1] < perfs[peak] * 0.995:
        return int(ns[peak])

    best_np, best_sse, best_k = int(ns[-1]), np.inf, None
    for k in range(1, len(ns) - 1):
        sse = _segment_sse(ns[: k + 1], speedup[: k + 1]) + _segment_sse(
            ns[k:], speedup[k:]
        )
        if sse < best_sse - 1e-15:
            best_sse, best_np, best_k = sse, int(ns[k]), k
    full_sse = _segment_sse(ns, speedup)
    # A genuinely linear curve is not meaningfully improved by a
    # breakpoint, and its two segment slopes stay similar.
    rel_fit = full_sse / max(float(np.var(speedup)) * len(ns), 1e-30)
    if best_k is None or rel_fit < 1e-4 or best_sse > 0.5 * full_sse:
        return int(ns[-1])
    slope_l = _segment_slope(ns[: best_k + 1], speedup[: best_k + 1])
    slope_r = _segment_slope(ns[best_k:], speedup[best_k:])
    if slope_l <= 0 or slope_r > 0.6 * slope_l:
        return int(ns[-1])
    return best_np


def _segment_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of the line through (x, y)."""
    if len(x) < 2:
        return 0.0
    return float(np.polyfit(x.astype(float), y, 1)[0])


def _segment_sse(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of squared residuals of the least-squares line through (x, y)."""
    if len(x) < 2:
        return 0.0
    coeffs = np.polyfit(x.astype(float), y, 1)
    resid = y - np.polyval(coeffs, x.astype(float))
    return float(np.dot(resid, resid))
