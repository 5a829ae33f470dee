"""Inter-node power coordination under manufacturing variability.

Section III-B.2 (following Inadomi et al., SC'15): nominally identical
nodes convert watts to frequency differently; under a uniform per-node
budget the least efficient node paces every bulk-synchronous step.
CLIP measures per-node efficiency once per cluster with a calibration
kernel, and — when the spread exceeds a threshold (the paper's testbed
is "quite homogeneous", so coordination only engages beyond it) —
redistributes the job's power proportionally to each node's efficiency
factor so all nodes sustain the same operating point.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulingError
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.characteristics import CommPattern, WorkloadCharacteristics

__all__ = [
    "VARIABILITY_THRESHOLD",
    "measure_node_factors",
    "coordinate_power",
    "waterfill_surplus",
]

#: Relative max-to-min power spread below which nodes are treated as
#: homogeneous and budgets stay uniform.
VARIABILITY_THRESHOLD = 0.05

#: Calibration workload: a fixed compute-bound kernel so measured power
#: differences reflect the silicon, not workload placement.
_CALIBRATION_APP = WorkloadCharacteristics(
    name="clip.calibration",
    description="fixed DGEMM-like kernel for variability calibration",
    instructions_per_iter=2.0e10,
    bytes_per_instruction=0.02,
    serial_fraction=0.0,
    sync_cost_s=0.0,
    ipc_fraction=0.65,
    shared_fraction=0.05,
    icache_mpki=0.1,
    comm_pattern=CommPattern.NONE,
    iterations=3,
    problem_size="calibration",
)


def measure_node_factors(engine: ExecutionEngine, n_threads: int | None = None) -> np.ndarray:
    """Measure each node's power-efficiency factor (mean-normalized).

    Runs the calibration kernel on every node at a fixed frequency and
    reads RAPL power; a node drawing more watts for the same work gets
    a factor above 1.  This is a one-time cluster calibration, not a
    per-application cost.

    The default uses half the cores: an all-core compute kernel sits at
    the factory power limit, where inefficient parts silently throttle
    and the power signal collapses to the cap value.

    Nodes currently marked failed are skipped and carry a neutral
    factor of 1.0 (they cannot participate in runs anyway); the
    normalization uses only the measured survivors.

    On a heterogeneous cluster each node is calibrated against its own
    spec (half *its* cores, pinned at *its* nominal frequency) and the
    mean-normalization runs within each hardware class: a Broadwell
    legitimately draws different watts than a Haswell, and only the
    within-class silicon spread is manufacturing variability.

    The per-node kernels are scored in **one what-if call**
    (:meth:`ExecutionEngine.evaluate_many`; an array program on any
    fleet above :data:`~repro.sim.batch.FLOAT_PATH_MAX_CELLS`
    available nodes), and the resulting factors
    are cached on the engine keyed by the cluster fingerprint (specs,
    per-node efficiencies, failed set) — ``fail_node`` /
    ``recover_node`` / ``degrade_node`` all change the fingerprint, so
    a mutation invalidates the cached calibration by construction while
    repeated scheduler constructions against the same fleet skip
    recalibration entirely.
    """
    cluster = engine.cluster
    cache = engine.calibration_cache
    key = engine.calibration_fingerprint(n_threads)
    cached = cache.get(key)
    if cached is not None:
        return cached.copy()
    available = cluster.available_node_ids
    if not available:
        raise SchedulingError("cannot calibrate: every node is failed")
    specs_by_id = [cluster.node(i).spec for i in available]
    configs = [
        ExecutionConfig(
            n_nodes=1,
            n_threads=n_threads or node_spec.n_cores // 2,
            node_ids=(i,),
            frequency_hz=node_spec.socket.f_nominal,
        )
        for i, node_spec in zip(available, specs_by_id)
    ]
    results = engine.evaluate_many(_CALIBRATION_APP, configs)
    powers = np.full(cluster.n_nodes, np.nan)
    for i, result in zip(available, results):
        rec = result.nodes[0]
        powers[i] = rec.operating_point.pkg_power_w + rec.operating_point.dram_power_w
    measured = powers[~np.isnan(powers)]
    if measured.size == 0:
        raise SchedulingError("cannot calibrate: every node is failed")
    spec = cluster.spec
    if spec.is_homogeneous:
        factors = powers / measured.mean()
    else:
        factors = np.full(cluster.n_nodes, np.nan)
        # one gather: map each slot to its hardware class, then
        # mean-normalize within each class (first-appearance order)
        class_of: dict = {}
        cls_ids = np.fromiter(
            (class_of.setdefault(s, len(class_of)) for s in spec.node_specs),
            dtype=np.int64,
            count=cluster.n_nodes,
        )
        for k in range(len(class_of)):
            in_class = cls_ids == k
            class_measured = powers[in_class & ~np.isnan(powers)]
            if class_measured.size:
                factors[in_class] = powers[in_class] / class_measured.mean()
    factors[np.isnan(factors)] = 1.0
    cache[key] = factors.copy()
    return factors


def waterfill_surplus(
    budgets: np.ndarray,
    surplus: float,
    weights: np.ndarray,
    hi: np.ndarray | float,
) -> np.ndarray:
    """Distribute *surplus* watts onto *budgets*, exactly, water-filling.

    Each entry grows proportionally to its weight until it pins at its
    own ceiling; pinned entries stop absorbing and the remainder keeps
    flowing to the others.  The result satisfies
    ``sum(out) == sum(budgets) + min(surplus, sum(hi - budgets))`` up to
    float round-off — the exact fill the old fixed-pass loop could miss
    when many entries pinned at ``hi`` (each pass spilled onto *all*
    open entries proportionally and terminated after a fixed count).

    The no-pin case reproduces the historical single proportional pass
    bit-for-bit; pinning triggers the exact breakpoint solve (sort the
    pin thresholds ``room/weight``, prefix-sum the absorbed watts, and
    solve the final linear segment).
    """
    n = len(budgets)
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (n,))
    room = hi - budgets
    open_idx = room > 1e-12
    if surplus <= 1e-9 or not np.any(open_idx):
        return budgets
    # historical first pass: spill proportionally onto the open entries
    add = np.zeros(n)
    add[open_idx] = surplus * weights[open_idx] / weights[open_idx].sum()
    new = np.minimum(budgets + add, hi)
    remaining = surplus - float((new - budgets).sum())
    if remaining <= 1e-9:
        return new
    # entries pinned: exact breakpoint water-fill from the original
    # budgets.  Fully saturated when the surplus covers all open room.
    idx = np.flatnonzero(open_idx)
    if surplus >= float(room[idx].sum()) - 1e-12:
        out = budgets.copy()
        out[idx] = hi[idx]
        return out
    t_pin = room[idx] / weights[idx]  # per-entry pinning threshold
    order = np.argsort(t_pin, kind="stable")
    t_s = t_pin[order]
    w_s = weights[idx][order]
    room_cum = np.cumsum(room[idx][order])
    w_tail = w_s.sum() - np.cumsum(w_s)
    # watts absorbed when the water level reaches each breakpoint
    absorbed_at = room_cum + t_s * w_tail
    k = int(np.searchsorted(absorbed_at, surplus, side="left"))
    prev_room = float(room_cum[k - 1]) if k > 0 else 0.0
    w_rem = float(w_s[k:].sum())
    t_star = (surplus - prev_room) / w_rem
    out = budgets.copy()
    pinned = idx[order[:k]]
    rest = idx[order[k:]]
    out[pinned] = hi[pinned]
    out[rest] = np.minimum(budgets[rest] + t_star * weights[rest], hi[rest])
    return out


def coordinate_power(
    total_budget_w: float,
    factors: np.ndarray,
    lo_w: float | np.ndarray,
    hi_w: float | np.ndarray,
    threshold: float = VARIABILITY_THRESHOLD,
) -> np.ndarray:
    """Split a job budget across nodes, variability-aware.

    Parameters
    ----------
    total_budget_w:
        Power available to the participating nodes together.
    factors:
        Per-node efficiency factors (watts per unit work, normalized);
        only the participating nodes' entries are passed.
    lo_w / hi_w:
        Acceptable per-node power range of the application.  Scalars
        describe a homogeneous cluster; per-node arrays (one entry per
        participating node, in the same order as ``factors``) carry
        each node's own range on a heterogeneous cluster.  Budgets are
        kept inside every node's own range.
    threshold:
        Spread below which the split stays uniform.

    Returns
    -------
    numpy.ndarray
        Per-node budgets summing to at most ``total_budget_w``.

    Raises
    ------
    SchedulingError
        If the budget cannot give every node at least its own floor.
    """
    factors = np.asarray(factors, dtype=np.float64)
    n = len(factors)
    if n < 1:
        raise SchedulingError("need at least one participating node")
    lo_arr = np.asarray(lo_w, dtype=np.float64)
    hi_arr = np.asarray(hi_w, dtype=np.float64)
    if lo_arr.ndim == 0 and hi_arr.ndim == 0:
        lo_s = float(lo_arr)
        hi_s = float(hi_arr)
        if lo_s <= 0 or hi_s < lo_s:
            raise SchedulingError(f"invalid power range [{lo_s}, {hi_s}]")
        if total_budget_w < n * lo_s - 1e-9:
            raise SchedulingError(
                f"budget {total_budget_w:.1f} W cannot give {n} nodes the "
                f"floor of {lo_s:.1f} W each"
            )
        uniform = np.full(n, min(total_budget_w / n, hi_s))
        spread = factors.max() / factors.min() - 1.0
        if n == 1 or spread <= threshold:
            return uniform

        # Proportional split: node i needs factor_i times the watts of
        # the nominal part to sustain the same frequency.  Clamp into
        # the acceptable range and hand clipped surplus back
        # proportionally.
        budgets = np.clip(total_budget_w * factors / factors.sum(), lo_s, hi_s)
        deficit = budgets.sum() - total_budget_w
        if deficit > 1e-9:
            # Clamping weak nodes up to lo_w pushed the sum past the
            # budget; take the overage back from nodes above the floor,
            # proportionally to their headroom.  The feasibility guard
            # above guarantees sum(room) = sum - n*lo >= deficit, so one
            # proportional pass lands exactly on the budget without
            # dropping anyone below lo_w.
            room = budgets - lo_s
            budgets = budgets - deficit * room / room.sum()
            return np.clip(budgets, lo_s, hi_s)
        return waterfill_surplus(budgets, -deficit, factors, hi_s)

    # -- per-node ranges (heterogeneous clusters) -----------------------
    # Even a below-threshold spread must respect per-node bounds, so
    # the clamp-and-redistribute machinery always runs: start from the
    # target split (uniform or factor-proportional), clip into each
    # node's own range, then move the clipping error back onto nodes
    # with headroom.
    lo = np.array(np.broadcast_to(lo_arr, (n,)), dtype=np.float64)
    hi = np.array(np.broadcast_to(hi_arr, (n,)), dtype=np.float64)
    if np.any(lo <= 0) or np.any(hi < lo):
        raise SchedulingError(
            f"invalid per-node power ranges [{lo.tolist()}, {hi.tolist()}]"
        )
    if total_budget_w < lo.sum() - 1e-9:
        raise SchedulingError(
            f"budget {total_budget_w:.1f} W cannot give {n} nodes their "
            f"floors summing to {lo.sum():.1f} W"
        )
    spread = factors.max() / factors.min() - 1.0
    if n == 1 or spread <= threshold:
        raw = np.full(n, total_budget_w / n)
        weights = np.ones(n)
    else:
        raw = total_budget_w * factors / factors.sum()
        weights = factors
    budgets = np.clip(raw, lo, hi)
    deficit = budgets.sum() - total_budget_w
    if deficit > 1e-9:
        room = budgets - lo
        if room.sum() > 1e-12:
            budgets = budgets - deficit * room / room.sum()
        return np.clip(budgets, lo, hi)
    return waterfill_surplus(budgets, -deficit, weights, hi)
