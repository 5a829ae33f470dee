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
    "clamp_to_ranges",
    "slot_values",
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
    # mean-normalize within each hardware class (one class on a
    # homogeneous cluster)
    slot_class = np.asarray(cluster.spec.slot_class)
    factors = np.full(cluster.n_nodes, np.nan)
    for k in range(len(cluster.spec.node_classes)):
        in_class = slot_class == k
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
    if surplus <= 1e-9:
        return budgets
    room = hi - budgets
    open_idx = room > 1e-12
    if not open_idx.any():
        return budgets
    n = len(budgets)
    hi = np.broadcast_to(np.asarray(hi, dtype=np.float64), (n,))
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
    k = len(idx)  # breakpoints passed: all of them when saturated
    if surplus < float(room[idx].sum()) - 1e-12:
        t_pin = room[idx] / weights[idx]  # per-entry pinning threshold
        order = np.argsort(t_pin, kind="stable")
        t_s = t_pin[order]
        w_s = weights[idx][order]
        room_cum = np.cumsum(room[idx][order])
        w_tail = w_s.sum() - np.cumsum(w_s)
        # watts absorbed when the water level reaches each breakpoint
        absorbed_at = room_cum + t_s * w_tail
        # the sorted prefix sum can round above the pairwise room sum,
        # leaving a surplus past the last breakpoint: saturated too
        k = int(np.searchsorted(absorbed_at, surplus, side="left"))
    out = budgets.copy()
    if k == len(idx):  # the surplus covers all open room
        out[idx] = hi[idx]
        return out
    prev_room = float(room_cum[k - 1]) if k > 0 else 0.0
    t_star = (surplus - prev_room) / float(w_s[k:].sum())
    pinned = idx[order[:k]]
    rest = idx[order[k:]]
    out[pinned] = hi[pinned]
    out[rest] = np.minimum(budgets[rest] + t_star * weights[rest], hi[rest])
    return out


def clamp_to_ranges(
    total_w: float,
    target: np.ndarray,
    weights: np.ndarray,
    lo: np.ndarray | float,
    hi: np.ndarray | float,
) -> np.ndarray:
    """Clip a target split into ``[lo, hi]`` and move the error back.

    An overage (floors raised) is taken back from entries above their
    floor in proportion to their headroom — one pass suffices when
    ``total_w >= sum(lo)``; unspent watts (ceilings cut) are
    water-filled back by *weights* (:func:`waterfill_surplus`).
    """
    out = np.minimum(np.maximum(target, lo), hi)
    deficit = out.sum() - total_w
    if deficit > 1e-9:
        room = out - lo
        if room.sum() > 1e-12:
            out = out - deficit * room / room.sum()
        return np.minimum(np.maximum(out, lo), hi)
    return waterfill_surplus(out, -deficit, weights, hi)


def slot_values(class_values, slot_classes: tuple[int, ...]):
    """Index per-class values by slot.

    Returns the shared value itself when every slot is of one hardware
    class — the scalar form bounds, audits and journals keep — and a
    tuple of floats, one per slot, otherwise.
    """
    first = slot_classes[0]
    if slot_classes.count(first) == len(slot_classes):
        return class_values[first]
    return tuple(float(class_values[k]) for k in slot_classes)


def coordinate_power(
    total_budget_w: float,
    factors: np.ndarray,
    lo_w: float | np.ndarray,
    hi_w: float | np.ndarray,
    threshold: float = VARIABILITY_THRESHOLD,
) -> np.ndarray:
    """Split a job budget across nodes, variability-aware.

    One body serves every fleet: the target split — uniform below the
    variability threshold, proportional to the factors above it (node
    *i* needs ``factor_i`` times the watts of the nominal part to
    sustain the same frequency) — is clipped into each node's range
    and the clipping error moved back onto nodes with headroom
    (:func:`clamp_to_ranges`).  A homogeneous cluster is the case where
    every node shares one range.

    Parameters
    ----------
    total_budget_w:
        Power available to the participating nodes together.
    factors:
        Per-node efficiency factors (watts per unit work, normalized);
        only the participating nodes' entries are passed.
    lo_w / hi_w:
        Acceptable per-node power range: one scalar shared by every
        node (all participating nodes of one hardware class) or one
        entry per node, in the same order as ``factors``.  Budgets are
        kept inside every node's own range.
    threshold:
        Spread below which the target split stays uniform.

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
    # a shared scalar range broadcasts through every step below
    lo = np.asarray(lo_w, dtype=np.float64)
    hi = np.asarray(hi_w, dtype=np.float64)
    if (lo <= 0).any() or (hi < lo).any():
        raise SchedulingError(
            f"invalid per-node power ranges [{lo_w}, {hi_w}]"
        )
    floor = float(lo.sum()) if lo.ndim else n * float(lo)
    if total_budget_w < floor - 1e-9:
        raise SchedulingError(
            f"budget {total_budget_w:.1f} W cannot give {n} nodes their "
            f"floors summing to {floor:.1f} W"
        )
    spread = factors.max() / factors.min() - 1.0
    if n == 1 or spread <= threshold:
        target, weights = np.full(n, total_budget_w / n), np.ones(n)
    else:
        target, weights = total_budget_w * factors / factors.sum(), factors
    return clamp_to_ranges(total_budget_w, target, weights, lo, hi)
