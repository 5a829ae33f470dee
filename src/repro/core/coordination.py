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
    "coordinate_segments",
    "segment_sums",
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


def measure_node_factors(engine: ExecutionEngine) -> np.ndarray:
    """Measure each node's power-efficiency factor (mean-normalized).

    Runs the calibration kernel on every node at a fixed frequency and
    reads RAPL power; a node drawing more watts for the same work gets
    a factor above 1.  This is a one-time cluster calibration, not a
    per-application cost.

    The kernel uses half the cores: an all-core compute kernel sits at
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

    The per-node kernels are scored in **one what-if call per hardware
    class** (:meth:`ExecutionEngine.evaluate_many`; an array program
    for a CPU-only class above
    :data:`~repro.sim.batch.FLOAT_PATH_MAX_CELLS` available nodes; a
    node's result does not depend on the rest of its batch), and the
    resulting factors
    are cached on the engine keyed by the cluster fingerprint (specs,
    per-node efficiencies, failed set) — ``fail_node`` /
    ``recover_node`` / ``degrade_node`` all change the fingerprint, so
    a mutation invalidates the cached calibration by construction while
    repeated scheduler constructions against the same fleet skip
    recalibration entirely.
    """
    cluster = engine.cluster
    cache = engine.calibration_cache
    key = engine.calibration_fingerprint()
    cached = cache.get(key)
    if cached is not None:
        return cached.copy()
    available = cluster.available_node_ids
    if not available:
        raise SchedulingError("cannot calibrate: every node is failed")
    slot_class = np.asarray(cluster.spec.slot_class)
    powers = np.full(cluster.n_nodes, np.nan)
    factors = np.full(cluster.n_nodes, np.nan)
    for k, node_spec in enumerate(cluster.spec.node_classes):
        ids = [i for i in available if cluster.spec.slot_class[i] == k]
        configs = [
            ExecutionConfig(
                n_nodes=1,
                n_threads=node_spec.n_cores // 2,
                node_ids=(i,),
                frequency_hz=node_spec.socket.f_nominal,
            )
            for i in ids
        ]
        for i, result in zip(ids, engine.evaluate_many(_CALIBRATION_APP, configs)):
            op = result.nodes[0].operating_point
            powers[i] = op.pkg_power_w + op.dram_power_w
        # mean-normalize within the class
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


def _row_sums(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Each row's sum over its kept entries, as NumPy sums the 1-D slice.

    Row ``i`` gets ``values[i][keep[i]].sum()`` bit for bit.  NumPy adds
    fewer than 8 values left to right and longer runs pairwise, so a
    zero-filled row would not do: rows keeping equally many entries are
    gathered into one 2-D block and reduced along axis 1, which runs the
    1-D summation once per row.
    """
    if keep.all():
        return values.sum(axis=1)
    counts = keep.sum(axis=1)
    out = np.zeros(len(values))
    for c in np.unique(counts).tolist():
        if c:
            rows = counts == c
            out[rows] = values[rows][keep[rows]].reshape(-1, c).sum(axis=1)
    return out


def _searchsorted_rows(rows: np.ndarray, ends: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted(rows[i, :ends[i]], keys[i], side="left")`` per row.

    The same bisection NumPy runs for one key, stepped for every row at
    once, so a row that rounding left slightly unsorted gets the index
    the 1-D call would give.
    """
    lo = np.zeros(len(rows), dtype=np.int64)
    hi = ends.astype(np.int64)
    at = np.arange(len(rows))
    while True:
        live = lo < hi
        if not live.any():
            return lo
        mid = lo + ((hi - lo) >> 1)
        below = rows[at, np.where(live, mid, 0)] < keys
        lo = np.where(live & below, mid + 1, lo)
        hi = np.where(live & ~below, mid, hi)


def _waterfill_rows(
    budgets: np.ndarray,
    surplus: np.ndarray,
    weights: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """:func:`waterfill_surplus` for a block of equal-width rows.

    Row ``i`` spills ``surplus[i]`` onto ``budgets[i]``; every sum a
    row takes is the one the 1-D fill takes (:func:`_row_sums`).  *hi*
    is one shared ceiling or one per entry.
    """
    if (surplus <= 1e-9).all():
        return budgets
    hi = np.broadcast_to(hi, budgets.shape)
    room = hi - budgets
    open_ = room > 1e-12
    active = ~(surplus <= 1e-9) & open_.any(axis=1)
    if not active.any():
        return budgets
    out = budgets.copy()
    b, s, w, h = budgets[active], surplus[active], weights[active], hi[active]
    room, open_ = room[active], open_[active]
    # historical first pass: spill proportionally onto the open entries
    share = s[:, None] * w / _row_sums(w, open_)[:, None]
    new = np.minimum(b + np.where(open_, share, 0.0), h)
    pinned = ~(s - (new - b).sum(axis=1) <= 1e-9)
    if pinned.any():
        new[pinned] = _breakpoint_rows(
            b[pinned], s[pinned], w[pinned], h[pinned], room[pinned], open_[pinned]
        )
    out[active] = new
    return out


def _breakpoint_rows(b, s, w, h, room, open_) -> np.ndarray:
    """Exact breakpoint water-fill from the original budgets, per row.

    Sort each row's pin thresholds ``room/weight`` (closed entries last),
    prefix-sum the watts absorbed at each breakpoint and solve the final
    linear segment.  A row is saturated when its surplus covers all its
    open room.
    """
    width = b.shape[1]
    n_open = open_.sum(axis=1)
    t_pin = np.where(open_, room / w, np.inf)
    order = np.argsort(t_pin, axis=1, kind="stable")
    sorted_open = np.arange(width) < n_open[:, None]
    w_s = np.where(sorted_open, np.take_along_axis(w, order, axis=1), 0.0)
    room_cum = np.cumsum(
        np.where(sorted_open, np.take_along_axis(room, order, axis=1), 0.0), axis=1
    )
    w_tail = _row_sums(w_s, sorted_open)[:, None] - np.cumsum(w_s, axis=1)
    t_s = np.where(sorted_open, np.take_along_axis(t_pin, order, axis=1), 0.0)
    # watts absorbed when the water level reaches each breakpoint
    absorbed_at = room_cum + t_s * w_tail
    # breakpoints passed: all of them when saturated (the sorted prefix
    # sum can round above the pairwise room sum, leaving a surplus past
    # the last breakpoint: saturated too)
    k = np.where(
        s < _row_sums(room, open_) - 1e-12,
        _searchsorted_rows(absorbed_at, n_open, s),
        n_open,
    )
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(width)[None, :], axis=1)
    out = np.where(open_, h, b)  # saturated rows: every open entry at hi
    partial = k < n_open
    if partial.any():
        k, rows = k[partial], np.flatnonzero(partial)
        prev_room = np.where(
            k > 0, room_cum[rows, np.maximum(k - 1, 0)], 0.0
        )
        rest_s = sorted_open[partial] & (np.arange(width) >= k[:, None])
        t_star = (s[partial] - prev_room) / _row_sums(w_s[partial], rest_s)
        rest = open_[partial] & (rank[partial] >= k[:, None])
        fill = np.minimum(b[partial] + t_star[:, None] * w[partial], h[partial])
        out[partial] = np.where(rest, fill, out[partial])
    return out


def _clamp_rows(
    total: np.ndarray,
    target: np.ndarray,
    weights: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """:func:`clamp_to_ranges` for a block of equal-width rows; *lo* and
    *hi* are one shared bound or one per entry."""
    out = np.minimum(np.maximum(target, lo), hi)
    deficit = out.sum(axis=1) - total
    over = deficit > 1e-9
    if not over.any():
        return _waterfill_rows(out, -deficit, weights, hi)
    lo, hi = np.broadcast_to(lo, out.shape), np.broadcast_to(hi, out.shape)
    o, lo_o, hi_o, d = out[over], lo[over], hi[over], deficit[over]
    room = o - lo_o
    room_sum = room.sum(axis=1)
    shift = room_sum > 1e-12
    if shift.any():
        o[shift] = o[shift] - d[shift, None] * room[shift] / room_sum[shift, None]
    out[over] = np.minimum(np.maximum(o, lo_o), hi_o)
    under = ~over
    out[under] = _waterfill_rows(out[under], -deficit[under], weights[under], hi[under])
    return out


def _segment_blocks(widths: np.ndarray) -> list:
    """Group contiguous segments by width.

    One ``(width, segments, take)`` per distinct width: the segment ids
    and the slot index block (one row per segment).  When every segment
    has one width, ``segments`` is ``slice(None)`` and ``take`` is
    ``None``: the per-slot arrays reshape to the block.
    """
    width = int(widths[0])
    if (widths == width).all():
        return [(width, slice(None), None)]
    starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
    blocks = []
    for w in np.unique(widths).tolist():
        segs = np.flatnonzero(widths == w)
        blocks.append((w, segs, starts[segs, None] + np.arange(w)))
    return blocks


def _block(values: np.ndarray, width: int, take) -> np.ndarray:
    """The block of per-slot *values* (a shared 0-d value as it is)."""
    if not values.ndim:
        return values
    return values.reshape(-1, width) if take is None else values[take]


def segment_sums(values: np.ndarray, widths) -> np.ndarray:
    """Each contiguous segment's sum, as ``values[s:e].sum()`` gives it.

    Segments of one width are reduced together as rows of one 2-D
    block, which NumPy sums row by row exactly as it sums the slice.
    """
    widths = np.asarray(widths, dtype=np.int64)
    out = np.empty(len(widths))
    for w, segs, take in _segment_blocks(widths):
        out[segs] = _block(values, w, take).sum(axis=1)
    return out


def _floor_error(total_w: float, n: int, floor_w: float) -> SchedulingError:
    return SchedulingError(
        f"budget {total_w:.1f} W cannot give {n} nodes their "
        f"floors summing to {floor_w:.1f} W"
    )


def _split_one(total_w: float, factors: np.ndarray, lo, hi, threshold: float) -> np.ndarray:
    """One job's split once its floors are known to fit: the target —
    uniform below the variability threshold, proportional to the factors
    above it — clipped into the ranges and the error moved back."""
    n = len(factors)
    spread = factors.max() / factors.min() - 1.0
    if n == 1 or spread <= threshold:
        target, weights = np.full(n, total_w / n), np.ones(n)
    else:
        target, weights = total_w * factors / factors.sum(), factors
    return clamp_to_ranges(total_w, target, weights, lo, hi)


def coordinate_segments(
    totals_w,
    factors: np.ndarray,
    lo_w: float | np.ndarray,
    hi_w: float | np.ndarray,
    widths,
    threshold: float = VARIABILITY_THRESHOLD,
) -> np.ndarray:
    """Split each segment's budget across its nodes, all segments at once.

    The nodes are laid out as contiguous segments (``widths[j]`` nodes
    for segment ``j``, in order), and segment ``j`` receives
    ``totals_w[j]``.  Each segment is split exactly as
    :func:`coordinate_power` splits one job budget — the same target,
    clip and water-fill, bit for bit.  Segments of equal width are
    solved together as the rows of one 2-D block, so a fleet of racks
    costs a handful of array passes instead of one call per rack; a
    width only one segment has takes the one-job path, which is
    cheaper for a single row.  *lo_w* / *hi_w* are one scalar for
    every node or one entry per node.

    Raises
    ------
    SchedulingError
        For the first segment whose budget cannot give every node its
        floor.
    """
    totals = np.asarray(totals_w, dtype=np.float64)
    widths = np.asarray(widths, dtype=np.int64)
    lo = np.asarray(lo_w, dtype=np.float64)
    hi = np.asarray(hi_w, dtype=np.float64)
    floors = segment_sums(lo, widths) if lo.ndim else widths * float(lo)
    short = np.flatnonzero(totals < floors - 1e-9)
    if short.size:
        j = int(short[0])
        raise _floor_error(totals[j], int(widths[j]), floors[j])
    budgets = np.empty(len(factors))
    for w, segs, take in _segment_blocks(widths):
        f = _block(factors, w, take)
        lo_b, hi_b = _block(lo, w, take), _block(hi, w, take)
        total = totals[segs]
        if len(f) == 1:
            rows = _split_one(
                float(total[0]), f[0], lo_b[0] if lo_b.ndim else lo_b,
                hi_b[0] if hi_b.ndim else hi_b, threshold,
            )
        else:
            # the same target per row: uniform, or proportional to the
            # factors where they spread beyond the threshold
            target = np.empty(f.shape)
            target[:] = (total / w)[:, None]
            weights = np.ones(f.shape)
            if w > 1:
                prop = ~(f.max(axis=1) / f.min(axis=1) - 1.0 <= threshold)
                if prop.any():
                    fp = f[prop]
                    target[prop] = total[prop, None] * fp / fp.sum(axis=1)[:, None]
                    weights[prop] = fp
            rows = _clamp_rows(total, target, weights, lo_b, hi_b)
        if take is None:
            return rows.reshape(-1)
        budgets[take] = rows
    return budgets


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
    every node shares one range.  :func:`coordinate_segments` runs the
    same split for many jobs (racks) at once.

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
        raise _floor_error(total_budget_w, n, floor)
    return _split_one(total_budget_w, factors, lo, hi, threshold)
