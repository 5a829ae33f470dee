"""The segmented rack split and audit match the per-rack loops bit for bit.

``split_cluster_budget`` solves every rack's intra-rack split in one
segmented pass (:func:`~repro.core.coordination.coordinate_segments`),
and the pipeline audits every rack's caps with one
:meth:`~repro.core.monitor.BudgetInvariantMonitor.audit_segments` call.
Both replaced per-rack loops: one ``coordinate_power`` call per rack
and one ``monitor.audit`` call per rack.  This module keeps verbatim
copies of those loops (and of the single-rack solver and the audit
they called) as references and compares them against the segmented
code on seeded random fleets:

* ragged racks of 1–16 slots, a partial last rack, scalar and
  per-slot ranges;
* every branch of the split: uniform and proportional targets, no
  clipping, the deficit pass, the first water-fill pass, the
  breakpoint solve and saturation;
* infeasible budgets (same exception type and text);
* audits that flag, with identical violation strings.

Slot budgets, :class:`RackBudget` fields and ledger records are
compared with ``==`` on floats and bytes, i.e. bit for bit.  Run with
``-s`` to see the per-path segment counts.
"""

from __future__ import annotations

import itertools
import random
import struct
from collections import Counter

import numpy as np
import pytest

from repro.core.coordination import (
    VARIABILITY_THRESHOLD,
    _waterfill_rows,
    coordinate_power,
    coordinate_segments,
    segment_sums,
)
from repro.core.hierarchy import RackBudget, split_cluster_budget
from repro.core.monitor import (
    AUDIT_TOLERANCE_W,
    BudgetInvariantMonitor,
    CapAudit,
)
from repro.errors import SchedulingError

#: Random segments behind the split equivalence (acceptance: >= 200k).
MIN_SEGMENTS = 200_000

# ----------------------------------------------------------------------
# references: the per-rack code the segmented passes replaced, verbatim
# ----------------------------------------------------------------------


def ref_waterfill_surplus(budgets, surplus, weights, hi):
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


def ref_clamp_to_ranges(total_w, target, weights, lo, hi):
    out = np.minimum(np.maximum(target, lo), hi)
    deficit = out.sum() - total_w
    if deficit > 1e-9:
        room = out - lo
        if room.sum() > 1e-12:
            out = out - deficit * room / room.sum()
        return np.minimum(np.maximum(out, lo), hi)
    return ref_waterfill_surplus(out, -deficit, weights, hi)


def ref_coordinate_power(total_budget_w, factors, lo_w, hi_w, threshold=VARIABILITY_THRESHOLD):
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
    return ref_clamp_to_ranges(total_budget_w, target, weights, lo, hi)


def ref_split_cluster_budget(
    total_budget_w, factors, lo_w, hi_w, rack_of_slot, rack_names=None,
    threshold=VARIABILITY_THRESHOLD,
):
    factors = np.asarray(factors, dtype=np.float64)
    n = len(factors)
    if n < 1:
        raise SchedulingError("need at least one participating node")
    rack_of = np.asarray(rack_of_slot[:n], dtype=np.int64)
    if len(rack_of) != n:
        raise SchedulingError("rack_of_slot must cover every participating slot")
    if np.any(np.diff(rack_of) < 0):
        raise SchedulingError("slots of one rack must be contiguous")
    lo = np.array(np.broadcast_to(np.asarray(lo_w, dtype=np.float64), (n,)))
    hi = np.array(np.broadcast_to(np.asarray(hi_w, dtype=np.float64), (n,)))
    if np.any(lo <= 0) or np.any(hi < lo):
        raise SchedulingError("invalid per-node power ranges")

    # racks that actually hold participating slots, in slot order
    present = np.unique(rack_of)
    n_present = len(present)
    # position of each slot's rack inside `present`
    pos = np.searchsorted(present, rack_of)
    rack_lo = np.bincount(pos, weights=lo, minlength=n_present)
    rack_hi = np.bincount(pos, weights=hi, minlength=n_present)
    sizes = np.bincount(pos, minlength=n_present)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)

    total_eff = min(float(total_budget_w), float(rack_hi.sum()))
    if total_eff < rack_lo.sum() - 1e-9:
        raise SchedulingError(
            f"budget {total_budget_w:.1f} W cannot give {n} nodes their "
            f"floors summing to {rack_lo.sum():.1f} W"
        )

    # cluster → rack: proportional to aggregate capacity, clamped into
    # each rack's [sum(lo), sum(hi)] by the node level's own step
    shares = ref_clamp_to_ranges(
        total_eff, total_eff * rack_hi / rack_hi.sum(), rack_hi, rack_lo, rack_hi
    )

    # rack → node: the existing variability-aware coordinator per rack
    budgets = np.empty(n)
    records = []
    for k in range(n_present):
        s, e = int(starts[k]), int(starts[k] + sizes[k])
        rack_nodes = ref_coordinate_power(
            float(shares[k]), factors[s:e], lo[s:e], hi[s:e], threshold
        )
        budgets[s:e] = rack_nodes
        r = int(present[k])
        records.append(
            RackBudget(
                index=r,
                name=rack_names[r] if rack_names is not None else f"rack{r}",
                start_slot=s,
                n_nodes=int(sizes[k]),
                budget_w=float(shares[k]),
                allocated_w=float(rack_nodes.sum()),
                lo_w=float(rack_lo[k]),
                hi_w=float(rack_hi[k]),
            )
        )
    return budgets, tuple(records)


def _per_rank_bounds(bound, n_ranks: int) -> list[float] | None:
    """Normalize a scalar-or-sequence bound to one float per rank."""
    if bound is None:
        return None
    if isinstance(bound, (int, float)):
        return [float(bound)] * n_ranks
    seq = [float(b) for b in bound]
    if len(seq) != n_ranks:
        raise ValueError(
            f"per-rank bounds cover {len(seq)} ranks, cap set has {n_ranks}"
        )
    return seq


def _bound_field(bound):
    """The bound as stored on :class:`CapAudit` (scalar or tuple)."""
    if bound is None or isinstance(bound, (int, float)):
        return bound if bound is None else float(bound)
    return tuple(float(b) for b in bound)


def ref_audit(
    audits, source, app_name, cluster_budget_w, caps, node_lo_w=None,
    node_hi_w=None, tolerance_w=AUDIT_TOLERANCE_W,
):
    lo_seq = _per_rank_bounds(node_lo_w, len(caps))
    hi_seq = _per_rank_bounds(node_hi_w, len(caps))
    # each node's total, taken once for both the cluster sum and
    # the range checks; the ledger keeps the caps packed
    arity = bytes(map(len, caps))
    packed = struct.pack(f"{sum(arity)}d", *itertools.chain.from_iterable(caps))
    totals = [sum(cap) for cap in caps]
    violations: list[str] = []
    total = float(sum(totals))
    slack = tolerance_w + 1e-9 * max(abs(cluster_budget_w), 1.0)
    if total > cluster_budget_w + slack:
        violations.append(
            f"sum of caps {total:.3f} W exceeds cluster budget "
            f"{cluster_budget_w:.3f} W"
        )
    for rank, (cap, node_total) in enumerate(zip(caps, totals)):
        if cap and min(cap) < -tolerance_w:
            listed = ", ".join(f"{c:.3f}" for c in cap)
            violations.append(
                f"node {rank}: negative cap ({listed}) W"
            )
        if lo_seq is not None and node_total < lo_seq[rank] - slack:
            violations.append(
                f"node {rank}: cap {node_total:.3f} W below the "
                f"acceptable floor {lo_seq[rank]:.3f} W"
            )
        if hi_seq is not None and node_total > hi_seq[rank] + slack:
            violations.append(
                f"node {rank}: cap {node_total:.3f} W above the "
                f"acceptable ceiling {hi_seq[rank]:.3f} W"
            )
    audit = CapAudit(
        source=source,
        app_name=app_name,
        cluster_budget_w=cluster_budget_w,
        packed_caps=packed,
        cap_arity=arity,
        node_lo_w=_bound_field(node_lo_w),
        node_hi_w=_bound_field(node_hi_w),
        violations=tuple(violations),
    )
    audits.append(audit)
    return audit


def ref_rack_walk(audits, app_name, caps, rack_budgets, rack_of, rack_names):
    """The pipeline's per-rack audit walk (``_audit_decision``)."""
    # slots fill in rack order, so each rack's caps are one
    # contiguous run — a single walk audits every rack
    n, i, k = len(caps), 0, 0
    while i < n:
        r = rack_of[i]
        j = i
        while j < n and rack_of[j] == r:
            j += 1
        ref_audit(
            audits,
            f"pipeline.rack/{rack_names[r]}",
            app_name,
            rack_budgets[k],
            caps[i:j],
        )
        i, k = j, k + 1


# ----------------------------------------------------------------------
# random inputs
# ----------------------------------------------------------------------


def _path(total, factors, lo, hi, threshold=VARIABILITY_THRESHOLD) -> str:
    """Which branch of the single-rack split *total* takes (mirrors the
    reference's conditions)."""
    n = len(factors)
    if n == 1 or factors.max() / factors.min() - 1.0 <= threshold:
        kind, target, weights = "uniform", total / n, 1.0
    else:
        kind = "proportional"
        target, weights = total * factors / factors.sum(), factors
    out = np.minimum(np.maximum(target, lo), hi)
    surplus = total - float(np.sum(out)) if np.ndim(out) else total - n * float(out)
    if surplus < -1e-9:
        return kind + "/deficit"
    room = hi - out
    open_idx = np.broadcast_to(room > 1e-12, (n,))
    if surplus <= 1e-9 or not open_idx.any():
        return kind + "/no-fill"
    weights = np.broadcast_to(weights, (n,))[open_idx]
    fill = np.minimum(surplus * weights / weights.sum(), np.broadcast_to(room, (n,))[open_idx])
    if surplus - float(fill.sum()) <= 1e-9:
        return kind + "/first-pass"
    if surplus < float(np.broadcast_to(room, (n,))[open_idx].sum()) - 1e-12:
        return kind + "/breakpoint"
    return kind + "/saturated"


#: Where a rack's budget sits in its ``[sum(lo), sum(hi)]`` range:
#: the floor, low/mid/high fractions, the top and above it.
_BUDGET_SPOTS = ((0.0, 0.0), (0.0, 0.2), (0.2, 0.8), (0.8, 1.0), (1.0, 1.0), (1.0, 1.3))


def _fleet(rng: np.random.Generator, n_racks: int, per_slot: bool):
    """Random racks of 1–16 slots in rack order — half the time one
    common width with a partial last rack, else ragged — and one budget
    per rack aimed at a random spot of its range.

    Returns ``(widths, factors, lo, hi, totals)``; the ranges are one
    scalar pair for every slot, or one entry per slot.
    """
    if rng.random() < 0.5:
        width = int(rng.integers(1, 17))
        widths = np.full(n_racks, width)
        widths[-1] = rng.integers(1, width + 1)
    else:
        widths = rng.integers(1, 17, n_racks)
    n = int(widths.sum())
    rack = np.repeat(np.arange(n_racks), widths)
    starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
    # spreads below, near and well above the variability threshold
    spread = rng.choice([0.0, 0.02, 0.2, 0.6], n_racks)
    factors = 1.0 + spread[rack] * rng.uniform(-0.5, 0.5, n)
    for r in np.flatnonzero(rng.random(n_racks) < 0.1).tolist():
        # ties: equal factors in a spread rack
        s, w = starts[r], widths[r]
        factors[s:s + w // 2] = factors[s]
    gaps = np.array([0.0, 1.0, 60.0, 200.0])
    if per_slot:
        lo = rng.uniform(40.0, 140.0, n)
        hi = lo + rng.choice(gaps, n) * rng.uniform(0.2, 1.0, n)
        lo_sum, hi_sum = np.add.reduceat(lo, starts), np.add.reduceat(hi, starts)
    else:
        lo = float(rng.uniform(40.0, 140.0))
        hi = lo + float(rng.choice(gaps) * rng.uniform(0.2, 1.0))
        lo_sum, hi_sum = widths * lo, widths * hi
    spot = np.array(_BUDGET_SPOTS)[rng.integers(0, len(_BUDGET_SPOTS), n_racks)]
    frac = rng.uniform(spot[:, 0], spot[:, 1])
    totals = np.where(frac <= 1.0, lo_sum + (hi_sum - lo_sum) * frac, hi_sum * frac)
    return widths, factors, lo, hi, totals


def _racks(widths, factors, lo, hi, totals):
    """Each rack's ``(factors, lo, hi, total)`` slice."""
    start = 0
    for w, total in zip(widths.tolist(), totals.tolist()):
        end = start + w
        if np.ndim(lo):
            yield factors[start:end], lo[start:end], hi[start:end], total
        else:
            yield factors[start:end], lo, hi, total
        start = end


# ----------------------------------------------------------------------
# the split
# ----------------------------------------------------------------------


def _bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


def test_segments_match_per_rack_coordinate_power():
    """>= 200k random racks: every segment's budgets, bit for bit."""
    rng = np.random.default_rng(2017)
    paths: Counter = Counter()
    segments = in_blocks = 0
    while segments < MIN_SEGMENTS:
        fleet = _fleet(rng, int(rng.integers(1, 160)), bool(rng.random() < 0.5))
        widths, factors, lo, hi, totals = fleet
        got = coordinate_segments(totals, factors, lo, hi, widths)
        # segments sharing their width with another go through the
        # multi-row block solver, the rest through the one-job path
        per_width = Counter(widths.tolist())
        in_blocks += sum(1 for w in widths.tolist() if per_width[w] > 1)
        start = 0
        for f, r_lo, r_hi, total in _racks(*fleet):
            want = ref_coordinate_power(total, f, r_lo, r_hi)
            assert _bits(got[start:start + len(f)]) == _bits(want)
            if per_width[len(f)] > 1:
                paths[_path(total, f, r_lo, r_hi)] += 1
            start += len(f)
        segments += len(widths)
    print(
        f"\nsegmented split: {segments} random segments ({in_blocks} in "
        f"multi-row blocks, by path: {dict(sorted(paths.items()))})"
    )
    assert in_blocks >= 0.75 * segments
    for branch in ("deficit", "no-fill", "first-pass", "breakpoint", "saturated"):
        for kind in ("uniform", "proportional"):
            assert paths[f"{kind}/{branch}"] >= 100, (kind, branch, paths)


def test_one_segment_is_coordinate_power():
    rng = np.random.default_rng(7)
    for _ in range(300):
        fleet = _fleet(rng, 10, bool(rng.random() < 0.5))
        for f, lo, hi, total in _racks(*fleet):
            want = ref_coordinate_power(total, f, lo, hi)
            assert _bits(coordinate_power(total, f, lo, hi)) == _bits(want)


def test_water_level_ties_match_the_one_row_fill():
    """Surpluses landing exactly on a breakpoint of the water level: the
    row fill must bisect as ``np.searchsorted(..., side="left")`` does."""
    rng = np.random.default_rng(11)
    rows, ties = [], 0
    for _ in range(4000):
        w = int(rng.integers(2, 17))
        budgets = rng.uniform(50.0, 100.0, w)
        hi = budgets + rng.choice([0.0, 5.0, 20.0, 60.0], w) * rng.uniform(0.5, 1.0, w)
        weights = rng.choice([1.0, 1.0, 0.8, 1.2], w) * rng.uniform(0.95, 1.05, w)
        room = hi - budgets
        idx = np.flatnonzero(room > 1e-12)
        if len(idx) < 2:
            continue
        # the reference's breakpoints: surplus placed exactly on one
        order = np.argsort(room[idx] / weights[idx], kind="stable")
        w_s = weights[idx][order]
        absorbed_at = np.cumsum(room[idx][order]) + (
            room[idx] / weights[idx]
        )[order] * (w_s.sum() - np.cumsum(w_s))
        surplus = float(absorbed_at[int(rng.integers(0, len(idx) - 1))])
        rows.append((budgets, surplus, weights, hi))
    by_width: dict = {}
    for row in rows:
        by_width.setdefault(len(row[0]), []).append(row)
    for group in by_width.values():
        b, s, w, h = (np.array([r[i] for r in group]) for i in range(4))
        got = _waterfill_rows(b, s, w, h)
        for row, out in zip(group, got):
            want = ref_waterfill_surplus(*row)
            assert _bits(out) == _bits(want)
            ties += 1
    assert ties >= 3000


def test_split_cluster_budget_matches_per_rack_loop():
    rng = np.random.default_rng(1024)
    n_racks = 0
    for case in range(1500):
        widths, factors, lo, hi, _ = _fleet(
            rng, int(rng.integers(1, 40)), bool(rng.random() < 0.5)
        )
        # rack indices with gaps (racks holding no participating slot)
        rack_of = np.repeat(np.arange(len(widths)) * 2 + case % 3, widths)
        lo_sum = float(np.sum(np.broadcast_to(lo, factors.shape)))
        hi_sum = float(np.sum(np.broadcast_to(hi, factors.shape)))
        frac = float(rng.choice([0.0, 0.1, 0.5, 0.97, 1.0, 1.2]))
        total = lo_sum + (hi_sum - lo_sum) * frac
        names = tuple(f"r{i}" for i in range(int(rack_of.max()) + 1)) if case % 2 else None
        budgets, records = split_cluster_budget(total, factors, lo, hi, rack_of, names)
        want_budgets, want_records = ref_split_cluster_budget(
            total, factors, lo, hi, rack_of, names
        )
        assert _bits(budgets) == _bits(want_budgets)
        assert records == want_records
        for got, want in zip(records, want_records):
            assert [type(v) for v in got] == [type(v) for v in want]
            assert _bits([got.budget_w, got.allocated_w, got.lo_w, got.hi_w]) == _bits(
                [want.budget_w, want.allocated_w, want.lo_w, want.hi_w]
            )
        n_racks += len(widths)
    print(f"\nsplit_cluster_budget: 1500 fleets, {n_racks} racks")


def test_infeasible_budgets_raise_the_same_error():
    rng = np.random.default_rng(3)
    for _ in range(500):
        fleet = _fleet(rng, int(rng.integers(1, 12)), bool(rng.random() < 0.5))
        widths, factors, lo, hi, totals = fleet
        floors = segment_sums(np.broadcast_to(lo, factors.shape).copy(), widths)
        totals = floors * rng.uniform(1.0, 1.5, len(widths))
        short = rng.choice(len(widths), size=int(rng.integers(1, len(widths) + 1)), replace=False)
        totals[short] = floors[short] * rng.uniform(0.5, 0.999, len(short))
        with pytest.raises(SchedulingError) as got:
            coordinate_segments(totals, factors, lo, hi, widths)
        f, r_lo, r_hi, total = list(_racks(widths, factors, lo, hi, totals))[int(np.min(short))]
        with pytest.raises(SchedulingError) as want:
            ref_coordinate_power(total, f, r_lo, r_hi)
        assert str(got.value) == str(want.value)
        # the cluster-level check of the hierarchy
        rack_of = np.repeat(np.arange(len(widths)), widths)
        total = float(np.sum(floors)) * 0.9
        with pytest.raises(SchedulingError) as got:
            split_cluster_budget(total, factors, lo, hi, rack_of)
        with pytest.raises(SchedulingError) as want:
            ref_split_cluster_budget(total, factors, lo, hi, rack_of)
        assert str(got.value) == str(want.value)


# ----------------------------------------------------------------------
# the audit
# ----------------------------------------------------------------------


def _caps(rng: random.Random, n: int, gpu_share: float, bad: float):
    caps = []
    for _ in range(n):
        cap = [rng.uniform(40.0, 160.0), rng.uniform(5.0, 40.0)]
        if rng.random() < gpu_share:
            cap.append(rng.uniform(0.0, 250.0))
        if rng.random() < bad:
            cap[rng.randrange(len(cap))] = -rng.uniform(0.0, 5.0)
        caps.append(tuple(cap))
    return tuple(caps)


def test_rack_audits_match_the_per_rack_walk():
    rng = random.Random(128)
    flagged = records = 0
    for case in range(2000):
        n_racks = rng.randint(1, 24)
        width = rng.randint(1, 16)
        widths = [width] * n_racks
        widths[-1] = rng.randint(1, width)
        if case % 3 == 0:
            widths = [rng.randint(1, 16) for _ in range(n_racks)]
        caps = _caps(rng, sum(widths), rng.choice([0.0, 0.0, 0.3, 1.0]), rng.choice([0.0, 0.01, 0.1]))
        rack_of = [r for r, w in enumerate(widths) for _ in range(w)]
        names = tuple(f"rack{r}" for r in range(n_racks))
        sums = [sum(sum(c) for c in caps[s:s + w])
                for s, w in zip(itertools.accumulate([0] + widths[:-1]), widths)]
        budgets = tuple(s * rng.choice([0.98, 1.0, 1.0 + 1e-12, 1.05]) for s in sums)
        want: list[CapAudit] = []
        ref_rack_walk(want, "app", caps, budgets, rack_of, names)
        monitor = BudgetInvariantMonitor()
        parent = monitor.audit("pipeline", "app", sum(budgets), caps)
        got = monitor.audit_segments(
            [f"pipeline.rack/{n}" for n in names], "app", budgets, parent, widths
        )
        assert list(got) == want
        assert monitor.audits[1:] == want
        flagged += sum(1 for a in want if a.violations)
        records += len(want)
    print(f"\nrack audits: {records} records, {flagged} flagged")
    assert flagged >= 500


def test_rack_audits_reject_runs_that_do_not_cover_the_set():
    monitor = BudgetInvariantMonitor()
    parent = monitor.audit("pipeline", "app", 720.0, ((100.0, 20.0),) * 6)
    sources = ("pipeline.rack/rack0", "pipeline.rack/rack1")
    for budgets, widths in (
        ((360.0,), (3, 3)),  # a budget short
        ((360.0, 360.0), (3, 3, 0)),  # a width too many
        ((360.0, 360.0), (3, 2)),  # the trailing node left out
        ((360.0, 360.0), (3, 4)),  # a node past the set
    ):
        with pytest.raises(ValueError):
            monitor.audit_segments(sources, "app", budgets, parent, widths)
    assert monitor.n_audits == 1


def test_cluster_audit_matches_the_scalar_checks():
    rng = random.Random(130)
    flagged = 0
    for case in range(3000):
        n = rng.randint(0, 40)
        caps = _caps(rng, n, rng.choice([0.0, 0.0, 0.5]), rng.choice([0.0, 0.05]))
        if case % 7 == 0:
            caps = caps + ((),) if caps else caps
        totals = [sum(c) for c in caps]
        budget = sum(totals) * rng.choice([0.95, 1.0, 1.1])
        if case % 2:
            lo = rng.uniform(40.0, 120.0)
            hi = lo + rng.uniform(0.0, 150.0)
        else:
            lo = tuple(t * rng.choice([0.9, 1.0, 1.01]) for t in totals)
            hi = tuple(t * rng.choice([0.99, 1.0, 1.1]) for t in totals)
        if case % 5 == 0:
            lo = hi = None
        want: list[CapAudit] = []
        ref_audit(want, "src", "app", budget, caps, lo, hi)
        monitor = BudgetInvariantMonitor()
        got = monitor.audit("src", "app", budget, caps, node_lo_w=lo, node_hi_w=hi)
        assert got == want[0]
        flagged += bool(got.violations)
    assert flagged >= 1000
