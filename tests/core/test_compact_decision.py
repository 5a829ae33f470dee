"""A decision held as a base plus packed per-slot values matches the
per-slot ``NodeConfig`` decision it replaced, bit for bit.

:class:`~repro.core.pipeline.SchedulingDecision` keeps one concurrency
and affinity plus per-slot cap, frequency, performance and GPU-clock
buffers; the recommend stage fills them without building a
:class:`NodeConfig` per slot, and the pipeline audit stores the packed
caps as they are.  Before, the stage built one frozen ``NodeConfig``
per distinct budget and slot (``class_configs``), the decision read
``per_node_caps`` and ``total_capped_w`` from those configs, and the
audit re-packed the cap tuples with ``struct.pack``.  This module keeps
verbatim copies of that path as references and compares both on seeded
random decisions over the haswell, mixed, gpu and mixed-gpu classes at
8 to 1024 slots, with random per-slot budgets, infeasible ones
included:

* the ``to_dict()`` JSON bytes;
* ``node_configs`` and ``per_node_caps`` (by ``repr``, so every float
  bit counts) and the bits of ``total_capped_w``;
* the ledger record of the audit (``packed_caps``, ``cap_arity``,
  violations), and the exception raised for the first rejected slot;
* ``==`` between two decisions, the ``from_dict(to_dict())`` round
  trip and ``replace(decision, phase_threads=...)``.

Run with ``-s`` to see the case counts.
"""

from __future__ import annotations

import itertools
import json
import random
import struct
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from repro.core.allocation import ClusterAllocation, acceptable_range
from repro.core.classify import ScalabilityClass
from repro.core.coordination import slot_values
from repro.core.monitor import BudgetInvariantMonitor
from repro.core.pipeline import (
    ARRAY_GROUP_MIN,
    DecisionContext,
    RecommendStage,
    SchedulingDecision,
    _class_bundles,
)
from repro.core.recommend import NodeConfig
from repro.core.scheduler import ClipScheduler
from repro.errors import InfeasibleBudgetError
from repro.hw.cluster import SimulatedCluster
from repro.hw.numa import AffinityKind
from repro.hw.specs import (
    gpu_testbed,
    haswell_testbed,
    mixed_gpu_testbed,
    mixed_testbed,
)
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import GPU_APPS, get_app

#: Random decisions behind the comparison (each side decided once).
MIN_CASES = 1200

FLEETS = {
    "haswell": haswell_testbed,
    "mixed": mixed_testbed,
    "gpu": gpu_testbed,
    "mixed-gpu": mixed_gpu_testbed,
}
CPU_APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "tealeaf")
APPS = {
    "haswell": CPU_APPS,
    "mixed": CPU_APPS,
    "gpu": tuple(a.name for a in GPU_APPS) + ("comd", "stream"),
    "mixed-gpu": tuple(a.name for a in GPU_APPS) + ("comd", "stream"),
}
#: Slot counts: both sides of ARRAY_GROUP_MIN, up to a 1024-node job.
SIZES = (8, 12, 24, 40, 63, 64, 65, 100, 256, 1024)

# ----------------------------------------------------------------------
# references: the per-slot NodeConfig path, verbatim
# ----------------------------------------------------------------------


def ref_recommend(rec, node_budget_w: float) -> NodeConfig:
    """``Recommender.recommend`` as it built a NodeConfig per step."""
    if rec.predictor.scalability_class is ScalabilityClass.GPU_OFFLOAD:
        return ref_recommend_gpu(rec, node_budget_w)
    linear = rec.predictor.scalability_class is ScalabilityClass.LINEAR
    gpu_grant = rec.power_model.gpu_power_range()[0]
    best: NodeConfig | None = None
    for n in rec._candidates():
        try:
            pkg, dram = rec.power_model.split_node_budget(node_budget_w, n)
        except InfeasibleBudgetError:
            continue
        f = rec.power_model.max_freq_under(pkg, n)
        if f is None:
            continue
        perf = rec.predictor.predict_perf(n, f)
        if best is None or perf > best.predicted_perf * (1.0 + 1e-9):
            best = NodeConfig(
                n_threads=n,
                affinity=rec.profile.affinity,
                pkg_cap_w=pkg,
                dram_cap_w=dram,
                predicted_frequency_hz=f,
                predicted_perf=perf,
                gpu_cap_w=gpu_grant,
            )
        if linear and best is not None:
            break
    if best is None:
        raise InfeasibleBudgetError(
            f"no feasible configuration for node budget "
            f"{node_budget_w:.1f} W ({rec.profile.app_name})"
        )
    return best


def ref_recommend_gpu(rec, node_budget_w: float) -> NodeConfig:
    for n in rec._candidates():
        shift = rec._best_shift(node_budget_w, n)
        if shift is not None:
            perf, pkg, dram, gpu, f, clk = shift
            return NodeConfig(
                n_threads=n,
                affinity=rec.profile.affinity,
                pkg_cap_w=pkg,
                dram_cap_w=dram,
                predicted_frequency_hz=f,
                predicted_perf=perf,
                gpu_cap_w=gpu,
                predicted_gpu_clock_hz=clk,
            )
    raise InfeasibleBudgetError(
        f"no feasible GPU-offload configuration for node budget "
        f"{node_budget_w:.1f} W ({rec.profile.app_name})"
    )


def ref_config_at(rec, node_budget_w: float, base: NodeConfig) -> NodeConfig:
    """``Recommender.config_at`` on a NodeConfig base."""
    power = rec.power_model
    n = base.n_threads
    if not power.gpu_offloaded:
        pkg, dram, gpu = power.split_node_budget_gpu(
            node_budget_w, n, power.gpu_power_range()[0]
        )
        f = power.max_freq_under(pkg, n)
        return replace(
            base,
            pkg_cap_w=pkg,
            dram_cap_w=dram,
            gpu_cap_w=gpu,
            predicted_frequency_hz=(
                f if f is not None else base.predicted_frequency_hz
            ),
        )
    shift = rec._best_shift(node_budget_w, n)
    if shift is None:
        raise InfeasibleBudgetError(
            f"no feasible GPU cap split for node budget "
            f"{node_budget_w:.1f} W at {n} threads "
            f"({rec.profile.app_name})"
        )
    perf, pkg, dram, gpu, f, clk = shift
    return replace(
        base,
        pkg_cap_w=pkg,
        dram_cap_w=dram,
        gpu_cap_w=gpu,
        predicted_frequency_hz=f,
        predicted_perf=perf,
        predicted_gpu_clock_hz=clk,
    )


def ref_split_per_class(slot_classes, budgets_w, split) -> list:
    try:
        if len(budgets_w) >= ARRAY_GROUP_MIN:
            return ref_split_grouped(slot_classes, budgets_w, split)
        if isinstance(budgets_w, np.ndarray):
            budgets_w = budgets_w.tolist()
        index: dict[tuple[int, float], int] = {}
        distinct: dict[int, list[float]] = {}
        for key in zip(slot_classes, budgets_w):
            if key not in index:
                own = distinct.setdefault(key[0], [])
                index[key] = len(own)
                own.append(key[1])
        values = {k: split(k, own) for k, own in distinct.items()}
        return [values[k][index[k, b]] for k, b in zip(slot_classes, budgets_w)]
    except InfeasibleBudgetError:
        for k, b in zip(slot_classes, np.asarray(budgets_w).tolist()):
            split(k, [b])
        raise


def ref_split_grouped(slot_classes, budgets_w, split) -> list:
    ranks = np.asarray(slot_classes)
    budgets = np.asarray(budgets_w, dtype=np.float64)
    classes = np.unique(ranks).tolist()
    out: list = [None] * len(budgets)
    for k in classes:
        if len(classes) == 1:
            slots, own = range(len(budgets)), budgets
        else:
            slots = np.flatnonzero(ranks == k)
            own = budgets[slots]
            slots = slots.tolist()
        distinct, index = np.unique(own, return_inverse=True)
        values = split(k, distinct)
        for slot, i in zip(slots, index.tolist()):
            out[slot] = values[i]
    return out


def ref_node_configs(ctx, bundles, slot_class) -> tuple[NodeConfig, ...]:
    """The recommend stage's per-slot configs (``class_configs``)."""
    recommender = ctx.bundle.recommender
    allocation = ctx.allocation
    budgets = allocation.node_budgets_w
    base = ref_recommend(recommender, min(budgets))
    n_threads = base.n_threads

    def class_configs(k: int, distinct) -> list[NodeConfig]:
        bundle = bundles[k]
        power_model = bundle.power_model
        if power_model.gpu_power_range()[1] > 0.0:
            return [ref_config_at(bundle.recommender, float(b), base) for b in distinct]
        caps = power_model.split_node_budgets(distinct, n_threads)
        freqs = power_model.max_freqs_under([pkg for pkg, _ in caps], n_threads)
        return [
            NodeConfig(
                n_threads=n_threads,
                affinity=base.affinity,
                pkg_cap_w=pkg,
                dram_cap_w=dram,
                predicted_frequency_hz=(
                    f if f is not None else base.predicted_frequency_hz
                ),
                predicted_perf=base.predicted_perf,
            )
            for (pkg, dram), f in zip(caps, freqs)
        ]

    configs = ref_split_per_class(
        slot_class[: allocation.n_nodes], budgets, class_configs
    )
    return tuple(configs)


@dataclass(frozen=True)
class RefDecision:
    """``SchedulingDecision`` with one NodeConfig per slot."""

    app_name: str
    cluster_budget_w: float
    scalability_class: ScalabilityClass
    inflection_point: int | None
    allocation: ClusterAllocation
    node_configs: tuple[NodeConfig, ...]
    phase_threads: dict[str, int] = field(default_factory=dict)
    model_version: int = 1

    @property
    def total_capped_w(self) -> float:
        return float(sum(c.node_budget_w for c in self.node_configs))

    @property
    def per_node_caps(self) -> tuple[tuple[float, ...], ...]:
        return tuple(
            (c.pkg_cap_w, c.dram_cap_w, c.gpu_cap_w)
            if c.gpu_cap_w > 0.0
            else (c.pkg_cap_w, c.dram_cap_w)
            for c in self.node_configs
        )

    def to_dict(self) -> dict:
        alloc_dict = {
            "n_nodes": self.allocation.n_nodes,
            "node_budgets_w": list(self.allocation.node_budgets_w),
            "node_lo_w": self.allocation.node_lo_w,
            "node_hi_w": self.allocation.node_hi_w,
            "predicted_cluster_perf": self.allocation.predicted_cluster_perf,
        }
        if self.allocation.node_ranges_w is not None:
            alloc_dict["node_ranges_w"] = [
                [lo, hi] for lo, hi in self.allocation.node_ranges_w
            ]
        if self.allocation.rack_budgets_w is not None:
            alloc_dict["rack_budgets_w"] = list(self.allocation.rack_budgets_w)
        d = {
            "app_name": self.app_name,
            "cluster_budget_w": self.cluster_budget_w,
            "scalability_class": self.scalability_class.value,
            "inflection_point": self.inflection_point,
            "allocation": alloc_dict,
            "node_configs": [self._config_dict(c) for c in self.node_configs],
            "phase_threads": dict(self.phase_threads),
        }
        if self.model_version != 1:
            d["model_version"] = self.model_version
        return d

    @staticmethod
    def _config_dict(c: NodeConfig) -> dict:
        d = {
            "n_threads": c.n_threads,
            "affinity": c.affinity.value,
            "pkg_cap_w": c.pkg_cap_w,
            "dram_cap_w": c.dram_cap_w,
            "predicted_frequency_hz": c.predicted_frequency_hz,
            "predicted_perf": c.predicted_perf,
        }
        if c.gpu_cap_w > 0.0:
            d["gpu_cap_w"] = c.gpu_cap_w
            d["predicted_gpu_clock_hz"] = c.predicted_gpu_clock_hz
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "RefDecision":
        alloc = raw["allocation"]
        return cls(
            app_name=raw["app_name"],
            cluster_budget_w=float(raw["cluster_budget_w"]),
            scalability_class=ScalabilityClass(raw["scalability_class"]),
            inflection_point=raw["inflection_point"],
            allocation=ClusterAllocation(
                n_nodes=int(alloc["n_nodes"]),
                node_budgets_w=tuple(float(b) for b in alloc["node_budgets_w"]),
                node_lo_w=float(alloc["node_lo_w"]),
                node_hi_w=float(alloc["node_hi_w"]),
                predicted_cluster_perf=float(alloc["predicted_cluster_perf"]),
                node_ranges_w=(
                    tuple(
                        (float(lo), float(hi))
                        for lo, hi in alloc["node_ranges_w"]
                    )
                    if alloc.get("node_ranges_w") is not None
                    else None
                ),
                rack_budgets_w=(
                    tuple(float(b) for b in alloc["rack_budgets_w"])
                    if alloc.get("rack_budgets_w") is not None
                    else None
                ),
            ),
            node_configs=tuple(
                NodeConfig(
                    n_threads=int(c["n_threads"]),
                    affinity=AffinityKind(c["affinity"]),
                    pkg_cap_w=float(c["pkg_cap_w"]),
                    dram_cap_w=float(c["dram_cap_w"]),
                    predicted_frequency_hz=float(c["predicted_frequency_hz"]),
                    predicted_perf=float(c["predicted_perf"]),
                    gpu_cap_w=float(c.get("gpu_cap_w", 0.0)),
                    predicted_gpu_clock_hz=float(
                        c.get("predicted_gpu_clock_hz", 0.0)
                    ),
                )
                for c in raw["node_configs"]
            ),
            phase_threads={
                str(k): int(v) for k, v in raw["phase_threads"].items()
            },
            model_version=int(raw.get("model_version", 1)),
        )


def ref_packed(caps) -> tuple[bytes, bytes]:
    """The audit's packing of cap tuples."""
    arity = bytes(map(len, caps))
    packed = struct.pack(f"{sum(arity)}d", *itertools.chain.from_iterable(caps))
    return packed, arity


# ----------------------------------------------------------------------
# random decisions
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleets(trained_inflection):
    """Per fleet kind: the scheduler and each app's (entry, bundle)."""
    out = {}
    for kind, factory in FLEETS.items():
        spec = factory()
        clip = ClipScheduler(
            ExecutionEngine(SimulatedCluster(spec), seed=42),
            inflection=trained_inflection,
        )
        pipeline = clip.pipeline
        apps = {}
        for name in APPS[kind]:
            app = get_app(name)
            apps[name] = (app, pipeline.ensure_knowledge(app), pipeline.bundle_for(app))
        out[kind] = (spec, pipeline, apps)
    return out


def _slot_class(rng: random.Random, spec, n: int) -> tuple[int, ...]:
    """*n* slots of the fleet's classes: its own order repeated, or a
    random class per slot."""
    pattern = spec.slot_class
    if len(spec.node_classes) == 1 or rng.random() < 0.5:
        return tuple(pattern[i % len(pattern)] for i in range(n))
    return tuple(rng.randrange(len(spec.node_classes)) for _ in range(n))


def _budgets(rng: random.Random, ranges, slot_class) -> tuple[float, ...]:
    """Per-slot budgets around each slot's acceptable range: spread,
    drawn from a few shared values, or at the class ceiling; now and
    then one slot well under its floor."""
    style = rng.choice(("spread", "pooled", "ceiling"))
    pool = [rng.uniform(0.8, 1.1) for _ in range(rng.randint(1, 6))]
    out = []
    for k in slot_class:
        lo, hi = ranges[k]
        if style == "spread":
            frac = rng.uniform(0.8, 1.1)
        elif style == "pooled":
            frac = rng.choice(pool)
        else:
            frac = 1.0
        out.append(lo + frac * (hi - lo))
    if rng.random() < 0.15:
        out[rng.randrange(len(out))] = ranges[slot_class[0]][0] * rng.uniform(0.3, 0.95)
    return tuple(out)


def _decide(stage, ctx):
    """The decision, or the exception raised instead."""
    try:
        return stage.run(ctx).decision
    except InfeasibleBudgetError as exc:
        return exc


def _ref_decide(ctx, bundles, slot_class):
    try:
        configs = ref_node_configs(ctx, bundles, slot_class)
    except InfeasibleBudgetError as exc:
        return exc
    recommender = ctx.bundle.recommender
    overrides = {
        name: n
        for name, n in recommender.phase_overrides().items()
        if n < configs[0].n_threads
    }
    return RefDecision(
        app_name=ctx.app.name,
        cluster_budget_w=ctx.cluster_budget_w,
        scalability_class=ctx.profile.scalability_class,
        inflection_point=ctx.entry.inflection_point,
        allocation=ctx.allocation,
        node_configs=configs,
        phase_threads=overrides,
        model_version=ctx.bundle.version,
    )


def _json(doc: dict) -> bytes:
    return json.dumps(doc).encode()


def _bits(x: float) -> bytes:
    return struct.pack("d", x)


def _cases(fleets, n_cases: int):
    """Seeded random cases: (kind, app, stage, ctx, bundles, slot_class)."""
    rng = random.Random(27)
    kinds = list(FLEETS)
    for case in range(n_cases):
        kind = kinds[case % len(kinds)]
        spec, pipeline, apps = fleets[kind]
        app, entry, bundle = apps[rng.choice(APPS[kind])]
        n = rng.choice(SIZES)
        slot_class = _slot_class(rng, spec, n)
        stage = RecommendStage(spec.node_classes, slot_class, pipeline.bundle_cache)
        ctx = DecisionContext(
            app=app,
            cluster_budget_w=0.0,
            knowledge_hit=True,
            profile=entry.profile,
            scalability_class=entry.profile.scalability_class,
            entry=entry,
            bundle=bundle,
        )
        bundles = _class_bundles(pipeline.bundle_cache, ctx, spec.node_classes)
        ranges = [acceptable_range(b.recommender) for b in bundles]
        budgets = _budgets(rng, ranges, slot_class)
        multiclass = len(set(slot_class)) > 1
        allocation = ClusterAllocation(
            n_nodes=n,
            node_budgets_w=budgets,
            node_lo_w=ranges[slot_class[0]][0],
            node_hi_w=ranges[slot_class[0]][1],
            predicted_cluster_perf=rng.uniform(0.1, 10.0),
            node_ranges_w=(
                tuple(ranges[k] for k in slot_class) if multiclass else None
            ),
            rack_budgets_w=(
                tuple(sum(budgets[i:i + 8]) for i in range(0, n, 8))
                if n > 8 and rng.random() < 0.5
                else None
            ),
        )
        ctx = replace(ctx, cluster_budget_w=sum(budgets), allocation=allocation)
        yield kind, app, stage, ctx, bundles, slot_class


def _audit_bounds(bundles, n_threads: int, slot_class):
    """The pipeline audit's per-slot floor and ceiling."""
    models = [b.power_model for b in bundles]
    return (
        slot_values([m.power_range(n_threads).node_lo_w for m in models], slot_class),
        slot_values([m.cap_ceiling_w(n_threads) for m in models], slot_class),
    )


def _scaled(bound, factor: float):
    """A scalar or per-slot bound times *factor*."""
    if isinstance(bound, tuple):
        return tuple(b * factor for b in bound)
    return bound * factor


def test_compact_decisions_match_the_node_config_path(fleets):
    counts: Counter = Counter()
    previous: dict = {}
    for kind, app, stage, ctx, bundles, slot_class in _cases(fleets, MIN_CASES):
        got = _decide(stage, ctx)
        want = _ref_decide(ctx, bundles, slot_class)
        n = ctx.allocation.n_nodes
        path = "array" if n >= ARRAY_GROUP_MIN else "dict"
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want), (kind, n)
            counts["rejected", path] += 1
            continue
        assert isinstance(got, SchedulingDecision), (kind, n, got)
        counts[kind, path] += 1
        # the wire format, byte for byte
        assert _json(got.to_dict()) == _json(want.to_dict())
        # every per-slot value, bit for bit (repr round-trips a float)
        assert repr(got.node_configs) == repr(want.node_configs)
        assert got.node_configs == want.node_configs
        assert repr(got.per_node_caps) == repr(want.per_node_caps)
        assert _bits(got.total_capped_w) == _bits(want.total_capped_w)
        assert got.n_threads == want.node_configs[0].n_threads
        # the audit stores the decision's buffers as they are
        packed, arity = ref_packed(want.per_node_caps)
        assert (got.packed_caps, got.cap_arity) == (packed, arity)
        lo, hi = _audit_bounds(bundles, got.n_threads, slot_class)
        # every third audit squeezes the budget and raises the floor,
        # so some records flag
        squeeze = 0.98 if counts["audits"] % 3 == 0 else 1.0
        budget_w = ctx.cluster_budget_w * squeeze
        lo = _scaled(lo, 2.0 - squeeze)
        counts["audits"] += 1
        monitor = BudgetInvariantMonitor()
        record = monitor.audit(
            "pipeline", app.name, budget_w, got.packed_caps,
            node_lo_w=lo, node_hi_w=hi, cap_arity=got.cap_arity,
        )
        assert record == monitor.audit(
            "pipeline", app.name, budget_w, want.per_node_caps,
            node_lo_w=lo, node_hi_w=hi,
        )
        assert record.packed_caps is got.packed_caps
        counts["audits flagged"] += bool(record.violations)
        # round trips: a new decision from either document equals it
        assert SchedulingDecision.from_dict(got.to_dict()) == got
        assert SchedulingDecision.from_dict(want.to_dict()) == got
        assert RefDecision.from_dict(got.to_dict()) == want
        # equality agrees with the reference on the same case decided
        # again and on the previous decision of the same shape
        assert _decide(stage, ctx) == got
        assert _ref_decide(ctx, bundles, slot_class) == want
        counts["equal pairs"] += 1
        key = (kind, n)
        if key in previous:
            other_got, other_want = previous[key]
            assert (got == other_got) == (want == other_want)
            counts["equal pairs"] += want == other_want
            counts["unequal pairs"] += want != other_want
        previous[key] = (got, want)
        # phase overrides set on a copy
        threads = {"phase": got.n_threads // 2 or 1}
        swapped = replace(got, phase_threads=threads)
        assert _json(swapped.to_dict()) == _json(
            replace(want, phase_threads=threads).to_dict()
        )
        assert (swapped == got) == (threads == got.phase_threads)
        assert swapped.node_configs == got.node_configs
    print(f"\ncompact decisions: {dict(counts)}")
    decided = sum(counts[kind, path] for kind in FLEETS for path in ("dict", "array"))
    assert decided >= 1000
    for kind in FLEETS:
        for path in ("dict", "array"):
            assert counts[kind, path] >= 20, (kind, path)
    assert counts["rejected", "dict"] >= 20 and counts["rejected", "array"] >= 20
    assert counts["audits flagged"] >= 20
    assert counts["equal pairs"] >= 1000 and counts["unequal pairs"] >= 500


def test_choose_matches_the_node_config_recommend(fleets):
    """The allocator's scan reads :meth:`Recommender.choose`; its values
    are those of the NodeConfig ``recommend`` built."""
    rng = random.Random(28)
    checked = rejected = 0
    for kind, (spec, pipeline, apps) in fleets.items():
        for app, entry, bundle in apps.values():
            rec = bundle.recommender
            lo, hi = acceptable_range(rec)
            for _ in range(200):
                budget = rng.uniform(0.5 * lo, 1.2 * hi)
                try:
                    want = ref_recommend(rec, budget)
                except InfeasibleBudgetError as exc:
                    with pytest.raises(InfeasibleBudgetError) as got:
                        rec.choose(budget)
                    assert str(got.value) == str(exc)
                    rejected += 1
                    continue
                got = rec.choose(budget)
                assert repr(rec.recommend(budget)) == repr(want)
                assert repr(tuple(got)) == repr((
                    want.n_threads, want.pkg_cap_w, want.dram_cap_w,
                    want.gpu_cap_w, want.predicted_frequency_hz,
                    want.predicted_perf, want.predicted_gpu_clock_hz,
                ))
                checked += 1
    print(f"\nchoose: {checked} budgets matched, {rejected} rejected alike")
    assert checked >= 2000 and rejected >= 100
