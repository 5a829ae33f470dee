"""The staged scheduling decision pipeline (Algorithm 1 as a dataflow).

Algorithm 1 is an explicit chain — profile → classify → predict NP →
fit perf/power models → allocate nodes/budgets → recommend per-node
configurations.  This module is the single home of that chain; its
consumers (`ClipScheduler`, `MultiJobCoordinator` and
`PowerBoundedRuntime`, which also runs every queued job) never
re-derive or re-fit it:

* :class:`DecisionContext` — an immutable dataclass threaded through
  the stages; every stage returns a *new* context with its outputs
  filled in, never mutating its input.
* Named pure stages — :class:`ProfileStage`, :class:`ClassifyStage`,
  :class:`InflectionStage`, :class:`FitModelsStage`,
  :class:`AllocateStage`, :class:`RecommendStage` — each recording its
  inputs, outputs and wall time into a structured
  :class:`DecisionTrace`.
* :class:`ModelBundle` / :class:`ModelBundleCache` — the fitted
  (predictor, power model, recommender) triple is built **once** per
  knowledge-DB entry and reused across decisions; every consumer
  (scheduler, multi-job coordinator, runtime, the Coordinated
  baseline) shares the same bundles.
* :class:`SchedulingDecision` — Algorithm 1's output, JSON-serializable
  via :meth:`~SchedulingDecision.to_dict` /
  :meth:`~SchedulingDecision.from_dict` so decisions can be persisted
  or shipped over a wire.
* :meth:`DecisionPipeline.decide_many` — the batch entry point:
  duplicate (app, budget) jobs collapse to one pipeline pass, and
  profiling samples ride the vectorized engine path.

Model construction (:class:`PerformancePredictor`,
:class:`ClipPowerModel`, :class:`Recommender`) happens *only* here —
a test greps the consumer modules to keep it that way.
"""

from __future__ import annotations

import copy
import itertools
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.allocation import (
    ClusterAllocation,
    ClusterAllocator,
    acceptable_range,
)
from repro.core.classify import ScalabilityClass
from repro.core.coordination import (
    VARIABILITY_THRESHOLD,
    measure_node_factors,
    slot_values,
)
from repro.core.inflection import InflectionPredictor
from repro.core.knowledge import (
    KnowledgeDB,
    KnowledgeEntry,
    ObservationRecord,
)
from repro.core.learning import (
    LearningConfig,
    empirical_best_concurrency,
    fit_calibration,
)
from repro.core.monitor import BudgetInvariantMonitor
from repro.core.perfmodel import PerformancePredictor
from repro.core.powermodel import ClipPowerModel
from repro.core.profile import AppProfile, SmartProfiler
from repro.core.recommend import NodeConfig, Recommender
from repro.errors import SchedulingError
from repro.hw.numa import AffinityKind
from repro.hw.specs import NodeSpec
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.units import check_positive
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = [
    "ModelBundle",
    "ModelBundleCache",
    "DecisionContext",
    "StageRecord",
    "DecisionTrace",
    "SchedulingDecision",
    "DecisionPipeline",
    "ProfileStage",
    "ClassifyStage",
    "InflectionStage",
    "FitModelsStage",
    "AllocateStage",
    "RecommendStage",
]


# ----------------------------------------------------------------------
# model bundles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ModelBundle:
    """The fitted model triple for one knowledge-DB entry.

    Everything a decision needs beyond the budget: the performance
    predictor (Eq. 1–3), the power model (Eq. 4–9), and the
    recommendation engine combining them.  Bundles are immutable and
    deterministic functions of ``(entry, node_spec)``, which is what
    makes caching them sound.
    """

    entry: KnowledgeEntry
    predictor: PerformancePredictor
    power_model: ClipPowerModel
    recommender: Recommender
    version: int = 1

    @property
    def profile(self) -> AppProfile:
        """The profile the models were fitted from."""
        return self.entry.profile

    @classmethod
    def from_entry(cls, entry: KnowledgeEntry, node: NodeSpec) -> "ModelBundle":
        """Fit the triple from a knowledge-DB entry (the only place
        the three models are constructed).

        The bundle inherits the entry's ``model_version`` and — when
        the learning loop has refitted the entry — its
        :class:`~repro.core.perfmodel.TimeCalibration`, so every
        decision can record which model generation produced it.
        """
        predictor = PerformancePredictor(
            entry.profile,
            entry.inflection_point,
            calibration=entry.calibration,
        )
        power_model = ClipPowerModel(entry.profile, node)
        recommender = Recommender(entry.profile, predictor, power_model)
        return cls(
            entry=entry,
            predictor=predictor,
            power_model=power_model,
            recommender=recommender,
            version=entry.model_version,
        )


class ModelBundleCache:
    """Caches :class:`ModelBundle`\\ s keyed on knowledge-DB entries.

    The key is ``(app_name, problem_size, node_class)``: on a
    heterogeneous cluster the same knowledge entry carries one fitted
    triple per hardware class (the power coefficients differ), while a
    homogeneous cluster sees exactly the old one-bundle-per-entry
    behavior.  A cached bundle is only served while its entry is still
    the one in the knowledge DB (re-profiling an app invalidates its
    bundles).  The ``hits`` / ``misses`` counters let tests assert the
    warm path builds each bundle exactly once.

    The cache is shared by every pipeline consumer, including the
    ``clip-sched serve`` request handlers, so all state transitions
    happen under an internal :class:`threading.RLock`: the
    check-fit-insert sequence in :meth:`get_or_build` is atomic
    (concurrent requests for the same cold key fit the models exactly
    once, the losers block briefly and reuse the winner's bundle) and
    the ``hits`` / ``misses`` counters cannot lose increments.  The
    single-threaded warm path pays one uncontended lock acquisition,
    which is noise next to the allocator work a decision does.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._bundles: dict[tuple[str, str, str], ModelBundle] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._bundles)

    def get_or_build(self, entry: KnowledgeEntry, node: NodeSpec) -> ModelBundle:
        """Return the entry's bundle for *node*'s class, fitting the
        models on first use (atomic: exactly one fit per cold key even
        under concurrent callers)."""
        key = entry.key + (node.name,)
        with self._lock:
            cached = self._bundles.get(key)
            # validity compares the *model inputs* (profile, NP,
            # calibration, version), not full entry equality: outcome
            # observations appending to the entry must not churn the
            # fitted triple, while a re-profile or refit rebuilds it
            if cached is not None and (
                cached.entry is entry or cached.entry.same_models(entry)
            ):
                self.hits += 1
                return cached
            self.misses += 1
            bundle = ModelBundle.from_entry(entry, node)
            self._bundles[key] = bundle
            return bundle

    def invalidate(self, key: tuple[str, str] | None = None) -> None:
        """Drop one entry's bundles (every class) or everything.

        *key* is the knowledge-DB key, ``(app_name, problem_size)``;
        any 2-element sequence is accepted and normalized.  Passing a
        full 3-element bundle key (or anything else) raises
        :class:`ValueError` instead of silently matching nothing.
        """
        if key is None:
            with self._lock:
                self._bundles.clear()
            return
        key = tuple(key)
        if len(key) != 2:
            raise ValueError(
                "invalidate expects the knowledge key (app_name, "
                f"problem_size); got {key!r}"
            )
        with self._lock:
            for k in [k for k in self._bundles if k[:2] == key]:
                self._bundles.pop(k, None)

    def stats(self) -> dict:
        """One consistent snapshot of the cache counters."""
        with self._lock:
            return {
                "bundles": len(self._bundles),
                "hits": self.hits,
                "misses": self.misses,
            }


# ----------------------------------------------------------------------
# decision output
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SchedulingDecision:
    """Everything Algorithm 1 outputs for one job."""

    app_name: str
    cluster_budget_w: float
    scalability_class: ScalabilityClass
    inflection_point: int | None
    allocation: ClusterAllocation
    node_configs: tuple[NodeConfig, ...]
    phase_threads: dict[str, int] = field(default_factory=dict)
    #: Model generation the decision was made with (bumped by refits).
    model_version: int = 1

    @property
    def n_nodes(self) -> int:
        """Suggested number of active compute nodes."""
        return self.allocation.n_nodes

    @property
    def n_threads(self) -> int:
        """Suggested active cores per node (uniform across nodes)."""
        return self.node_configs[0].n_threads

    @property
    def total_capped_w(self) -> float:
        """Sum of all programmed caps — must be <= the budget."""
        return float(sum(c.node_budget_w for c in self.node_configs))

    @property
    def predicted_perf(self) -> float:
        """Predicted job throughput (iterations/s)."""
        return self.allocation.predicted_cluster_perf

    @property
    def per_node_caps(self) -> tuple[tuple[float, ...], ...]:
        """Per-slot cap tuples as programmed into the hardware.

        Two entries (PKG, DRAM) on CPU nodes, three (PKG, DRAM, GPU)
        on accelerator nodes; a mixed fleet mixes lengths.  CPU-only
        decisions therefore serialize and compare exactly as before.
        """
        return tuple(
            (c.pkg_cap_w, c.dram_cap_w, c.gpu_cap_w)
            if c.has_gpu_grant
            else (c.pkg_cap_w, c.dram_cap_w)
            for c in self.node_configs
        )

    def to_execution_config(self, iterations: int | None = None) -> ExecutionConfig:
        """Translate the decision into an engine configuration."""
        return ExecutionConfig(
            n_nodes=self.n_nodes,
            n_threads=self.n_threads,
            affinity=self.node_configs[0].affinity,
            per_node_caps=self.per_node_caps,
            iterations=iterations,
            phase_threads=dict(self.phase_threads),
        )

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe representation (persisted / wire format).

        The per-slot ``node_ranges_w`` key appears only for decisions
        whose slots span more than one hardware class, so one-class
        documents stay byte-identical to previous releases.
        """
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
        # the learning key appears only once a refit has acted, so
        # learning-off documents stay byte-identical to the goldens
        if self.model_version != 1:
            d["model_version"] = self.model_version
        return d

    @staticmethod
    def _config_dict(c: NodeConfig) -> dict:
        """One node config's JSON form; GPU keys appear only when a
        device grant exists, so CPU documents stay byte-identical."""
        d = {
            "n_threads": c.n_threads,
            "affinity": c.affinity.value,
            "pkg_cap_w": c.pkg_cap_w,
            "dram_cap_w": c.dram_cap_w,
            "predicted_frequency_hz": c.predicted_frequency_hz,
            "predicted_perf": c.predicted_perf,
        }
        if c.has_gpu_grant:
            d["gpu_cap_w"] = c.gpu_cap_w
            d["predicted_gpu_clock_hz"] = c.predicted_gpu_clock_hz
        return d

    @classmethod
    def from_dict(cls, raw: dict) -> "SchedulingDecision":
        """Rebuild a decision from :meth:`to_dict` output.

        Unknown keys are ignored, so documents written by releases that
        stamped an ``"explored"`` flag still load.
        """
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


# ----------------------------------------------------------------------
# context and trace
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DecisionContext:
    """Immutable state threaded through the pipeline stages.

    The request fields (app, budget, options) are set once; each stage
    fills in its own output field via :func:`dataclasses.replace` and
    hands a new context to the next stage.
    """

    app: WorkloadCharacteristics
    cluster_budget_w: float
    predefined_node_counts: tuple[int, ...] | None = None
    allocation_mode: str = "predictive"
    # stage outputs
    knowledge_hit: bool | None = None
    profile: AppProfile | None = None
    scalability_class: ScalabilityClass | None = None
    entry: KnowledgeEntry | None = None
    bundle: ModelBundle | None = None
    allocation: ClusterAllocation | None = None
    decision: SchedulingDecision | None = None

    def to_dict(self) -> dict:
        """JSON-safe summary of the request and stage progress."""
        return {
            "app_name": self.app.name,
            "problem_size": self.app.problem_size,
            "cluster_budget_w": self.cluster_budget_w,
            "predefined_node_counts": (
                list(self.predefined_node_counts)
                if self.predefined_node_counts is not None
                else None
            ),
            "allocation_mode": self.allocation_mode,
            "knowledge_hit": self.knowledge_hit,
            "scalability_class": (
                self.scalability_class.value
                if self.scalability_class is not None
                else None
            ),
            "inflection_point": (
                self.entry.inflection_point if self.entry is not None else None
            ),
            "decision": (
                self.decision.to_dict() if self.decision is not None else None
            ),
        }


@dataclass(frozen=True)
class StageRecord:
    """One stage's execution record inside a :class:`DecisionTrace`."""

    stage: str
    wall_time_s: float
    inputs: dict
    outputs: dict

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "stage": self.stage,
            "wall_time_s": self.wall_time_s,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }


@dataclass
class DecisionTrace:
    """Structured record of one pipeline pass, stage by stage."""

    stages: list[StageRecord] = field(default_factory=list)

    @property
    def total_time_s(self) -> float:
        """Wall time summed over the recorded stages."""
        return sum(s.wall_time_s for s in self.stages)

    def record(self, record: StageRecord) -> None:
        """Append one stage's record."""
        self.stages.append(record)

    def stage(self, name: str) -> StageRecord:
        """The named stage's record; raises on an unknown stage."""
        for s in self.stages:
            if s.stage == name:
                return s
        raise KeyError(name)

    def to_dict(self) -> dict:
        """JSON-safe representation (stage timings first)."""
        return {
            "total_time_s": self.total_time_s,
            "stages": [s.to_dict() for s in self.stages],
        }


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------


class ProfileStage:
    """Look the job up in the knowledge DB; smart-profile on a miss."""

    name = "profile"

    def __init__(self, knowledge: KnowledgeDB, profiler: SmartProfiler):
        self._kb = knowledge
        self._profiler = profiler

    def run(self, ctx: DecisionContext) -> DecisionContext:
        """Fill ``ctx.profile`` (and ``ctx.entry`` on a DB hit)."""
        app = ctx.app
        if self._kb.has(app.name, app.problem_size):
            entry = self._kb.get(app.name, app.problem_size)
            return replace(
                ctx, knowledge_hit=True, entry=entry, profile=entry.profile
            )
        return replace(
            ctx, knowledge_hit=False, profile=self._profiler.profile(app)
        )

    def outputs(self, ctx: DecisionContext) -> dict:
        """Trace summary of this stage's products."""
        return {
            "knowledge_hit": ctx.knowledge_hit,
            "n_samples": ctx.profile.n_samples,
        }


class ClassifyStage:
    """Derive the scalability class from the profiling ratio."""

    name = "classify"

    def run(self, ctx: DecisionContext) -> DecisionContext:
        """Fill ``ctx.scalability_class``."""
        return replace(ctx, scalability_class=ctx.profile.scalability_class)

    def outputs(self, ctx: DecisionContext) -> dict:
        """Trace summary of this stage's products."""
        return {
            "scalability_class": ctx.scalability_class.value,
            "ratio": ctx.profile.ratio,
        }


class InflectionStage:
    """Predict NP for non-linear classes and run the confirmation sample."""

    name = "inflection"

    def __init__(
        self,
        knowledge: KnowledgeDB,
        profiler: SmartProfiler,
        inflection: InflectionPredictor,
    ):
        self._kb = knowledge
        self._profiler = profiler
        self._inflection = inflection

    def run(self, ctx: DecisionContext) -> DecisionContext:
        """Fill ``ctx.entry`` and persist it to the knowledge DB."""
        if ctx.entry is not None:  # knowledge hit — NP already recorded
            return ctx
        profile = ctx.profile
        np_pred: int | None = None
        if ctx.scalability_class.is_nonlinear:
            np_pred = self._inflection.predict(profile)
            profile = self._profiler.confirm(ctx.app, profile, np_pred)
        entry = KnowledgeEntry(profile=profile, inflection_point=np_pred)
        self._kb.put(entry)
        return replace(ctx, entry=entry, profile=profile)

    def outputs(self, ctx: DecisionContext) -> dict:
        """Trace summary of this stage's products."""
        return {"inflection_point": ctx.entry.inflection_point}


class FitModelsStage:
    """Fetch (or fit once) the entry's performance/power/recommender triple."""

    name = "fit_models"

    def __init__(self, cache: ModelBundleCache, node: NodeSpec):
        self._cache = cache
        self._node = node
        # stage instances are shared across concurrent pipeline passes
        # (the serve daemon's handlers), so the only per-pass scratch —
        # whether this pass fitted or reused — lives in a thread-local
        self._scratch = threading.local()

    def run(self, ctx: DecisionContext) -> DecisionContext:
        """Fill ``ctx.bundle`` from the shared cache."""
        was_built = self._cache.misses
        bundle = self._cache.get_or_build(ctx.entry, self._node)
        self._scratch.fitted = self._cache.misses > was_built
        return replace(ctx, bundle=bundle)

    def outputs(self, ctx: DecisionContext) -> dict:
        """Trace summary of this stage's products."""
        return {
            "bundle_cached": not getattr(self._scratch, "fitted", False),
            "bundle_version": ctx.bundle.version,
        }


def _class_bundles(
    cache: ModelBundleCache,
    ctx: DecisionContext,
    node_classes: tuple[NodeSpec, ...],
) -> tuple[ModelBundle, ...]:
    """The entry's bundle per hardware class, in class order.

    Class 0 is the slot-0 class the decision's own bundle was fitted
    for, so only the other classes touch the cache.
    """
    return (ctx.bundle,) + tuple(
        cache.get_or_build(ctx.entry, spec) for spec in node_classes[1:]
    )


class AllocateStage:
    """Choose the node count and variability-coordinated per-node budgets.

    Each slot's acceptable power range comes from its hardware class's
    fitted power model (one range per class, indexed by slot), so a
    Broadwell slot is budgeted against Broadwell coefficients even
    though the decision's concurrency is uniform.
    """

    name = "allocate"

    def __init__(
        self,
        n_total_nodes: int,
        node_factors: np.ndarray,
        variability_threshold: float,
        node_classes: tuple[NodeSpec, ...],
        slot_class: np.ndarray,
        bundle_cache: ModelBundleCache,
        rack_of_slot: tuple[int, ...] | None = None,
        rack_names: tuple[str, ...] | None = None,
    ):
        self._n_total = n_total_nodes
        self._factors = node_factors
        self._threshold = variability_threshold
        self._node_classes = node_classes
        self._slot_class = slot_class
        self._cache = bundle_cache
        self._rack_of = rack_of_slot
        self._rack_names = rack_names

    def run(self, ctx: DecisionContext) -> DecisionContext:
        """Fill ``ctx.allocation``."""
        bundles = _class_bundles(self._cache, ctx, self._node_classes)
        allocator = ClusterAllocator(
            ctx.bundle.recommender,
            self._n_total,
            node_factors=self._factors,
            variability_threshold=self._threshold,
            class_ranges=tuple(acceptable_range(b.recommender) for b in bundles),
            slot_class=self._slot_class,
            rack_of_slot=self._rack_of,
            rack_names=self._rack_names,
        )
        allocation = allocator.allocate(
            ctx.cluster_budget_w,
            predefined=ctx.predefined_node_counts,
            mode=ctx.allocation_mode,
        )
        return replace(ctx, allocation=allocation)

    def outputs(self, ctx: DecisionContext) -> dict:
        """Trace summary of this stage's products."""
        return {
            "n_nodes": ctx.allocation.n_nodes,
            "total_allocated_w": ctx.allocation.total_allocated_w,
            "n_racks": ctx.allocation.n_racks,
        }


class RecommendStage:
    """Recommend per-node configs for each node's budget; emit the decision.

    Each slot's budget is split into its domain caps by its own
    class's power model, so the cap pair matches the silicon it will
    be programmed on.
    """

    name = "recommend"

    def __init__(
        self,
        node_classes: tuple[NodeSpec, ...],
        slot_class: tuple[int, ...],
        bundle_cache: ModelBundleCache,
    ):
        self._node_classes = node_classes
        self._slot_class = slot_class
        self._cache = bundle_cache

    def run(self, ctx: DecisionContext) -> DecisionContext:
        """Fill ``ctx.decision``."""
        recommender = ctx.bundle.recommender
        allocation = ctx.allocation
        configs = []
        base = recommender.recommend(min(allocation.node_budgets_w))
        bundles = _class_bundles(self._cache, ctx, self._node_classes)
        # split/frequency are pure functions of (budget, hardware
        # class); on a coordinated fleet most ranks share a handful of
        # distinct budgets, so memoize per (budget, class) instead of
        # re-deriving caps node by node
        split_memo: dict[tuple[float, int], NodeConfig] = {}
        for budget, k in zip(allocation.node_budgets_w, self._slot_class):
            # Keep concurrency uniform across ranks (one decomposition);
            # each node spends its own budget on frequency headroom.
            key = (budget, k)
            cfg = split_memo.get(key)
            if cfg is None:
                bundle = bundles[k]
                power_model = bundle.power_model
                if power_model.gpu_power_range()[1] > 0.0:
                    # GPU node: three-domain split, re-running the
                    # host↔device shift against this rank's budget
                    cfg = bundle.recommender.config_at(budget, base)
                else:
                    pkg, dram = power_model.split_node_budget(
                        budget, base.n_threads
                    )
                    f = power_model.max_freq_under(pkg, base.n_threads)
                    # the GPU fields keep their zero defaults: this rank
                    # has no device, whatever class slot 0 is
                    cfg = NodeConfig(
                        n_threads=base.n_threads,
                        affinity=base.affinity,
                        pkg_cap_w=pkg,
                        dram_cap_w=dram,
                        predicted_frequency_hz=(
                            f if f is not None else base.predicted_frequency_hz
                        ),
                        predicted_perf=base.predicted_perf,
                    )
                split_memo[key] = cfg
            configs.append(cfg)
        # phase-by-phase concurrency adjustment (§V-B.1): a phase whose
        # time did not improve from half- to all-core keeps the smaller
        # count (only kept when below the global choice)
        overrides = {
            name: n
            for name, n in recommender.phase_overrides().items()
            if n < base.n_threads
        }
        decision = SchedulingDecision(
            app_name=ctx.app.name,
            cluster_budget_w=ctx.cluster_budget_w,
            scalability_class=ctx.profile.scalability_class,
            inflection_point=ctx.entry.inflection_point,
            allocation=allocation,
            node_configs=tuple(configs),
            phase_threads=overrides,
            model_version=ctx.bundle.version,
        )
        return replace(ctx, decision=decision)

    def outputs(self, ctx: DecisionContext) -> dict:
        """Trace summary of this stage's products."""
        return {
            "n_threads": ctx.decision.n_threads,
            "total_capped_w": ctx.decision.total_capped_w,
            "phase_overrides": len(ctx.decision.phase_threads),
        }


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------


class DecisionPipeline:
    """The shared, staged scheduling core every consumer composes.

    Owns the knowledge DB, the smart profiler, the trained inflection
    predictor, the calibrated node factors, and the
    :class:`ModelBundleCache` — the full state Algorithm 1 needs.  All
    entry points are thin compositions of the same six stages:

    * :meth:`ensure_knowledge` — stages 1–3 (profile, classify, NP);
    * :meth:`bundle_for` — stages 1–4, returning the fitted models;
    * :meth:`decide` / :meth:`decide_traced` — the full chain;
    * :meth:`decide_many` — the batch entry point.
    """

    def __init__(
        self,
        engine: ExecutionEngine,
        inflection: InflectionPredictor,
        knowledge: KnowledgeDB | None = None,
        profiler: SmartProfiler | None = None,
        node_factors: np.ndarray | None = None,
        variability_threshold: float = VARIABILITY_THRESHOLD,
        monitor: BudgetInvariantMonitor | None = None,
        learning: LearningConfig | None = None,
    ):
        self._engine = engine
        self._kb = knowledge if knowledge is not None else KnowledgeDB()
        self._profiler = profiler or SmartProfiler(engine)
        self._monitor = monitor if monitor is not None else BudgetInvariantMonitor()
        self._learning = learning if learning is not None else LearningConfig()
        if self._learning.enabled:
            # a learning pipeline may refit the MLR corpus online; give
            # it a private copy so shared/session-cached predictors
            # (and every learning-off consumer) stay untouched
            inflection = copy.deepcopy(inflection)
        self._inflection = inflection
        self._learn_lock = threading.Lock()
        self._outcomes = 0
        self._refits = 0
        self._inflection_refits = 0
        self._factors = (
            np.asarray(node_factors, dtype=np.float64)
            if node_factors is not None
            else measure_node_factors(engine)
        )
        self._threshold = variability_threshold
        self._bundles = ModelBundleCache()
        cluster_spec = engine.cluster.spec
        self._node_specs = cluster_spec.node_specs
        # the fleet model: distinct hardware classes plus each slot's
        # class index (one class on a homogeneous cluster)
        self._node_classes = cluster_spec.node_classes
        self._slot_class = cluster_spec.slot_class
        # fingerprint observations are keyed by: "8xhaswell" reads as
        # 8 slots of the haswell class, mixed fleets concatenate runs
        self._testbed = "+".join(
            f"{len(tuple(group))}x{name}"
            for name, group in itertools.groupby(
                s.name for s in self._node_specs
            )
        )
        # rack structure engages only on multi-rack fleets, so legacy
        # single-rack specs keep their decisions bit-identical
        multirack = cluster_spec.n_racks > 1
        self._rack_of = cluster_spec.rack_of_slot if multirack else None
        self._rack_names = cluster_spec.rack_names if multirack else None
        self._knowledge_stages = (
            ProfileStage(self._kb, self._profiler),
            ClassifyStage(),
            InflectionStage(self._kb, self._profiler, inflection),
        )
        self._model_stage = FitModelsStage(self._bundles, self._node_classes[0])
        self._decision_stages = (
            AllocateStage(
                engine.cluster.n_nodes,
                self._factors,
                variability_threshold,
                self._node_classes,
                np.asarray(self._slot_class, dtype=np.int64),
                self._bundles,
                rack_of_slot=self._rack_of,
                rack_names=self._rack_names,
            ),
            RecommendStage(self._node_classes, self._slot_class, self._bundles),
        )

    # -- shared state --------------------------------------------------

    @property
    def engine(self) -> ExecutionEngine:
        """The execution engine decisions are made for."""
        return self._engine

    @property
    def knowledge(self) -> KnowledgeDB:
        """The knowledge database (shared, persistable)."""
        return self._kb

    @property
    def bundle_cache(self) -> ModelBundleCache:
        """The shared fitted-model cache."""
        return self._bundles

    @property
    def monitor(self) -> BudgetInvariantMonitor:
        """The shared budget-invariant auditor (one ledger per pipeline)."""
        return self._monitor

    @property
    def node_factors(self) -> np.ndarray:
        """Calibrated per-node power-efficiency factors."""
        return self._factors.copy()

    @property
    def stages(self) -> tuple:
        """The six stages, in execution order."""
        return (
            *self._knowledge_stages,
            self._model_stage,
            *self._decision_stages,
        )

    # -- stage execution -----------------------------------------------

    def _run_stage(
        self, stage, ctx: DecisionContext, trace: DecisionTrace | None
    ) -> DecisionContext:
        if trace is None:
            return stage.run(ctx)
        inputs = {
            "app_name": ctx.app.name,
            "problem_size": ctx.app.problem_size,
            "cluster_budget_w": ctx.cluster_budget_w,
        }
        start = time.perf_counter()
        out = stage.run(ctx)
        elapsed = time.perf_counter() - start
        trace.record(
            StageRecord(
                stage=stage.name,
                wall_time_s=elapsed,
                inputs=inputs,
                outputs=stage.outputs(out) if hasattr(stage, "outputs") else {},
            )
        )
        return out

    def _ensure_knowledge_ctx(
        self, ctx: DecisionContext, trace: DecisionTrace | None
    ) -> DecisionContext:
        for stage in self._knowledge_stages:
            ctx = self._run_stage(stage, ctx, trace)
        return ctx

    # -- entry points --------------------------------------------------

    def ensure_knowledge(self, app: WorkloadCharacteristics) -> KnowledgeEntry:
        """Return the app's knowledge entry, profiling on a miss.

        Profiling is the 2-sample smart profile, plus — for non-linear
        classes — the NP prediction and the confirmation sample.
        """
        ctx = DecisionContext(app=app, cluster_budget_w=0.0)
        return self._ensure_knowledge_ctx(ctx, None).entry

    def bundle_for(self, app: WorkloadCharacteristics) -> ModelBundle:
        """The app's fitted model bundle (stages 1–4, cached).

        On a heterogeneous cluster this is the primary (slot-0) class's
        bundle; use :meth:`class_bundle` for another hardware class.
        """
        ctx = DecisionContext(app=app, cluster_budget_w=0.0)
        ctx = self._ensure_knowledge_ctx(ctx, None)
        return self._run_stage(self._model_stage, ctx, None).bundle

    def class_bundle(
        self, entry: KnowledgeEntry, node: NodeSpec
    ) -> ModelBundle:
        """The entry's bundle fitted for one hardware class (cached)."""
        return self._bundles.get_or_build(entry, node)

    @property
    def node_specs(self) -> tuple[NodeSpec, ...]:
        """Per-slot node specs of the cluster decisions are made for."""
        return self._node_specs

    @property
    def testbed(self) -> str:
        """Fingerprint of the fleet observations are recorded against."""
        return self._testbed

    @property
    def learning(self) -> LearningConfig:
        """The learning configuration this pipeline runs under."""
        return self._learning

    # -- the outcome choke point ---------------------------------------

    def record_outcome(
        self,
        app: WorkloadCharacteristics,
        decision: SchedulingDecision | None = None,
        result=None,
        *,
        predicted_perf: float | None = None,
        measured_perf: float | None = None,
        predicted_power_w: float | None = None,
        measured_power_w: float | None = None,
        budget_w: float | None = None,
        n_nodes: int | None = None,
        n_threads: int | None = None,
        model_version: int | None = None,
        source: str = "runtime",
        flags: tuple[str, ...] = (),
    ) -> ObservationRecord | None:
        """Report one completed job's outcome (the single choke point).

        Every consumer — both queue drain policies, the segment
        runtime, and the serve daemon — funnels completions through
        here.  The predicted side defaults from *decision* (and the
        measured side from *result*, a
        :class:`~repro.sim.trace.RunResult`); explicit keyword values
        override either.  The observation is appended to the app's
        knowledge entry (capped history), and — **only when learning is
        enabled** — the :class:`~repro.core.learning.RefitPolicy` may
        trigger a refit: the per-segment time calibration is re-fitted
        from the observation window, the entry's ``model_version`` is
        bumped, exactly that knowledge key is invalidated in the bundle
        cache, and (when the history pins an empirically better knee)
        the MLR inflection corpus is augmented.

        Returns the recorded observation, or ``None`` when the app has
        no knowledge entry or the measurement is degenerate.  With
        learning disabled this is pure telemetry: no model, cache, or
        decision changes — the golden suites enforce that bit-for-bit.
        """
        flags = tuple(flags)
        if decision is not None:
            predicted_perf = (
                decision.predicted_perf
                if predicted_perf is None
                else predicted_perf
            )
            predicted_power_w = (
                decision.total_capped_w
                if predicted_power_w is None
                else predicted_power_w
            )
            budget_w = (
                decision.cluster_budget_w if budget_w is None else budget_w
            )
            n_nodes = decision.n_nodes if n_nodes is None else n_nodes
            n_threads = decision.n_threads if n_threads is None else n_threads
            model_version = (
                decision.model_version
                if model_version is None
                else model_version
            )
        if result is not None:
            measured_perf = (
                result.performance if measured_perf is None else measured_perf
            )
            if measured_power_w is None and result.total_time_s > 0:
                measured_power_w = result.energy_j / result.total_time_s
        if (
            predicted_perf is None
            or measured_perf is None
            or budget_w is None
            or n_nodes is None
            or n_threads is None
        ):
            raise SchedulingError(
                "record_outcome needs a decision/result pair or explicit "
                "predicted_perf, measured_perf, budget_w, n_nodes, n_threads"
            )
        if predicted_perf <= 0 or measured_perf <= 0:
            return None
        obs = ObservationRecord(
            predicted_time_s=1.0 / predicted_perf,
            measured_time_s=1.0 / measured_perf,
            predicted_power_w=float(predicted_power_w or 0.0),
            measured_power_w=float(measured_power_w or 0.0),
            budget_w=float(budget_w),
            n_nodes=int(n_nodes),
            n_threads=int(n_threads),
            testbed=self._testbed,
            model_version=int(model_version or 1),
            source=source,
            flags=flags,
        )
        with self._learn_lock:
            if not self._kb.has(app.name, app.problem_size):
                return None
            entry = self._kb.get(app.name, app.problem_size)
            new_entry = entry.with_observation(obs)
            if self._learning.enabled and self._learning.refit.should_refit(
                new_entry
            ):
                new_entry = self._refit_entry(new_entry)
                self._refits += 1
                self._bundles.invalidate(entry.key)
            self._kb.put(new_entry)
            self._outcomes += 1
        return obs

    def _refit_entry(self, entry: KnowledgeEntry) -> KnowledgeEntry:
        """Refit one entry's models from its observation history."""
        calibration = fit_calibration(
            entry.observations, entry.inflection_point
        )
        refitted = entry.with_refit(calibration)
        if entry.profile.scalability_class.is_nonlinear:
            best = empirical_best_concurrency(entry.observations)
            if best is not None and best != entry.inflection_point:
                # observed execution pins the knee elsewhere: feed the
                # evidence to the (private) MLR corpus so future
                # profiles of similar apps predict a better NP
                self._inflection.refit_with(
                    entry.profile.feature_vector(), [float(best)]
                )
                self._inflection_refits += 1
        return refitted

    def learning_stats(self) -> dict:
        """JSON-safe learning-telemetry snapshot."""
        observed_entries = 0
        observations = 0
        refitted_entries = 0
        for key in self._kb.keys():
            entry = self._kb.get(*key)
            if entry.observations:
                observed_entries += 1
                observations += len(entry.observations)
            if entry.model_version > 1:
                refitted_entries += 1
        with self._learn_lock:
            return {
                "enabled": self._learning.enabled,
                "outcomes": self._outcomes,
                "refits": self._refits,
                "inflection_refits": self._inflection_refits,
                "observed_entries": observed_entries,
                "observations_held": observations,
                "refitted_entries": refitted_entries,
            }

    def decide(
        self,
        app: WorkloadCharacteristics,
        cluster_budget_w: float,
        predefined_node_counts: tuple[int, ...] | None = None,
        allocation_mode: str = "predictive",
    ) -> SchedulingDecision:
        """Run the full pipeline and return the decision."""
        decision, _ = self._decide(
            app,
            cluster_budget_w,
            predefined_node_counts,
            allocation_mode,
            trace=None,
        )
        return decision

    def decide_traced(
        self,
        app: WorkloadCharacteristics,
        cluster_budget_w: float,
        predefined_node_counts: tuple[int, ...] | None = None,
        allocation_mode: str = "predictive",
    ) -> tuple[SchedulingDecision, DecisionTrace]:
        """Run the full pipeline, recording a :class:`DecisionTrace`."""
        return self._decide(
            app,
            cluster_budget_w,
            predefined_node_counts,
            allocation_mode,
            trace=DecisionTrace(),
        )

    def _decide(
        self,
        app: WorkloadCharacteristics,
        cluster_budget_w: float,
        predefined_node_counts: tuple[int, ...] | None,
        allocation_mode: str,
        trace: DecisionTrace | None,
    ) -> tuple[SchedulingDecision, DecisionTrace | None]:
        check_positive(cluster_budget_w, "cluster budget", SchedulingError)
        ctx = DecisionContext(
            app=app,
            cluster_budget_w=cluster_budget_w,
            predefined_node_counts=predefined_node_counts,
            allocation_mode=allocation_mode,
        )
        ctx = self._ensure_knowledge_ctx(ctx, trace)
        ctx = self._run_stage(self._model_stage, ctx, trace)
        for stage in self._decision_stages:
            ctx = self._run_stage(stage, ctx, trace)
        self._audit_decision(ctx, trace)
        return ctx.decision, trace

    def _audit_decision(
        self, ctx: DecisionContext, trace: DecisionTrace | None
    ) -> None:
        """Audit the issued cap set; record the enforcement event.

        The floor/ceiling come from the power model at the decision's
        actual concurrency (the allocator may have reasoned at another
        one), with the DRAM cap margin folded into the ceiling — see
        :meth:`~repro.core.powermodel.ClipPowerModel.cap_ceiling_w`.
        """
        decision = ctx.decision
        n_threads = decision.n_threads
        models = [
            b.power_model
            for b in _class_bundles(self._bundles, ctx, self._node_classes)
        ]
        ranks = self._slot_class[: decision.n_nodes]
        lo_bound = slot_values(
            [m.power_range(n_threads).node_lo_w for m in models], ranks
        )
        hi_bound = slot_values(
            [m.cap_ceiling_w(n_threads) for m in models], ranks
        )
        start = time.perf_counter()
        audit = self._monitor.audit(
            "pipeline",
            decision.app_name,
            decision.cluster_budget_w,
            decision.per_node_caps,
            node_lo_w=lo_bound,
            node_hi_w=hi_bound,
        )
        rack_budgets = decision.allocation.rack_budgets_w
        if rack_budgets is not None:
            # hierarchical contract: rack shares stay under the cluster
            # budget, and each rack's issued caps stay under its share
            self._monitor.audit_split(
                "pipeline.rack",
                decision.app_name,
                decision.cluster_budget_w,
                rack_budgets,
            )
            rack_of = self._rack_of
            # the audit's float copy of the caps, reused per rack
            caps = audit.caps
            # slots fill in rack order, so each rack's caps are one
            # contiguous run — a single walk audits every rack
            n, i, k = decision.n_nodes, 0, 0
            while i < n:
                r = rack_of[i]
                j = i
                while j < n and rack_of[j] == r:
                    j += 1
                self._monitor.audit(
                    f"pipeline.rack/{self._rack_names[r]}",
                    decision.app_name,
                    rack_budgets[k],
                    caps[i:j],
                )
                i, k = j, k + 1
        if trace is not None:
            trace.record(
                StageRecord(
                    stage="audit",
                    wall_time_s=time.perf_counter() - start,
                    inputs={
                        "app_name": decision.app_name,
                        "cluster_budget_w": decision.cluster_budget_w,
                    },
                    outputs={
                        "ok": audit.ok,
                        "total_capped_w": audit.total_capped_w,
                        "violations": list(audit.violations),
                    },
                )
            )

    def decide_many(
        self,
        apps: list[WorkloadCharacteristics],
        cluster_budget_w: float,
        predefined_node_counts: tuple[int, ...] | None = None,
        allocation_mode: str = "predictive",
    ) -> list[SchedulingDecision]:
        """Decide a batch of jobs under one budget, sharing all caches.

        Duplicate ``(app, problem_size)`` submissions collapse to a
        single pipeline pass (the queue workload: many arrivals of few
        distinct applications).  Every submission still gets its *own*
        :class:`SchedulingDecision`: the memoized decision is re-issued
        via :func:`dataclasses.replace` with a fresh ``phase_threads``
        dict, so mutating one queued job's phase overrides (the dict is
        the decision's only mutable field) can never leak into the
        other submissions that happened to share a pipeline pass.
        """
        memo: dict[tuple[str, str], SchedulingDecision] = {}
        out: list[SchedulingDecision] = []
        for app in apps:
            key = (app.name, app.problem_size)
            decision = memo.get(key)
            if decision is None:
                decision = self.decide(
                    app,
                    cluster_budget_w,
                    predefined_node_counts=predefined_node_counts,
                    allocation_mode=allocation_mode,
                )
                memo[key] = decision
            else:
                decision = replace(
                    decision, phase_threads=dict(decision.phase_threads)
                )
            out.append(decision)
        return out
