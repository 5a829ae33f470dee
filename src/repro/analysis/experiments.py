"""Shared experiment harness for the evaluation benchmarks.

Provides the pieces every figure-regeneration bench needs:

* :class:`ClipSchedulerAdapter` — CLIP behind the common
  :class:`~repro.baselines.base.PowerBoundedScheduler` interface;
* :func:`build_trained_inflection` — a trained (and cached-per-process)
  MLR inflection predictor;
* :func:`make_schedulers` — the paper's four methods, ready to run;
* :func:`compare_methods` — one (apps x budgets) sweep producing the
  relative-performance numbers of Figs. 8–9.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import (
    AllInScheduler,
    CoordinatedScheduler,
    LowerLimitScheduler,
    PowerBoundedScheduler,
)
from repro.core.inflection import InflectionPredictor
from repro.core.knowledge import KnowledgeDB
from repro.core.profile import SmartProfiler
from repro.core.scheduler import ClipScheduler
from repro.errors import ClipError, InfeasibleBudgetError
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.characteristics import WorkloadCharacteristics
from repro.workloads.suites import training_corpus

__all__ = [
    "ClipSchedulerAdapter",
    "ComparisonCell",
    "MethodComparison",
    "build_trained_inflection",
    "compare_methods",
    "make_schedulers",
]


class ClipSchedulerAdapter(PowerBoundedScheduler):
    """CLIP exposed through the common scheduler interface."""

    name = "CLIP"

    def __init__(self, engine: ExecutionEngine, clip: ClipScheduler):
        super().__init__(engine)
        self._clip = clip

    @property
    def clip(self) -> ClipScheduler:
        """The underlying Algorithm-1 scheduler."""
        return self._clip

    def plan(
        self, app: WorkloadCharacteristics, cluster_budget_w: float
    ) -> ExecutionConfig:
        """Run Algorithm 1 and hand back its execution configuration."""
        decision = self._clip.schedule(app, cluster_budget_w)
        return decision.to_execution_config()


_INFLECTION_CACHE: dict[str, InflectionPredictor] = {}


def build_trained_inflection(engine: ExecutionEngine) -> InflectionPredictor:
    """Train the MLR inflection predictor on the training corpus.

    Training profiles ~60 corpus applications, so the result is cached
    per primary node class within the process — a mixed testbed trains
    on its slot-0 class, the one profiling samples run on.
    """
    primary = engine.cluster.spec.node_specs[0]
    key = primary.name
    if key not in _INFLECTION_CACHE:
        predictor = InflectionPredictor()
        corpus = training_corpus(primary)
        predictor.fit_from_corpus(corpus, SmartProfiler(engine))
        _INFLECTION_CACHE[key] = predictor
    return _INFLECTION_CACHE[key]


def make_schedulers(engine: ExecutionEngine) -> dict[str, PowerBoundedScheduler]:
    """The evaluation's four methods, in the paper's order."""
    profiler = SmartProfiler(engine)
    methods: dict[str, PowerBoundedScheduler] = {
        "All-In": AllInScheduler(engine),
        "Lower-Limit": LowerLimitScheduler(engine),
        "Coordinated": CoordinatedScheduler(
            engine, profiler=profiler, knowledge=KnowledgeDB()
        ),
    }
    clip = ClipScheduler(
        engine,
        inflection=build_trained_inflection(engine),
        knowledge=KnowledgeDB(),
        profiler=profiler,
    )
    methods["CLIP"] = ClipSchedulerAdapter(engine, clip)
    return methods


@dataclass(frozen=True)
class ComparisonCell:
    """One (method, app, budget) outcome."""

    method: str
    app_name: str
    budget_w: float
    performance: float
    relative: float
    n_nodes: int
    n_threads: int
    feasible: bool = True


@dataclass(frozen=True)
class MethodComparison:
    """All cells of one comparison sweep plus its reference row."""

    cells: tuple[ComparisonCell, ...]
    reference_perf: dict[str, float]

    def cell(self, method: str, app_name: str, budget_w: float) -> ComparisonCell:
        """Look up one cell."""
        for c in self.cells:
            if (
                c.method == method
                and c.app_name == app_name
                and abs(c.budget_w - budget_w) < 1e-6
            ):
                return c
        raise ClipError(f"no cell for {method}/{app_name}/{budget_w}")

    def by_method(self, method: str) -> tuple[ComparisonCell, ...]:
        """All feasible cells of one method."""
        return tuple(c for c in self.cells if c.method == method and c.feasible)


def compare_methods(
    engine: ExecutionEngine,
    apps: list[WorkloadCharacteristics],
    budgets_w: list[float],
    schedulers: dict[str, PowerBoundedScheduler] | None = None,
    iterations: int = 3,
) -> MethodComparison:
    """Run every (method, app, budget) combination.

    Relative performance is normalized per app to unbounded All-In,
    exactly as §V-C defines it.  Methods that cannot produce a feasible
    plan for a budget get an infeasible cell with zero performance
    (the paper's figures simply show a missing/zero bar there).
    """
    schedulers = schedulers or make_schedulers(engine)
    unbounded = engine.cluster.p_max_w * 10.0
    reference: dict[str, float] = {}
    allin = AllInScheduler(engine)
    for app in apps:
        reference[app.name] = allin.run(
            app, unbounded, iterations=iterations
        ).performance

    cells: list[ComparisonCell] = []
    for app in apps:
        for budget in budgets_w:
            for name, sched in schedulers.items():
                try:
                    result = sched.run(app, budget, iterations=iterations)
                except InfeasibleBudgetError:
                    cells.append(
                        ComparisonCell(
                            method=name,
                            app_name=app.name,
                            budget_w=budget,
                            performance=0.0,
                            relative=0.0,
                            n_nodes=0,
                            n_threads=0,
                            feasible=False,
                        )
                    )
                    continue
                cells.append(
                    ComparisonCell(
                        method=name,
                        app_name=app.name,
                        budget_w=budget,
                        performance=result.performance,
                        relative=result.performance / reference[app.name],
                        n_nodes=result.n_nodes,
                        n_threads=result.n_threads_per_node,
                    )
                )
    return MethodComparison(cells=tuple(cells), reference_perf=reference)
