"""Algorithm 1: the CLIP power-bounded scheduler, end to end.

A thin facade over the shared staged pipeline
(:mod:`repro.core.pipeline`), which composes every piece of the
framework:

1. look the job up in the knowledge database; on a miss, smart-profile
   it (and, for non-linear classes, predict NP and run the
   confirmation sample);
2. fit the performance and power models from the profile and derive
   the acceptable per-node power range (cached per knowledge entry as
   a :class:`~repro.core.pipeline.ModelBundle`);
3. choose the node count and per-node budgets (cluster level,
   variability-coordinated);
4. recommend the per-node configuration — threads, affinity, CPU/DRAM
   caps — for each node's budget.

:meth:`ClipScheduler.schedule` returns the decision;
:meth:`ClipScheduler.schedule_traced` additionally returns the
per-stage :class:`~repro.core.pipeline.DecisionTrace`;
:meth:`ClipScheduler.schedule_many` decides a whole batch of jobs on
the shared caches; :meth:`ClipScheduler.run` executes a decision on
the simulated testbed, reports the outcome back to the pipeline and
returns the :class:`~repro.sim.trace.RunResult`.  All three decision
entry points read the same models, so with learning enabled they
agree on every job: learning acts only by refitting a knowledge
entry's models (:mod:`repro.core.learning`).
"""

from __future__ import annotations

import numpy as np

from repro.core.coordination import VARIABILITY_THRESHOLD
from repro.core.inflection import InflectionPredictor
from repro.core.knowledge import KnowledgeDB, KnowledgeEntry
from repro.core.learning import LearningConfig
from repro.core.pipeline import (
    DecisionPipeline,
    DecisionTrace,
    SchedulingDecision,
)
from repro.core.profile import SmartProfiler
from repro.sim.engine import ExecutionEngine
from repro.sim.trace import RunResult
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["SchedulingDecision", "ClipScheduler"]


class ClipScheduler:
    """The cluster-level intelligent power coordination system."""

    def __init__(
        self,
        engine: ExecutionEngine,
        inflection: InflectionPredictor,
        knowledge: KnowledgeDB | None = None,
        profiler: SmartProfiler | None = None,
        variability_threshold: float = VARIABILITY_THRESHOLD,
        learning: LearningConfig | None = None,
    ):
        self._engine = engine
        self._pipeline = DecisionPipeline(
            engine,
            inflection,
            knowledge=knowledge,
            profiler=profiler,
            variability_threshold=variability_threshold,
            learning=learning,
        )

    @property
    def engine(self) -> ExecutionEngine:
        """The execution engine decisions are made for."""
        return self._engine

    @property
    def pipeline(self) -> DecisionPipeline:
        """The staged decision pipeline (shared with other consumers)."""
        return self._pipeline

    @property
    def knowledge(self) -> KnowledgeDB:
        """The knowledge database (shared, persistable)."""
        return self._pipeline.knowledge

    @property
    def monitor(self):
        """The shared budget-invariant auditor (the pipeline's ledger)."""
        return self._pipeline.monitor

    @property
    def node_factors(self) -> np.ndarray:
        """Calibrated per-node power-efficiency factors."""
        return self._pipeline.node_factors

    @property
    def learning(self) -> LearningConfig:
        """The closed-loop learning configuration (off by default)."""
        return self._pipeline.learning

    # ------------------------------------------------------------------

    def ensure_knowledge(self, app: WorkloadCharacteristics) -> KnowledgeEntry:
        """Return the app's knowledge entry, profiling on a miss.

        Profiling is the 2-sample smart profile, plus — for non-linear
        classes — the NP prediction and the confirmation sample.
        """
        return self._pipeline.ensure_knowledge(app)

    def schedule(
        self,
        app: WorkloadCharacteristics,
        cluster_budget_w: float,
        predefined_node_counts: tuple[int, ...] | None = None,
        allocation_mode: str = "predictive",
    ) -> SchedulingDecision:
        """Run Algorithm 1 and return the decision (no execution)."""
        return self._pipeline.decide(
            app,
            cluster_budget_w,
            predefined_node_counts=predefined_node_counts,
            allocation_mode=allocation_mode,
        )

    def schedule_traced(
        self,
        app: WorkloadCharacteristics,
        cluster_budget_w: float,
        allocation_mode: str = "predictive",
    ) -> tuple[SchedulingDecision, DecisionTrace]:
        """Like :meth:`schedule`, plus the per-stage decision trace."""
        return self._pipeline.decide_traced(
            app, cluster_budget_w, allocation_mode=allocation_mode
        )

    def schedule_many(
        self,
        apps: list[WorkloadCharacteristics],
        cluster_budget_w: float,
    ) -> list[SchedulingDecision]:
        """Decide a batch of jobs under one budget on the shared caches."""
        return self._pipeline.decide_many(apps, cluster_budget_w)

    def run(
        self,
        app: WorkloadCharacteristics,
        cluster_budget_w: float,
        iterations: int | None = None,
        **schedule_kwargs,
    ) -> tuple[SchedulingDecision, RunResult]:
        """Schedule and execute the job on the simulated testbed.

        The measured outcome is reported back through the pipeline's
        :meth:`~repro.core.pipeline.DecisionPipeline.record_outcome`
        choke point, growing the knowledge entry's observation history
        (and, with learning enabled, feeding the refit policy).
        """
        decision = self.schedule(app, cluster_budget_w, **schedule_kwargs)
        result = self._engine.run(
            app, decision.to_execution_config(iterations=iterations)
        )
        self._pipeline.record_outcome(
            app, decision=decision, result=result, source="scheduler.run"
        )
        return decision, result
