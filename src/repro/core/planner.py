"""Budget planning — the inverse of power-bounded scheduling.

The paper answers "given watts, how fast?"; operators just as often ask
the inverse: *"how many watts must I reserve for this job to hit a
target?"* — when negotiating a demand-response window, or deciding
whether a deadline is affordable.  Because CLIP's predicted performance
is monotone in the budget (more watts never predict slower — checked by
tests), the inverse is a bisection over the scheduler's own
predictions, so planning costs milliseconds and no extra profiling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduler import ClipScheduler, SchedulingDecision
from repro.errors import InfeasibleBudgetError, SchedulingError
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["BudgetPlan", "BudgetPlanner"]


@dataclass(frozen=True)
class BudgetPlan:
    """Outcome of a planning query."""

    app_name: str
    target_perf: float
    budget_w: float
    decision: SchedulingDecision

    @property
    def predicted_perf(self) -> float:
        """Predicted throughput at the planned budget."""
        return self.decision.predicted_perf

    @property
    def headroom(self) -> float:
        """Fraction by which the prediction exceeds the target."""
        return self.predicted_perf / self.target_perf - 1.0


class BudgetPlanner:
    """Finds the smallest cluster budget meeting a performance target."""

    def __init__(self, scheduler: ClipScheduler, tolerance_w: float = 10.0):
        if tolerance_w <= 0:
            raise SchedulingError("tolerance must be > 0")
        self._scheduler = scheduler
        self._tol = tolerance_w

    def _predict(self, app: WorkloadCharacteristics, budget: float):
        try:
            decision = self._scheduler.schedule(app, budget)
        except InfeasibleBudgetError:
            return None
        return decision

    def max_useful_budget_w(self, app: WorkloadCharacteristics) -> float:
        """Budget beyond which predictions stop improving.

        Every node at the application's acceptable ceiling — the
        saturation point of the whole curve.  On a heterogeneous
        cluster each slot contributes its own class's ceiling.
        """
        pipeline = self._scheduler.pipeline
        n = pipeline.bundle_for(app).recommender.unbounded_concurrency()
        entry = pipeline.ensure_knowledge(app)
        spec = self._scheduler.engine.cluster.spec
        return float(
            sum(
                pipeline.class_bundle(entry, s).power_model.power_range(n).node_hi_w
                * spec.slot_class.count(k)
                for k, s in enumerate(spec.node_classes)
            )
        )

    def plan(
        self, app: WorkloadCharacteristics, target_perf: float
    ) -> BudgetPlan:
        """Smallest budget whose *predicted* throughput meets the target.

        CLIP's cluster prediction is deliberately the paper's
        optimistic one (per-node synchronization does not strong-scale
        but the allocator's estimate assumes it does), so for
        sync-heavy applications the planned budget may undershoot; use
        :meth:`plan_validated` when the answer must hold on the metal.

        Raises :class:`InfeasibleBudgetError` when even the saturated
        cluster cannot reach the target (the honest answer an operator
        needs before promising a deadline).
        """
        if target_perf <= 0:
            raise SchedulingError("target performance must be > 0")
        hi = self.max_useful_budget_w(app)
        top = self._predict(app, hi)
        if top is None or top.predicted_perf < target_perf:
            reached = 0.0 if top is None else top.predicted_perf
            raise InfeasibleBudgetError(
                f"target {target_perf:.3f} it/s unreachable: the saturated "
                f"cluster predicts {reached:.3f} it/s"
            )
        # find a feasible lower bracket
        lo = hi / 16.0
        while self._feasible_and_meets(app, lo, target_perf) is None and lo < hi:
            lo *= 1.5
        lo_ok = self._feasible_and_meets(app, lo, target_perf)
        if lo_ok is not None and lo_ok[0]:
            # even the smallest probed budget meets the target; bisect
            # between infeasibility and lo for completeness
            pass
        # bisection: invariant — hi meets the target, lo may not
        best = (hi, top)
        while hi - lo > self._tol:
            mid = (lo + hi) / 2.0
            probe = self._feasible_and_meets(app, mid, target_perf)
            if probe is not None and probe[0]:
                hi = mid
                best = (mid, probe[1])
            else:
                lo = mid
        return BudgetPlan(
            app_name=app.name,
            target_perf=target_perf,
            budget_w=best[0],
            decision=best[1],
        )

    def _feasible_and_meets(self, app, budget, target):
        decision = self._predict(app, budget)
        if decision is None:
            return None
        return (decision.predicted_perf >= target, decision)

    def plan_validated(
        self,
        app: WorkloadCharacteristics,
        target_perf: float,
        probe_iterations: int = 3,
        max_rounds: int = 5,
    ) -> BudgetPlan:
        """Like :meth:`plan`, but validated by short probe executions.

        After the prediction-driven bisection, runs a few iterations at
        the planned budget; while the *measured* throughput misses the
        target, the target handed to the predictor is inflated by the
        observed miss ratio and the bisection repeats — a calibration
        loop that converges in a couple of rounds because the miss
        ratio is nearly budget-independent.
        """
        engine = self._scheduler.engine
        effective_target = target_perf
        plan = self.plan(app, effective_target)
        for _ in range(max_rounds):
            result = engine.run(
                app, plan.decision.to_execution_config(iterations=probe_iterations)
            )
            if result.performance >= target_perf:
                return BudgetPlan(
                    app_name=app.name,
                    target_perf=target_perf,
                    budget_w=plan.budget_w,
                    decision=plan.decision,
                )
            effective_target *= target_perf / result.performance * 1.02
            plan = self.plan(app, effective_target)
        raise InfeasibleBudgetError(
            f"validation did not converge to {target_perf:.3f} it/s "
            f"within {max_rounds} rounds"
        )
