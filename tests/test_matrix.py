"""Cross-product scheduling matrix.

Every predefined application, scheduled and executed at a grid of
budgets by every method.  Each cell asserts the universal invariants
(budget conservation, feasibility, audit cleanliness) that the pairwise
tests check only in spots — the broad net that catches interactions a
targeted test never would.
"""

import pytest

from repro.analysis.traces import audit_cap_violations
from repro.baselines import CoordinatedScheduler, LowerLimitScheduler
from repro.baselines.lowerlimit import NODE_FLOOR_W
from repro.core.knowledge import KnowledgeDB
from repro.core.profile import SmartProfiler
from repro.core.scheduler import ClipScheduler
from repro.errors import InfeasibleBudgetError
from repro.workloads.apps import all_apps

BUDGETS = (900.0, 1500.0, 2300.0)


@pytest.fixture(scope="module")
def shared(trained_inflection):
    from repro.hw.cluster import SimulatedCluster
    from repro.sim.engine import ExecutionEngine

    engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
    profiler = SmartProfiler(engine)
    kb = KnowledgeDB()
    clip = ClipScheduler(
        engine, inflection=trained_inflection,
        knowledge=kb, profiler=profiler,
    )
    coordinated = CoordinatedScheduler(engine, profiler=profiler, knowledge=kb)
    lower = LowerLimitScheduler(engine)
    return engine, clip, coordinated, lower


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
class TestClipMatrix:
    def test_clip_cell(self, shared, app, budget):
        engine, clip, _, _ = shared
        decision, result = clip.run(app, budget, iterations=2)
        # budget conservation at the cap level
        assert decision.total_capped_w <= budget * (1 + 1e-9)
        # budget conservation at the drawn-power level
        drawn = sum(
            r.operating_point.pkg_power_w + r.operating_point.dram_power_w
            for r in result.nodes
        )
        assert drawn <= budget * (1 + 1e-6)
        # no cap was programmed below a hardware floor
        assert audit_cap_violations(result) == []
        # parabolic apps never run past their predicted knee
        if decision.inflection_point is not None and (
            decision.scalability_class.value == "parabolic"
        ):
            assert decision.n_threads <= decision.inflection_point
        # the decision is reproducible from the warm knowledge base
        again = clip.schedule(app, budget)
        assert again.n_threads == decision.n_threads
        assert again.n_nodes == decision.n_nodes


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
class TestBaselineMatrix:
    def test_coordinated_cell(self, shared, app, budget):
        engine, _, coordinated, _ = shared
        result = coordinated.run(app, budget, iterations=2)
        assert result.performance > 0
        assert result.n_threads_per_node == 24

    def test_lowerlimit_cell(self, shared, app, budget):
        engine, _, _, lower = shared
        try:
            result = lower.run(app, budget, iterations=2)
        except InfeasibleBudgetError:
            pytest.skip("budget below the 180 W floor")
        # never runs a node below the preset floor
        share = budget / result.n_nodes
        assert share >= NODE_FLOOR_W - 1e-9
