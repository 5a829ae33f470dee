"""End-to-end integration tests across the full stack.

These exercise complete user journeys — profile → classify → predict →
allocate → execute — and system-level invariants that no single module
can check alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.traces import audit_cap_violations
from repro.core.knowledge import KnowledgeDB
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import TABLE2_APPS, get_app


@pytest.fixture()
def clip(engine, trained_inflection):
    return ClipScheduler(
        engine, inflection=trained_inflection, knowledge=KnowledgeDB()
    )


class TestFullPipeline:
    @pytest.mark.parametrize("app", TABLE2_APPS, ids=lambda a: a.name)
    def test_every_table2_app_schedules_and_runs(self, clip, app):
        decision, result = clip.run(app, 1200.0, iterations=3)
        assert 1 <= decision.n_nodes <= 8
        assert 2 <= decision.n_threads <= 24
        assert decision.total_capped_w <= 1200.0 * (1 + 1e-9)
        assert result.performance > 0
        assert audit_cap_violations(result) == []

    @pytest.mark.parametrize("budget", [700.0, 1100.0, 1900.0, 2600.0])
    def test_budget_respected_in_execution(self, clip, budget):
        _, result = clip.run(get_app("tealeaf"), budget, iterations=3)
        drawn = sum(
            r.operating_point.pkg_power_w + r.operating_point.dram_power_w
            for r in result.nodes
        )
        assert drawn <= budget * (1 + 1e-6)

    def test_decisions_deterministic(self, engine, trained_inflection):
        a = ClipScheduler(
            engine, inflection=trained_inflection, knowledge=KnowledgeDB()
        ).schedule(get_app("bt-mz.C"), 1300.0)
        b = ClipScheduler(
            engine, inflection=trained_inflection, knowledge=KnowledgeDB()
        ).schedule(get_app("bt-mz.C"), 1300.0)
        assert a.n_nodes == b.n_nodes
        assert a.n_threads == b.n_threads
        assert a.total_capped_w == pytest.approx(b.total_capped_w)

    def test_knowledge_db_transferable(self, engine, trained_inflection, tmp_path):
        # profile with one scheduler, persist, reload in a fresh one:
        # decisions agree and no re-profiling happens
        first = ClipScheduler(
            engine, inflection=trained_inflection, knowledge=KnowledgeDB()
        )
        d1 = first.schedule(get_app("sp-mz.C"), 1400.0)
        path = tmp_path / "kb.json"
        first.knowledge.save(path)

        second = ClipScheduler(
            engine,
            inflection=trained_inflection,
            knowledge=KnowledgeDB.load(path),
        )
        d2 = second.schedule(get_app("sp-mz.C"), 1400.0)
        assert d2.n_threads == d1.n_threads
        assert d2.n_nodes == d1.n_nodes
        assert d2.inflection_point == d1.inflection_point

    def test_simple_mode_end_to_end(self, clip):
        d, r = clip.run(
            get_app("comd"), 1300.0, iterations=3, allocation_mode="simple"
        )
        assert r.performance > 0
        assert d.total_capped_w <= 1300.0 * (1 + 1e-9)

    def test_predictive_not_worse_than_simple(self, clip):
        for name in ("comd", "bt-mz.C", "tealeaf"):
            app = get_app(name)
            _, r_pred = clip.run(app, 1000.0, iterations=3)
            _, r_simple = clip.run(
                app, 1000.0, iterations=3, allocation_mode="simple"
            )
            assert r_pred.performance >= r_simple.performance * 0.95, name


class TestSystemInvariants:
    @settings(max_examples=15, deadline=None)
    @given(budget=st.floats(min_value=650.0, max_value=2600.0))
    def test_budget_conservation_property(self, budget):
        clip = _SHARED.clip
        decision = clip.schedule(get_app("lu-mz.C"), budget)
        assert decision.total_capped_w <= budget * (1 + 1e-9)
        for cfg in decision.node_configs:
            assert cfg.pkg_cap_w > 0
            assert cfg.dram_cap_w > 0

    @settings(max_examples=10, deadline=None)
    @given(
        b1=st.floats(min_value=700.0, max_value=1500.0),
        delta=st.floats(min_value=50.0, max_value=900.0),
    )
    def test_more_budget_never_slower(self, b1, delta):
        clip = _SHARED.clip
        app = get_app("tealeaf")
        _, r1 = clip.run(app, b1, iterations=2)
        _, r2 = clip.run(app, b1 + delta, iterations=2)
        assert r2.performance >= r1.performance * 0.98

    def test_energy_decomposition_consistent(self, engine):
        result = engine.run(
            get_app("amg"),
            ExecutionConfig(n_nodes=4, n_threads=24, iterations=3),
        )
        assert result.energy_j == pytest.approx(
            result.avg_power_w * result.total_time_s, rel=1e-9
        )

    def test_scheduler_beats_random_configs(self, clip, engine):
        """CLIP must beat the median of random valid configurations."""
        rng = np.random.default_rng(3)
        app = get_app("sp-mz.C")
        budget = 1200.0
        _, clip_result = clip.run(app, budget, iterations=3)
        random_perfs = []
        for _ in range(12):
            n_nodes = int(rng.integers(1, 9))
            n_threads = int(rng.integers(1, 13)) * 2
            share = budget / n_nodes
            dram = float(rng.uniform(10.0, 35.0))
            result = engine.run(
                app,
                ExecutionConfig(
                    n_nodes=n_nodes,
                    n_threads=n_threads,
                    pkg_cap_w=share - dram,
                    dram_cap_w=dram,
                    iterations=3,
                ),
            )
            drawn = sum(
                r.operating_point.pkg_power_w + r.operating_point.dram_power_w
                for r in result.nodes
            )
            if drawn <= budget * (1 + 1e-6):
                random_perfs.append(result.performance)
        assert clip_result.performance > np.median(random_perfs)


class _Shared:
    """Lazy shared scheduler for hypothesis tests (fixtures are banned
    inside @given)."""

    def __init__(self):
        self._clip = None

    @property
    def clip(self):
        if self._clip is None:
            from repro.analysis.experiments import build_trained_inflection

            engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
            self._clip = ClipScheduler(
                engine,
                inflection=build_trained_inflection(engine),
                knowledge=KnowledgeDB(),
            )
        return self._clip


_SHARED = _Shared()
