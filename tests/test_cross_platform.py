"""Generality: CLIP on a platform it was never calibrated for.

The paper motivates its profile-driven design with "hardware evolution
causes the old methods to lose precision" (§III-A) — fixed regression
models tuned on one generation break on the next.  These tests run the
whole pipeline on a Broadwell-class testbed (20-core sockets, different
clocks, TDP, and bandwidth) with a predictor *retrained from profiles
on that platform*, and check the decisions stay sane.
"""

import pytest

from repro.analysis.traces import audit_cap_violations
from repro.baselines import AllInScheduler
from repro.core.inflection import InflectionPredictor
from repro.core.knowledge import KnowledgeDB
from repro.core.profile import SmartProfiler
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import broadwell_node, broadwell_testbed
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app
from repro.workloads.suites import training_corpus


@pytest.fixture(scope="module")
def broadwell():
    cluster = SimulatedCluster(broadwell_testbed())
    engine = ExecutionEngine(cluster, seed=42)
    predictor = InflectionPredictor()
    predictor.fit_from_corpus(
        training_corpus(cluster.spec.node),
        SmartProfiler(engine),
    )
    clip = ClipScheduler(engine, inflection=predictor, knowledge=KnowledgeDB())
    return engine, clip


class TestPlatformSpec:
    def test_broadwell_shape(self):
        node = broadwell_node()
        assert node.n_cores == 40
        assert node.socket.f_nominal == pytest.approx(2.2e9)
        assert node.peak_bandwidth > 1.3e11

    def test_testbed_builds(self):
        cluster = SimulatedCluster(broadwell_testbed())
        assert cluster.n_nodes == 8


class TestPipelineOnBroadwell:
    @pytest.mark.parametrize(
        "name", ["comd", "sp-mz.C", "bt-mz.C", "stream", "tealeaf", "ep.C"]
    )
    def test_schedules_and_respects_budget(self, broadwell, name):
        engine, clip = broadwell
        decision, result = clip.run(get_app(name), 1600.0, iterations=2)
        assert 2 <= decision.n_threads <= 40
        assert decision.total_capped_w <= 1600.0 * (1 + 1e-9)
        assert audit_cap_violations(result) == []
        drawn = sum(
            r.operating_point.pkg_power_w + r.operating_point.dram_power_w
            for r in result.nodes
        )
        assert drawn <= 1600.0 * (1 + 1e-6)

    def test_classes_are_platform_dependent_but_sane(self, broadwell):
        # bt-mz's exch_qbc phase saturates at 12 threads: on a 40-core
        # node the all-core run pays heavy oversubscription and the
        # app legitimately profiles parabolic here (classes are a
        # property of app x platform, not of the app alone)
        engine, clip = broadwell
        entry = clip.ensure_knowledge(get_app("bt-mz.C"))
        assert entry.profile.scalability_class.value in (
            "logarithmic", "parabolic",
        )
        # EP stays linear on any platform
        ep = clip.ensure_knowledge(get_app("ep.C"))
        assert ep.profile.scalability_class.value == "linear"

    def test_linear_app_uses_all_forty_cores(self, broadwell):
        engine, clip = broadwell
        decision = clip.schedule(get_app("comd"), 2000.0)
        assert decision.n_threads == 40

    def test_no_degenerate_tiny_concurrency(self, broadwell):
        # regression guard for the inverted-hyperbola extrapolation bug:
        # a production solver must never be scheduled on 2 threads of a
        # 40-core node at a comfortable budget
        engine, clip = broadwell
        for name in ("bt-mz.C", "sp-mz.C", "tealeaf"):
            decision = clip.schedule(get_app(name), 1600.0)
            assert decision.n_threads >= 8, name

    def test_clip_beats_allin_on_parabolic_here_too(self, broadwell):
        engine, clip = broadwell
        app = get_app("sp-mz.C")
        _, clip_r = clip.run(app, 1600.0, iterations=2)
        allin_r = AllInScheduler(engine).run(app, 1600.0, iterations=2)
        assert clip_r.performance > allin_r.performance * 1.15
