"""Mixed-cluster acceptance: heterogeneity through the whole stack.

The headline scenario of the heterogeneity refactor: CLIP scheduling on
the mixed 4× Haswell + 4× Broadwell fleet under a budget sweep, with
the budget-invariant monitor auditing every issued cap set against each
slot's *own* acceptable power range.  Also pins the class-preservation
regression (degrade/recover must rebuild a slot from its own spec) and
the per-class model-bundle keying.
"""

import pytest

from repro.core.scheduler import ClipScheduler
from repro.errors import SpecError
from repro.hw.cluster import SimulatedCluster
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app

#: The sweep of the acceptance scenario (W).  Spans shedding-tight to
#: nearly saturated on the mixed fleet.
BUDGET_SWEEP_W = (900.0, 1200.0, 1600.0, 2100.0, 2600.0)

SWEEP_APPS = ("comd", "sp-mz.C", "stream")


@pytest.fixture()
def mixed_engine():
    return ExecutionEngine(SimulatedCluster.mixed_testbed(), seed=42)


@pytest.fixture()
def mixed_clip(mixed_engine, trained_inflection):
    # the predictor was trained on the Haswell corpus; the mixed fleet's
    # primary (slot-0) class is Haswell, so it transfers unchanged
    return ClipScheduler(mixed_engine, inflection=trained_inflection)


class TestMixedAcceptance:
    def test_budget_sweep_audits_clean(self, mixed_clip):
        """Every cap set of the sweep honors budget and per-slot ranges."""
        for name in SWEEP_APPS:
            for budget in BUDGET_SWEEP_W:
                decision = mixed_clip.schedule(get_app(name), budget)
                assert decision.total_capped_w <= budget + 1e-6
        audits = mixed_clip.monitor.n_audits
        assert audits >= len(SWEEP_APPS) * len(BUDGET_SWEEP_W)
        mixed_clip.monitor.assert_clean()

    def test_decision_carries_per_slot_ranges(self, mixed_clip):
        decision = mixed_clip.schedule(get_app("sp-mz.C"), 1400.0)
        ranges = decision.allocation.node_ranges_w
        assert ranges is not None
        assert len(ranges) == decision.n_nodes
        for budget, (lo, hi) in zip(
            decision.allocation.node_budgets_w, ranges
        ):
            assert lo <= budget + 1e-6
            assert budget <= hi + 1e-6

    def test_mixed_decision_round_trips_through_json(self, mixed_clip):
        from repro.core.pipeline import SchedulingDecision

        decision = mixed_clip.schedule(get_app("comd"), 1500.0)
        assert decision.allocation.node_ranges_w is not None
        clone = SchedulingDecision.from_dict(decision.to_dict())
        assert clone == decision

    def test_homogeneous_decision_json_has_no_ranges(
        self, engine, trained_inflection
    ):
        clip = ClipScheduler(engine, inflection=trained_inflection)
        decision = clip.schedule(get_app("comd"), 1500.0)
        assert "node_ranges_w" not in decision.to_dict()["allocation"]

    def test_one_class_decision_keeps_scalar_bounds(self, mixed_clip):
        """A decision on the mixed fleet that only uses the Haswell
        slots is a one-class decision: scalar audit bounds, no per-slot
        ranges — the form a homogeneous fleet has always produced."""
        one = mixed_clip.schedule(
            get_app("comd"), 1500.0, predefined_node_counts=(2,)
        )
        assert one.n_nodes == 2
        audit = mixed_clip.monitor.audits[-1]
        assert isinstance(audit.node_lo_w, float)
        assert isinstance(audit.node_hi_w, float)
        assert one.allocation.node_ranges_w is None
        assert "node_ranges_w" not in one.to_dict()["allocation"]

        both = mixed_clip.schedule(
            get_app("comd"), 1500.0, predefined_node_counts=(6,)
        )
        assert both.n_nodes == 6
        audit = mixed_clip.monitor.audits[-1]
        assert isinstance(audit.node_lo_w, tuple)
        assert len(audit.node_hi_w) == 6
        assert len(set(audit.node_hi_w)) == 2
        assert len(both.allocation.node_ranges_w) == 6
        mixed_clip.monitor.assert_clean()

    def test_mixed_schedule_executes(self, mixed_clip):
        decision, result = mixed_clip.run(get_app("comd"), 1600.0)
        assert result.performance > 0
        assert result.n_nodes == decision.n_nodes
        mixed_clip.monitor.assert_clean()

    def test_thread_count_fits_every_participating_slot(self, mixed_clip):
        spec = mixed_clip.engine.cluster.spec
        for budget in (1200.0, 2200.0):
            decision = mixed_clip.schedule(get_app("stream"), budget)
            limit = min(
                spec.node_specs[i].n_cores for i in range(decision.n_nodes)
            )
            assert decision.n_threads <= limit


class TestPerClassBundles:
    def test_one_bundle_per_hardware_class(self, mixed_clip):
        """Model triples fit once per (app, size, class), not per slot."""
        mixed_clip.schedule(get_app("comd"), 1500.0)
        pipeline = mixed_clip.pipeline
        entry = pipeline.ensure_knowledge(get_app("comd"))
        specs = pipeline.node_specs
        hw = pipeline.class_bundle(entry, specs[0])
        bw = pipeline.class_bundle(entry, specs[-1])
        assert hw is not bw
        # cached: a second lookup returns the same object
        assert pipeline.class_bundle(entry, specs[0]) is hw
        assert pipeline.class_bundle(entry, specs[-1]) is bw

    def test_class_ceilings_differ(self, mixed_clip):
        """Broadwell's 40-core sockets price power differently."""
        pipeline = mixed_clip.pipeline
        entry = pipeline.ensure_knowledge(get_app("comd"))
        specs = pipeline.node_specs
        n = pipeline.class_bundle(entry, specs[0]).recommender.unbounded_concurrency()
        hw_hi = (
            pipeline.class_bundle(entry, specs[0]).power_model.power_range(n).node_hi_w
        )
        bw_hi = (
            pipeline.class_bundle(entry, specs[-1]).power_model.power_range(n).node_hi_w
        )
        assert hw_hi != bw_hi


class TestClassPreservation:
    """Regression: degrade/recover rebuilds a slot from its own spec.

    The original code rebuilt replacement nodes from the cluster-wide
    single node spec; on a mixed cluster that silently swapped a
    degraded Broadwell slot for a Haswell one.
    """

    def test_degrade_keeps_broadwell_spec(self):
        cluster = SimulatedCluster.mixed_testbed()
        before = cluster.node(6).spec
        assert before.name == "broadwell"
        replacement = cluster.degrade_node(6, 1.2)
        assert replacement.spec == before
        assert cluster.node(6).spec == before

    def test_recover_keeps_broadwell_spec(self):
        cluster = SimulatedCluster.mixed_testbed()
        before = cluster.node(5).spec
        cluster.fail_node(5)
        recovered = cluster.recover_node(5)
        assert recovered.spec == before
        assert recovered.spec.name == "broadwell"

    def test_degrade_keeps_haswell_spec_on_mixed(self):
        cluster = SimulatedCluster.mixed_testbed()
        before = cluster.node(1).spec
        assert before.name == "haswell"
        assert cluster.degrade_node(1, 1.1).spec == before

    def test_mixed_node_accessor_raises(self):
        cluster = SimulatedCluster.mixed_testbed()
        with pytest.raises(SpecError):
            cluster.spec.node
