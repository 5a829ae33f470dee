"""Tests for node failure state and the scripted fault injector."""

import numpy as np
import pytest

from repro.core.coordination import measure_node_factors
from repro.errors import (
    NodeFailureError,
    RuntimeCrashError,
    SchedulingError,
    SpecError,
)
from repro.hw.actuation import PERFECT_ACTUATION
from repro.hw.rapl import Domain
from repro.sim.engine import ExecutionConfig
from repro.sim.faults import FaultEvent, FaultInjector
from repro.workloads.apps import get_app


class TestClusterFailureState:
    def test_fail_marks_node_unavailable(self, cluster):
        cluster.fail_node(3)
        assert not cluster.is_available(3)
        assert cluster.failed_node_ids == (3,)
        assert len(cluster.available_node_ids) == cluster.n_nodes - 1
        assert 3 not in cluster.available_node_ids

    def test_recover_restores_service(self, cluster):
        old_eff = cluster.node(3).efficiency
        cluster.fail_node(3)
        node = cluster.recover_node(3)
        assert cluster.is_available(3)
        assert cluster.failed_node_ids == ()
        # same silicon returns: the efficiency factor survives the reboot
        assert node.efficiency == pytest.approx(old_eff)

    def test_recover_unfailed_node_rejected(self, cluster):
        with pytest.raises(NodeFailureError):
            cluster.recover_node(0)

    def test_bad_node_ids_rejected(self, cluster):
        with pytest.raises(SpecError):
            cluster.fail_node(99)
        with pytest.raises(SpecError):
            cluster.recover_node(-1)

    def test_engine_rejects_failed_participant(self, engine):
        engine.cluster.fail_node(1)
        with pytest.raises(NodeFailureError):
            engine.run(
                get_app("comd"),
                ExecutionConfig(n_nodes=4, n_threads=8, node_ids=(0, 1, 2, 3)),
            )
        # default node selection (first n) hits the failed node too
        with pytest.raises(NodeFailureError):
            engine.run(get_app("comd"), ExecutionConfig(n_nodes=4, n_threads=8))

    def test_engine_runs_on_survivors(self, engine):
        engine.cluster.fail_node(1)
        result = engine.run(
            get_app("comd"),
            ExecutionConfig(
                n_nodes=3, n_threads=8, node_ids=(0, 2, 3), iterations=2
            ),
        )
        assert result.total_time_s > 0

    def test_calibration_skips_failed_nodes(self, engine):
        engine.cluster.fail_node(2)
        factors = measure_node_factors(engine)
        assert len(factors) == engine.cluster.n_nodes
        assert factors[2] == pytest.approx(1.0)  # neutral placeholder
        assert np.all(np.isfinite(factors))

    def test_calibration_with_everything_failed_rejected(self, engine):
        for i in range(engine.cluster.n_nodes):
            engine.cluster.fail_node(i)
        with pytest.raises(SchedulingError):
            measure_node_factors(engine)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(SchedulingError):
            FaultEvent(at_s=-1.0, action="fail_node", node_id=0)
        with pytest.raises(SchedulingError):
            FaultEvent(at_s=0.0, action="meteor_strike")
        with pytest.raises(SchedulingError):
            FaultEvent(at_s=0.0, action="fail_node")  # node_id missing
        with pytest.raises(SchedulingError):
            FaultEvent(at_s=0.0, action="degrade_node", node_id=0)
        for bad in (-5.0, 0.0, float("nan"), float("inf"), None):
            with pytest.raises(SchedulingError):
                FaultEvent(at_s=0.0, action="set_budget", budget_w=bad)

    def test_describe_mentions_the_action(self):
        assert "fails" in FaultEvent(1.0, "fail_node", node_id=2).describe()
        assert "1200" in FaultEvent(1.0, "set_budget", budget_w=1200.0).describe()


class TestFaultInjector:
    def _script(self, cluster):
        return FaultInjector(
            cluster,
            [
                FaultEvent(at_s=5.0, action="set_budget", budget_w=1000.0),
                FaultEvent(at_s=1.0, action="fail_node", node_id=2),
                FaultEvent(at_s=9.0, action="recover_node", node_id=2),
            ],
            budget_w=1600.0,
        )

    def test_events_fire_in_time_order(self, cluster):
        injector = self._script(cluster)
        assert injector.budget_w == 1600.0
        fired = injector.advance_to(0.5)
        assert fired == []  # nothing due yet
        fired = injector.advance_to(6.0)
        assert [e.action for e in fired] == ["fail_node", "set_budget"]
        assert injector.budget_w == 1000.0
        assert not cluster.is_available(2)
        assert not injector.exhausted

    def test_pending_and_exhausted(self, cluster):
        injector = self._script(cluster)
        injector.advance_to(100.0)
        assert injector.exhausted
        assert injector.pending == ()
        assert cluster.is_available(2)  # recovery fired last
        assert [e.at_s for e in injector.fired] == [1.0, 5.0, 9.0]

    def test_fire_next_ignores_timestamps(self, cluster):
        injector = self._script(cluster)
        event = injector.fire_next()
        assert event.action == "fail_node"
        assert not cluster.is_available(2)

    def test_fire_next_on_empty_script_rejected(self, cluster):
        injector = FaultInjector(cluster, [])
        with pytest.raises(SchedulingError):
            injector.fire_next()

    def test_degrade_event_reshapes_node(self, cluster):
        before = cluster.node(1).efficiency
        injector = FaultInjector(
            cluster,
            [FaultEvent(at_s=0.0, action="degrade_node", node_id=1, factor=1.3)],
        )
        injector.advance_to(0.0)
        assert cluster.node(1).efficiency == pytest.approx(before * 1.3)

    def test_same_timestamp_preserves_script_order(self, cluster):
        # regression: two events at the same instant must fire in the
        # order they were written, not in an arbitrary sort order —
        # fail-then-rebudget and rebudget-then-fail are different
        # stories and dataclass comparison on the tiebreak used to
        # blow up (FaultEvent is not orderable)
        injector = FaultInjector(
            cluster,
            [
                FaultEvent(at_s=2.0, action="fail_node", node_id=1),
                FaultEvent(at_s=2.0, action="set_budget", budget_w=900.0),
            ],
            budget_w=1600.0,
        )
        fired = injector.advance_to(2.0)
        assert [e.action for e in fired] == ["fail_node", "set_budget"]

        cluster.recover_node(1)
        reversed_order = FaultInjector(
            cluster,
            [
                FaultEvent(at_s=2.0, action="set_budget", budget_w=900.0),
                FaultEvent(at_s=2.0, action="fail_node", node_id=1),
            ],
            budget_w=1600.0,
        )
        fired = reversed_order.advance_to(2.0)
        assert [e.action for e in fired] == ["set_budget", "fail_node"]


class TestEnforcementFaultEvents:
    def test_new_action_validation(self):
        with pytest.raises(SchedulingError):
            FaultEvent(at_s=0.0, action="cap_write_fail", factor=0.0)
        with pytest.raises(SchedulingError):
            FaultEvent(at_s=0.0, action="cap_write_fail", factor=1.5)
        with pytest.raises(SchedulingError):
            FaultEvent(at_s=0.0, action="cap_drift", factor=0.0)
        with pytest.raises(SchedulingError):
            FaultEvent(at_s=0.0, action="sensor_noise", factor=-0.1)
        with pytest.raises(SchedulingError):
            FaultEvent(at_s=0.0, action="sensor_stale", factor=0.0)

    def test_new_action_describe(self):
        assert "drop" in FaultEvent(
            0.0, "cap_write_fail", factor=0.5
        ).describe()
        assert "drifts" in FaultEvent(0.0, "cap_drift", factor=0.2).describe()
        assert "noise" in FaultEvent(
            0.0, "sensor_noise", node_id=3, factor=0.1
        ).describe()
        assert "crash" in FaultEvent(0.0, "crash").describe()

    def test_cap_write_fail_installs_faulty_actuation(self, cluster):
        injector = FaultInjector(
            cluster,
            [FaultEvent(at_s=0.0, action="cap_write_fail", node_id=2,
                        factor=1.0, seed=9)],
        )
        injector.advance_to(0.0)
        assert cluster.node(2).rapl.set_cap(Domain.PKG, 100.0) is False
        # untargeted nodes keep perfect actuation
        assert cluster.node(0).rapl.set_cap(Domain.PKG, 100.0) is True

    def test_cap_drift_targets_all_nodes_by_default(self, cluster):
        injector = FaultInjector(
            cluster,
            [FaultEvent(at_s=0.0, action="cap_drift", factor=0.25)],
        )
        injector.advance_to(0.0)
        for node_id in range(cluster.n_nodes):
            rapl = cluster.node(node_id).rapl
            rapl.set_cap(Domain.PKG, 100.0)
            assert rapl.domain(Domain.PKG).enforced_w == pytest.approx(125.0)

    def test_sensor_faults_install_telemetry(self, cluster):
        injector = FaultInjector(
            cluster,
            [
                FaultEvent(at_s=0.0, action="sensor_noise", node_id=1,
                           factor=0.1, seed=4),
                FaultEvent(at_s=0.0, action="sensor_stale", node_id=1,
                           factor=2),
            ],
        )
        injector.advance_to(0.0)
        fault = cluster.node(1).meter.telemetry
        assert fault is not None
        assert fault.corrupt(100.0) == pytest.approx(100.0)  # frozen first
        assert cluster.node(0).meter.telemetry is None

    def test_cluster_reset_clears_installed_faults(self, cluster):
        injector = FaultInjector(
            cluster,
            [FaultEvent(at_s=0.0, action="cap_write_fail", factor=1.0)],
        )
        injector.advance_to(0.0)
        cluster.reset()
        assert cluster.node(0).rapl.set_cap(Domain.PKG, 100.0) is True

    def test_cap_faults_reach_a_node_replaced_by_recovery(self, cluster):
        injector = FaultInjector(
            cluster,
            [
                FaultEvent(at_s=0.0, action="cap_write_fail", node_id=1,
                           factor=1.0, seed=9),
                FaultEvent(at_s=1.0, action="fail_node", node_id=1),
                FaultEvent(at_s=2.0, action="recover_node", node_id=1),
                FaultEvent(at_s=3.0, action="cap_write_fail", node_id=1,
                           factor=1.0, seed=9),
                FaultEvent(at_s=4.0, action="degrade_node", node_id=1,
                           factor=1.1),
                FaultEvent(at_s=5.0, action="cap_drift", node_id=1,
                           factor=0.25, seed=9),
            ],
        )
        injector.advance_to(2.0)
        # the recovered node is a fresh one: perfect until the next event
        assert cluster.node(1).rapl.set_cap(Domain.PKG, 100.0) is True
        injector.advance_to(3.0)
        rapl = cluster.node(1).rapl
        assert rapl.actuation is not PERFECT_ACTUATION
        assert cluster.cap_bank.faulty[1]
        assert rapl.set_cap(Domain.PKG, 100.0) is False
        injector.advance_to(5.0)
        # degrading replaced the node again; the drift lands on the new one
        rapl = cluster.node(1).rapl
        assert rapl.actuation.drift_frac == 0.25
        assert rapl.actuation.drop_prob == 0.0
        rapl.set_cap(Domain.PKG, 100.0)
        assert rapl.domain(Domain.PKG).enforced_w == pytest.approx(125.0)

    def test_sensor_faults_reach_a_node_replaced_by_recovery(self, cluster):
        injector = FaultInjector(
            cluster,
            [
                FaultEvent(at_s=0.0, action="sensor_noise", node_id=1,
                           factor=0.1, seed=4),
                FaultEvent(at_s=1.0, action="fail_node", node_id=1),
                FaultEvent(at_s=2.0, action="recover_node", node_id=1),
                FaultEvent(at_s=3.0, action="sensor_stale", node_id=1,
                           factor=2, seed=4),
            ],
        )
        injector.advance_to(2.0)
        assert cluster.node(1).meter.telemetry is None
        injector.advance_to(3.0)
        fault = cluster.node(1).meter.telemetry
        assert fault is not None
        # a fresh fault: the stale read, without the noise of the
        # replaced node's fault
        assert fault.noise_frac == 0.0
        assert fault.corrupt(100.0) == pytest.approx(100.0)
        assert fault.corrupt(50.0) == pytest.approx(100.0)

    def test_crash_records_itself_before_raising(self, cluster):
        injector = FaultInjector(
            cluster,
            [
                FaultEvent(at_s=1.0, action="crash"),
                FaultEvent(at_s=2.0, action="set_budget", budget_w=900.0),
            ],
        )
        with pytest.raises(RuntimeCrashError):
            injector.advance_to(5.0)
        # the crash advanced the cursor past itself: a restored runtime
        # resuming the same script continues with the *next* event
        assert [e.action for e in injector.fired] == ["crash"]
        fired = injector.advance_to(5.0)
        assert [e.action for e in fired] == ["set_budget"]
