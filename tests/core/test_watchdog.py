"""Unit and property tests for the power-enforcement watchdog.

The watchdog's contract is behavioural, so beyond the example-based
unit tests a hypothesis suite drives it with randomly drawn drift and
sensor-noise scripts and checks the two properties that define it:

* within the guard band it never intervenes;
* after its corrections, every audited cap total stays at or below the
  facility budget (plus the guard band the breach test allows).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.knowledge import KnowledgeDB
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.core.watchdog import (
    DEFAULT_GUARD_BAND_FRAC,
    PowerEnforcementWatchdog,
)
from repro.hw.actuation import FaultyActuation
from repro.hw.cluster import SimulatedCluster
from repro.hw.meter import PowerMeter, TelemetryFault
from repro.hw.rapl import CapBank
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app

# hypothesis forbids function-scoped fixtures inside @given, so the
# heavyweight scheduler is module-cached and mutable state (cluster,
# monitor) is reset per example
_STATE: dict = {}


def _runtime() -> PowerBoundedRuntime:
    if "clip" not in _STATE:
        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        from repro.analysis.experiments import build_trained_inflection

        _STATE["clip"] = ClipScheduler(
            engine,
            inflection=build_trained_inflection(engine),
            knowledge=KnowledgeDB(),
        )
    clip = _STATE["clip"]
    clip.engine.cluster.reset()
    for node_id in clip.engine.cluster.failed_node_ids:
        clip.engine.cluster.recover_node(node_id)
    clip.monitor.reset()
    return PowerBoundedRuntime(clip)


@pytest.fixture()
def runtime():
    return _runtime()


class TestObservation:
    def test_no_intervention_without_faults(self, runtime):
        dog = PowerEnforcementWatchdog(runtime)
        job = runtime.launch(get_app("comd"), 1200.0, n_nodes=4)
        runtime.advance(job, 10)
        assert runtime.watchdog is dog
        obs = dog.observations[-1]
        assert not obs.breach
        assert obs.action == "none"
        assert obs.measured_w <= obs.allowed_w + obs.guard_band_w

    def test_one_bank_gather_per_observation(self, runtime, monkeypatch):
        dog = PowerEnforcementWatchdog(runtime)
        job = runtime.launch(get_app("comd"), 1200.0, n_nodes=4)
        gathers = []
        gather = CapBank.read_capped_w

        def counted(bank, rows):
            gathers.append(list(rows))
            return gather(bank, rows)

        def per_node_read(meter):
            raise AssertionError("the watchdog read one meter at a time")

        monkeypatch.setattr(CapBank, "read_capped_w", counted)
        monkeypatch.setattr(PowerMeter, "read_capped_power_w", per_node_read)
        runtime.advance(job, 10)
        assert len(gathers) == len(dog.observations) > 0
        assert all(rows == list(job.node_ids) for rows in gathers)

    def test_blind_when_every_sensor_drops(self, runtime):
        dog = PowerEnforcementWatchdog(runtime)
        job = runtime.launch(get_app("comd"), 1200.0, n_nodes=4)
        for node_id in job.node_ids:
            runtime.scheduler.engine.cluster.node(node_id).meter.telemetry = (
                TelemetryFault(seed=1, drop_prob=1.0)
            )
        runtime.advance(job, 10)
        obs = dog.observations[-1]
        assert obs.measured_w is None
        assert obs.action == "blind"
        assert not obs.breach

    def test_drift_breach_walks_the_escalation_ladder(self, runtime):
        dog = PowerEnforcementWatchdog(runtime)
        # 700 W binds comd's caps (its unthrottled 4-node draw is ~940 W),
        # so drifted enforcement genuinely overdraws the budget
        job = runtime.launch(
            get_app("comd"), 700.0, n_nodes=4, allow_concurrency_change=True
        )
        for node_id in job.node_ids:
            rapl = runtime.scheduler.engine.cluster.node(node_id).rapl
            rapl.actuation = FaultyActuation(
                seed=1, drift_prob=1.0, drift_frac=0.25
            )
        runtime.reissue_caps(job)  # arm the drift on current caps
        while not job.done and len(dog.observations) < 12:
            runtime.advance(job, 5)
        actions = [o.action for o in dog.observations]
        # reissue fires first (and cannot fix drift), then the derated
        # re-coordination pulls measured power back inside the band
        assert "reissue" in actions
        assert "recoordinate" in actions
        assert actions[-1] == "none"
        runtime.monitor.assert_clean()

    def test_emergency_when_recoordination_infeasible(self, runtime):
        dog = PowerEnforcementWatchdog(runtime)
        # pinned threads just above the feasibility floor leave no
        # re-plan slack: heavy drift forces the ladder all the way to
        # the emergency floor
        job = runtime.launch(get_app("comd"), 450.0, n_nodes=4, n_threads=24)
        for node_id in job.node_ids:
            rapl = runtime.scheduler.engine.cluster.node(node_id).rapl
            rapl.actuation = FaultyActuation(
                seed=1, drift_prob=1.0, drift_frac=0.5
            )
        runtime.reissue_caps(job)
        while not job.done and len(dog.observations) < 12:
            runtime.advance(job, 5)
        actions = [o.action for o in dog.observations]
        assert "emergency" in actions
        if actions.index("emergency") < len(actions) - 1:
            after = actions[actions.index("emergency") + 1]
            assert after in ("emergency.hold", "none")
        runtime.monitor.assert_clean()

    def test_report_counts_episodes(self, runtime):
        dog = PowerEnforcementWatchdog(runtime)
        job = runtime.launch(
            get_app("comd"), 700.0, n_nodes=4, allow_concurrency_change=True
        )
        for node_id in job.node_ids:
            rapl = runtime.scheduler.engine.cluster.node(node_id).rapl
            rapl.actuation = FaultyActuation(
                seed=1, drift_prob=1.0, drift_frac=0.25
            )
        runtime.reissue_caps(job)
        while not job.done:
            runtime.advance(job, 5)
        rep = dog.report()
        assert rep["observations"] == len(dog.observations)
        assert rep["breaches"] >= 1
        assert rep["episodes"] >= 1
        assert rep["max_breach_segments"] >= 1
        assert rep["mean_breach_segments"] > 0


class TestWatchdogProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        drift_frac=st.floats(min_value=0.08, max_value=0.45),
        noise_frac=st.floats(min_value=0.0, max_value=0.04),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_corrections_restore_the_budget_invariant(
        self, drift_frac, noise_frac, seed
    ):
        runtime = _runtime()
        dog = PowerEnforcementWatchdog(runtime)
        budget_w = 700.0  # binds comd's caps, so drift truly overdraws
        job = runtime.launch(
            get_app("comd"), budget_w, n_nodes=4,
            allow_concurrency_change=True,
        )
        cluster = runtime.scheduler.engine.cluster
        for node_id in job.node_ids:
            cluster.node(node_id).rapl.actuation = FaultyActuation(
                seed=seed, drift_prob=1.0, drift_frac=drift_frac
            )
            if noise_frac > 0.0:
                cluster.node(node_id).meter.telemetry = TelemetryFault(
                    seed=seed + 1, noise_frac=noise_frac
                )
        runtime.reissue_caps(job)
        while not job.done:
            runtime.advance(job, 5)
        runtime.monitor.assert_clean()
        # every post-correction audited plan stays within budget + band
        band = 1.0 + DEFAULT_GUARD_BAND_FRAC + 1e-9
        for audit in runtime.monitor.audits:
            if audit.source.startswith("watchdog"):
                assert audit.total_capped_w <= budget_w * band

    @settings(max_examples=12, deadline=None)
    @given(
        noise_frac=st.floats(min_value=0.0, max_value=0.015),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_no_intervention_within_the_guard_band(self, noise_frac, seed):
        # honest actuation and sensor jitter well inside the band:
        # the watchdog must never touch the job
        runtime = _runtime()
        dog = PowerEnforcementWatchdog(runtime)
        job = runtime.launch(
            get_app("comd"), 1200.0, n_nodes=4,
            allow_concurrency_change=True,
        )
        if noise_frac > 0.0:
            cluster = runtime.scheduler.engine.cluster
            for node_id in job.node_ids:
                cluster.node(node_id).meter.telemetry = TelemetryFault(
                    seed=seed, noise_frac=noise_frac
                )
        while not job.done:
            runtime.advance(job, 5)
        assert all(o.action in ("none", "blind") for o in dog.observations)
        assert dog.report()["breaches"] == 0
