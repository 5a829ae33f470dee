"""Tests for fallible actuation and lying telemetry.

Covers the injectable :class:`ActuationPolicy` fault models, the
verified (retry + readback) cap-write path, the snapshot/rollback
machinery the runtime's transactional commits rely on, and the
telemetry corruption the watchdog has to see through.
"""

import pytest

from repro.errors import ActuationError
from repro.hw.actuation import PERFECT_ACTUATION, ActuationResult, FaultyActuation
from repro.hw.meter import PowerMeter, TelemetryFault
from repro.hw.power import PowerModel
from repro.hw.rapl import (
    CAP_TUPLE_DOMAINS,
    MAX_CAP_RETRIES,
    CapBank,
    Domain,
    RaplInterface,
)
from repro.hw.specs import haswell_node

NODE = haswell_node()


@pytest.fixture()
def rapl():
    return RaplInterface(PowerModel(NODE), CapBank(1), 0)


class TestActuationPolicies:
    def test_perfect_policy_passes_through(self):
        res = PERFECT_ACTUATION.apply("package", 100.0, None)
        assert res == ActuationResult("ok", 100.0)

    def test_drop_keeps_current_value(self):
        pol = FaultyActuation(seed=1, drop_prob=1.0)
        res = pol.apply("package", 100.0, 80.0)
        assert res.kind == "drop"
        assert res.enforced_w == pytest.approx(80.0)

    def test_partial_lands_halfway(self):
        pol = FaultyActuation(seed=1, partial_prob=1.0)
        res = pol.apply("package", 100.0, 80.0)
        assert res.kind == "partial"
        assert res.enforced_w == pytest.approx(90.0)

    def test_drift_scales_the_request(self):
        pol = FaultyActuation(seed=1, drift_prob=1.0, drift_frac=0.25)
        res = pol.apply("package", 100.0, None)
        assert res.kind == "drift"
        assert res.enforced_w == pytest.approx(125.0)

    def test_faults_are_seeded_and_reproducible(self):
        outcomes = []
        for _ in range(2):
            pol = FaultyActuation(seed=7, drop_prob=0.4)
            outcomes.append(
                [pol.apply("package", 100.0, 50.0).kind for _ in range(50)]
            )
        assert outcomes[0] == outcomes[1]
        assert "drop" in outcomes[0] and "ok" in outcomes[0]

    def test_reset_disarms_and_rewinds(self):
        pol = FaultyActuation(seed=7, drop_prob=1.0)
        assert pol.apply("package", 100.0, 50.0).kind == "drop"
        pol.reset()
        assert pol.apply("package", 100.0, 50.0).kind == "ok"


class TestFallibleSetCap:
    def test_dropped_write_reports_failure_and_keeps_old_cap(self, rapl):
        rapl.set_cap(Domain.PKG, 120.0)
        rapl.actuation = FaultyActuation(seed=1, drop_prob=1.0)
        assert rapl.set_cap(Domain.PKG, 90.0) is False
        assert rapl.domain(Domain.PKG).cap_w == pytest.approx(120.0)
        assert rapl.actuation_stats["dropped"] == 1

    def test_drifted_write_lies_on_readback(self, rapl):
        rapl.actuation = FaultyActuation(seed=1, drift_prob=1.0, drift_frac=0.2)
        assert rapl.set_cap(Domain.PKG, 100.0) is True
        reg = rapl.domain(Domain.PKG)
        # the register reads back the requested value...
        assert reg.cap_w == pytest.approx(100.0)
        # ...but the silicon enforces the drifted one
        assert reg.enforced_w == pytest.approx(120.0)
        assert rapl.actuation_stats["drifted"] == 1

    def test_clearing_a_cap_always_succeeds(self, rapl):
        rapl.actuation = FaultyActuation(seed=1, drop_prob=1.0)
        rapl.set_cap(Domain.PKG, 100.0)  # dropped, but cap was None anyway
        assert rapl.set_cap(Domain.PKG, None) is True
        assert rapl.domain(Domain.PKG).cap_w is None


class TestVerifiedWrites:
    def test_retries_through_transient_drops(self, rapl):
        pol = FaultyActuation(seed=3, drop_prob=0.5)
        rapl.actuation = pol
        retries = rapl.set_cap_verified(Domain.PKG, 95.0)
        assert rapl.domain(Domain.PKG).cap_w == pytest.approx(95.0)
        assert retries <= MAX_CAP_RETRIES
        stats = rapl.actuation_stats
        assert stats["verified"] == 1
        assert stats["retries"] == retries
        if retries:
            assert stats["backoff_s"] > 0.0

    def test_wedged_path_raises_typed_error(self, rapl):
        rapl.actuation = FaultyActuation(seed=3, drop_prob=1.0)
        with pytest.raises(ActuationError) as err:
            rapl.set_cap_verified(Domain.PKG, 95.0)
        assert err.value.domain == Domain.PKG.value
        assert err.value.requested_w == pytest.approx(95.0)

    def test_silent_drift_passes_readback(self, rapl):
        # drift is the failure mode verification *cannot* catch: the
        # register lies, so only measured power (the watchdog) sees it
        rapl.actuation = FaultyActuation(seed=3, drift_prob=1.0, drift_frac=0.3)
        retries = rapl.set_cap_verified(Domain.PKG, 100.0)
        assert retries == 0
        assert rapl.domain(Domain.PKG).enforced_w == pytest.approx(130.0)

    def test_write_caps_verified_covers_all_domains(self, rapl):
        rapl.write_caps_verified((100.0, 30.0))
        assert rapl.domain(Domain.PKG).cap_w == pytest.approx(100.0)
        assert rapl.domain(Domain.DRAM).cap_w == pytest.approx(30.0)
        assert CAP_TUPLE_DOMAINS[:2] == (Domain.PKG, Domain.DRAM)


class TestSnapshotRollback:
    def test_snapshot_round_trips_programmed_and_enforced(self, rapl):
        rapl.actuation = FaultyActuation(seed=1, drift_prob=1.0, drift_frac=0.2)
        rapl.set_cap(Domain.PKG, 100.0)
        snap = rapl.snapshot_caps()
        rapl.actuation = PERFECT_ACTUATION
        rapl.set_cap(Domain.PKG, 50.0)
        rapl.restore_caps(snap)
        reg = rapl.domain(Domain.PKG)
        assert reg.cap_w == pytest.approx(100.0)
        assert reg.enforced_w == pytest.approx(120.0)

    def test_force_caps_bypasses_the_fault_policy(self, rapl):
        rapl.actuation = FaultyActuation(seed=1, drop_prob=1.0)
        rapl.force_caps((88.0, 22.0))
        assert rapl.domain(Domain.PKG).cap_w == pytest.approx(88.0)
        assert rapl.domain(Domain.DRAM).cap_w == pytest.approx(22.0)
        assert rapl.actuation_stats["forced"] >= 1


class TestTelemetryFault:
    def test_noise_is_seeded_and_nonnegative(self):
        fault = TelemetryFault(seed=5, noise_frac=0.5)
        a = [fault.corrupt(100.0) for _ in range(20)]
        b_fault = TelemetryFault(seed=5, noise_frac=0.5)
        b = [b_fault.corrupt(100.0) for _ in range(20)]
        assert a == b
        assert all(v >= 0.0 for v in a)
        assert any(v != 100.0 for v in a)

    def test_drop_returns_none(self):
        fault = TelemetryFault(seed=5, drop_prob=1.0)
        assert fault.corrupt(100.0) is None

    def test_stale_freezes_the_first_value(self):
        fault = TelemetryFault(seed=5)
        fault.make_stale(2)
        assert fault.corrupt(100.0) == pytest.approx(100.0)
        assert fault.corrupt(250.0) == pytest.approx(100.0)  # frozen
        assert fault.corrupt(250.0) == pytest.approx(250.0)  # expired

    def test_meter_read_path_is_corrupted_but_trace_is_truthful(self):
        bank = CapBank(1)
        meter = PowerMeter(bank, 0)
        meter.record(100.0, 130.0, 1.0)
        truthful = meter.read_capped_power_w()
        meter.telemetry = TelemetryFault(seed=5, drop_prob=1.0)
        assert meter.read_capped_power_w() is None
        assert bank.capped_w[0] == pytest.approx(truthful)
        assert meter.energy_j == 130.0
