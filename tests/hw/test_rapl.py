"""Unit and property tests for the RAPL layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PowerDomainError
from repro.hw.power import PowerModel
from repro.hw.rapl import (
    ENERGY_UNIT_J,
    ENERGY_WRAP,
    MIN_DUTY_CYCLE,
    CapBank,
    Domain,
    RaplDomain,
    RaplInterface,
)
from repro.hw.specs import haswell_node
from repro.units import ghz

NODE = haswell_node()


@pytest.fixture()
def rapl():
    return RaplInterface(PowerModel(NODE), CapBank(1), 0)


def _domain(domain: Domain) -> RaplDomain:
    """One domain's registers on a node of its own (PKG max 240 W)."""
    return RaplInterface(PowerModel(NODE), CapBank(1), 0).domain(domain)


class TestRaplDomain:
    def test_cap_defaults_to_none(self):
        reg = _domain(Domain.PKG)
        assert reg.cap_w is None
        assert reg.effective_cap_w == pytest.approx(240.0)

    def test_cap_clipped_to_domain_max(self):
        reg = _domain(Domain.PKG)
        reg.set_cap(500.0)
        assert reg.effective_cap_w == pytest.approx(240.0)

    def test_energy_accumulates(self):
        reg = _domain(Domain.PKG)
        reg.accumulate(100.0, 2.0)
        assert reg.energy_j == pytest.approx(200.0)

    def test_register_wraps(self):
        reg = _domain(Domain.PKG)
        # enough energy to wrap the 32-bit register at least once
        joules = ENERGY_WRAP * ENERGY_UNIT_J * 1.25
        reg.accumulate(joules, 1.0)
        assert reg.read_energy_register() < ENERGY_WRAP
        assert reg.energy_j == pytest.approx(joules)

    def test_register_monotone_between_wraps(self):
        reg = _domain(Domain.DRAM)
        prev = reg.read_energy_register()
        for _ in range(5):
            reg.accumulate(20.0, 0.5)
            cur = reg.read_energy_register()
            assert cur > prev
            prev = cur

    def test_clear_cap(self):
        reg = _domain(Domain.PKG)
        reg.set_cap(100.0)
        reg.set_cap(None)
        assert reg.cap_w is None


class TestResolve:
    def test_uncapped_runs_fast(self, rapl):
        op = rapl.resolve([12, 12], 0.5, [3e10, 3e10])
        assert op.frequency_hz >= ghz(2.3)
        assert not op.mem_throttled
        assert op.duty_cycle == 1.0

    def test_factory_pl1_limits_allcore_turbo(self, rapl):
        # with full activity, 24 cores cannot all hold max turbo under
        # the default 240 W PL1
        op = rapl.resolve([12, 12], 1.0, [1e10, 1e10])
        assert op.frequency_hz < NODE.socket.f_max
        assert op.pkg_power_w <= 2 * NODE.socket.tdp_w * (1 + 1e-9)

    def test_pkg_cap_reduces_frequency(self, rapl):
        free = rapl.resolve([12, 12], 0.9, [3e10, 3e10])
        rapl.set_cap(Domain.PKG, 120.0)
        capped = rapl.resolve([12, 12], 0.9, [3e10, 3e10])
        assert capped.frequency_hz < free.frequency_hz
        assert capped.cpu_throttled
        assert capped.pkg_power_w <= 120.0 * (1 + 1e-9)

    def test_dram_cap_limits_bandwidth(self, rapl):
        rapl.set_cap(Domain.DRAM, 12.0)
        op = rapl.resolve([12, 12], 0.5, [5e10, 5e10])
        assert op.mem_throttled
        assert op.dram_power_w <= 12.0 * (1 + 1e-9)
        assert all(b < 5e10 for b in op.bandwidth_per_socket)

    def test_dram_cap_not_binding(self, rapl):
        rapl.set_cap(Domain.DRAM, 36.0)
        op = rapl.resolve([12, 12], 0.5, [1e9, 1e9])
        assert not op.mem_throttled

    def test_duty_cycling_below_pstate_floor(self, rapl):
        # cap below what 24 active cores draw at f_min but above static
        rapl.set_cap(Domain.PKG, 70.0)
        op = rapl.resolve([12, 12], 1.0, [1e9, 1e9])
        assert op.frequency_hz == pytest.approx(NODE.socket.f_min)
        assert MIN_DUTY_CYCLE <= op.duty_cycle < 1.0
        assert op.effective_frequency_hz < NODE.socket.f_min
        assert op.pkg_power_w <= 70.0 * (1 + 1e-6)

    def test_cap_below_static_is_violated(self, rapl):
        rapl.set_cap(Domain.PKG, 30.0)
        op = rapl.resolve([12, 12], 1.0, [1e9, 1e9])
        assert op.cpu_cap_violated
        assert op.duty_cycle == pytest.approx(MIN_DUTY_CYCLE)
        assert op.pkg_power_w > 30.0

    def test_dram_cap_below_base_clamps(self, rapl):
        rapl.set_cap(Domain.DRAM, 2.0)
        op = rapl.resolve([12, 12], 0.5, [5e10, 5e10])
        assert op.mem_cap_violated
        assert op.dram_power_w > 2.0

    def test_frequency_pin_respected(self, rapl):
        op = rapl.resolve([12, 12], 0.3, [1e10, 1e10], demanded_frequency_hz=ghz(1.5))
        assert op.frequency_hz == pytest.approx(ghz(1.5))

    def test_throttle_events_counted(self, rapl):
        rapl.set_cap(Domain.PKG, 100.0)
        before = rapl.domain(Domain.PKG).throttle_events
        rapl.resolve([12, 12], 1.0, [1e9, 1e9])
        assert rapl.domain(Domain.PKG).throttle_events == before + 1

    def test_rejects_wrong_socket_count(self, rapl):
        with pytest.raises(PowerDomainError):
            rapl.resolve([12], 0.5, [1e10, 1e10])
        with pytest.raises(PowerDomainError):
            rapl.resolve([12, 12], 0.5, [1e10])

    def test_clear_caps(self, rapl):
        rapl.set_cap(Domain.PKG, 100.0)
        rapl.set_cap(Domain.DRAM, 20.0)
        for d in rapl.caps():
            rapl.set_cap(d, None)
        assert all(v is None for v in rapl.caps().values())

    @settings(max_examples=60)
    @given(
        cap=st.floats(min_value=40.0, max_value=260.0),
        act=st.floats(min_value=0.05, max_value=1.0),
        n1=st.integers(min_value=1, max_value=12),
        n2=st.integers(min_value=0, max_value=12),
    )
    def test_cap_respected_unless_flagged(self, cap, act, n1, n2):
        rapl = RaplInterface(PowerModel(NODE), CapBank(1), 0)
        rapl.set_cap(Domain.PKG, cap)
        op = rapl.resolve([n1, n2], act, [1e10, 1e10])
        if not op.cpu_cap_violated:
            assert op.pkg_power_w <= cap * (1 + 1e-6)

    @settings(max_examples=40)
    @given(
        cap=st.floats(min_value=9.0, max_value=40.0),
        bw=st.floats(min_value=0.0, max_value=6e10),
    )
    def test_dram_cap_respected_unless_flagged(self, cap, bw):
        rapl = RaplInterface(PowerModel(NODE), CapBank(1), 0)
        rapl.set_cap(Domain.DRAM, cap)
        op = rapl.resolve([12, 12], 0.5, [bw, bw])
        if not op.mem_cap_violated:
            assert op.dram_power_w <= cap * (1 + 1e-6)


class TestEnergyAccounting:
    def test_accumulate_integrates_operating_point(self, rapl):
        op = rapl.resolve([12, 12], 0.8, [3e10, 3e10])
        rapl.accumulate(op, 10.0)
        assert rapl.energy_j(Domain.PKG) == pytest.approx(op.pkg_power_w * 10.0)
        assert rapl.energy_j(Domain.DRAM) == pytest.approx(op.dram_power_w * 10.0)
