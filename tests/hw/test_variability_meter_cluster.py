"""Unit tests for variability, the power meter, and node/cluster glue."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SpecError
from repro.hw.cluster import SimulatedCluster
from repro.hw.meter import PowerMeter
from repro.hw.node import SimulatedNode
from repro.hw.rapl import CapBank, Domain
from repro.hw.specs import haswell_node, haswell_testbed
from repro.hw.variability import VariabilityModel


class TestVariability:
    def test_deterministic_in_seed(self):
        a = VariabilityModel(8, sigma=0.03, seed=5)
        b = VariabilityModel(8, sigma=0.03, seed=5)
        np.testing.assert_array_equal(a.factors, b.factors)

    def test_different_seeds_differ(self):
        a = VariabilityModel(8, sigma=0.03, seed=5)
        b = VariabilityModel(8, sigma=0.03, seed=6)
        assert not np.array_equal(a.factors, b.factors)

    def test_zero_sigma_is_homogeneous(self):
        m = VariabilityModel(8, sigma=0.0)
        np.testing.assert_array_equal(m.factors, np.ones(8))
        assert m.spread == pytest.approx(0.0)

    def test_truncation(self):
        m = VariabilityModel(1000, sigma=0.05, seed=1)
        assert np.all(m.factors >= 1 - 3 * 0.05 - 1e-12)
        assert np.all(m.factors <= 1 + 3 * 0.05 + 1e-12)

    def test_rejects_bad_params(self):
        with pytest.raises(SpecError):
            VariabilityModel(0)
        with pytest.raises(SpecError):
            VariabilityModel(4, sigma=0.6)

    @given(st.integers(min_value=1, max_value=64), st.integers())
    def test_spread_nonnegative(self, n, seed):
        m = VariabilityModel(n, sigma=0.03, seed=seed % 2**31)
        assert m.spread >= 0.0


def _meter() -> PowerMeter:
    return PowerMeter(CapBank(1), 0)


class TestPowerMeter:
    def test_energy_integration(self):
        meter = _meter()
        meter.record(120.0, 150.0 * 2, 2.0)
        meter.record(60.0, 90.0 * 1, 1.0)
        assert meter.elapsed_s == pytest.approx(3.0)
        assert meter.energy_j == pytest.approx(150 * 2 + 90 * 1)
        assert meter.read_capped_power_w() == 60.0  # the last interval

    def test_empty_meter(self):
        meter = _meter()
        assert meter.elapsed_s == meter.energy_j == 0.0
        assert meter.read_capped_power_w() == 0.0

    def test_zero_duration_ignored(self):
        meter = _meter()
        meter.record(100.0, 0.0, 0.0)
        assert meter.elapsed_s == 0.0
        assert meter.read_capped_power_w() == 0.0

    def test_reset(self):
        bank = CapBank(1)
        node = SimulatedNode(haswell_node(), bank=bank)
        node.meter.record(100.0, 100.0, 1.0)
        bank.clear(0)
        assert node.meter.elapsed_s == 0.0
        assert node.meter.energy_j == 0.0


class TestSimulatedNode:
    def test_composition(self):
        node = SimulatedNode(haswell_node(), node_id=3, efficiency=1.05)
        assert node.node_id == 3
        assert node.spec.n_cores == 24
        assert node.efficiency == pytest.approx(1.05)
        assert node.spec.name == "haswell"

    def test_set_power_caps(self):
        node = SimulatedNode(haswell_node())
        node.set_power_caps(150.0, 25.0)
        assert node.rapl.caps()[Domain.PKG] == pytest.approx(150.0)
        assert node.rapl.caps()[Domain.DRAM] == pytest.approx(25.0)

    def test_reset_clears_state(self):
        bank = CapBank(2)
        node = SimulatedNode(haswell_node(), node_id=1, bank=bank)
        node.set_power_caps(150.0, 25.0)
        node.meter.record(110.0, 150.0, 1.0)
        bank.clear(1)
        assert all(v is None for v in node.rapl.caps().values())
        assert node.meter.energy_j == 0.0


class TestSimulatedCluster:
    def test_testbed_shape(self):
        c = SimulatedCluster.testbed()
        assert c.n_nodes == 8
        assert len(c.nodes) == 8

    def test_nodes_carry_variability(self):
        c = SimulatedCluster.testbed()
        effs = [n.efficiency for n in c.nodes]
        np.testing.assert_allclose(effs, c.variability.factors)

    def test_node_lookup_bounds(self):
        c = SimulatedCluster.testbed()
        with pytest.raises(SpecError):
            c.node(8)

    def test_reset_all(self):
        c = SimulatedCluster.testbed()
        c.node(0).set_power_caps(100.0, 20.0)
        c.reset()
        assert c.node(0).rapl.caps()[Domain.PKG] is None

    def test_aggregates(self):
        spec = haswell_testbed()
        c = SimulatedCluster(spec)
        assert c.p_max_w == pytest.approx(spec.p_cluster_max_w)
