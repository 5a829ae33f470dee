"""Unit, integration, and property tests for the execution engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.hw.cluster import SimulatedCluster
from repro.hw.numa import AffinityKind
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import get_app


@pytest.fixture()
def comd():
    return get_app("comd")


@pytest.fixture()
def spmz():
    return get_app("sp-mz.C")


class TestConfigValidation:
    def test_rejects_zero_nodes(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=0, n_threads=4)

    def test_rejects_zero_threads(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=1, n_threads=0)

    def test_rejects_mismatched_per_node_caps(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=2, n_threads=4, per_node_caps=((100.0, 20.0),))

    def test_rejects_mismatched_node_ids(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=2, n_threads=4, node_ids=(0,))

    def test_rejects_duplicate_node_ids(self, engine, comd):
        """A node listed twice would be capped twice (the last rank's
        caps winning) and have its energy counted twice."""
        with pytest.raises(SchedulingError, match="distinct"):
            ExecutionConfig(n_nodes=2, n_threads=12, node_ids=(0, 0))
        with pytest.raises(SchedulingError, match="distinct"):
            ExecutionConfig(n_nodes=3, n_threads=4, node_ids=(2, 5, 2))
        # distinct ids in any order stay valid
        cfg = ExecutionConfig(n_nodes=2, n_threads=12, node_ids=(5, 0))
        assert [n.node_id for n in engine.run(comd, cfg).nodes] == [5, 0]

    def test_caps_for_uniform(self):
        cfg = ExecutionConfig(n_nodes=2, n_threads=4, pkg_cap_w=100.0, dram_cap_w=20.0)
        assert cfg.caps_for(0) == (100.0, 20.0)
        assert cfg.caps_for(1) == (100.0, 20.0)

    def test_caps_for_per_node(self):
        cfg = ExecutionConfig(
            n_nodes=2, n_threads=4, per_node_caps=((100.0, 20.0), (110.0, 25.0))
        )
        assert cfg.caps_for(1) == (110.0, 25.0)


class TestRunBasics:
    def test_result_shape(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=4, n_threads=12, iterations=5))
        assert r.n_nodes == 4
        assert len(r.nodes) == 4
        assert r.iterations == 5
        assert r.total_time_s == pytest.approx(5 * r.t_step_s)
        assert r.performance == pytest.approx(5 / r.total_time_s)

    def test_rejects_too_many_nodes(self, engine, comd):
        with pytest.raises(SchedulingError):
            engine.run(comd, ExecutionConfig(n_nodes=9, n_threads=4))

    def test_rejects_too_many_threads(self, engine, comd):
        with pytest.raises(SchedulingError):
            engine.run(comd, ExecutionConfig(n_nodes=1, n_threads=25))

    def test_deterministic(self, comd):
        r1 = ExecutionEngine(SimulatedCluster.testbed(), seed=1).run(
            comd, ExecutionConfig(n_nodes=4, n_threads=12, iterations=3)
        )
        r2 = ExecutionEngine(SimulatedCluster.testbed(), seed=1).run(
            comd, ExecutionConfig(n_nodes=4, n_threads=12, iterations=3)
        )
        assert r1.total_time_s == r2.total_time_s
        assert r1.nodes[0].events.event1 == r2.nodes[0].events.event1

    def test_node_selection(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(n_nodes=2, n_threads=12, node_ids=(5, 7), iterations=2),
        )
        assert [n.node_id for n in r.nodes] == [5, 7]

    def test_affinity_override(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=1, n_threads=8, affinity=AffinityKind.COMPACT, iterations=2
            ),
        )
        assert r.affinity == "compact"


class TestPowerBehaviour:
    def test_caps_respected(self, engine, spmz):
        r = engine.run(
            spmz,
            ExecutionConfig(
                n_nodes=4, n_threads=24, pkg_cap_w=150.0, dram_cap_w=25.0, iterations=2
            ),
        )
        for rec in r.nodes:
            op = rec.operating_point
            if not op.cpu_cap_violated:
                assert op.pkg_power_w <= 150.0 * (1 + 1e-6)
            if not op.mem_cap_violated:
                assert op.dram_power_w <= 25.0 * (1 + 1e-6)

    def test_tighter_cap_never_faster(self, engine, comd):
        free = engine.run(
            comd, ExecutionConfig(n_nodes=4, n_threads=24, iterations=2)
        )
        capped = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=4, n_threads=24, pkg_cap_w=120.0, dram_cap_w=20.0, iterations=2
            ),
        )
        assert capped.performance <= free.performance * (1 + 1e-9)

    def test_duty_cycling_under_starved_cap(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=1, n_threads=24, pkg_cap_w=65.0, dram_cap_w=20.0, iterations=2
            ),
        )
        op = r.nodes[0].operating_point
        assert op.duty_cycle < 1.0
        assert op.effective_frequency_hz < engine.cluster.spec.node.socket.f_min

    def test_energy_consistent_with_avg_power(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=4, n_threads=12, iterations=3))
        assert r.energy_j == pytest.approx(r.avg_power_w * r.total_time_s)

    def test_rapl_counters_accumulate(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=1, n_threads=12, iterations=3))
        node = engine.cluster.node(0)
        from repro.hw.rapl import Domain

        assert node.rapl.energy_j(Domain.PKG) > 0
        assert node.rapl.energy_j(Domain.DRAM) > 0

    def test_meter_records_run(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=1, n_threads=12, iterations=3))
        meter = engine.cluster.node(0).meter
        assert meter.elapsed_s == pytest.approx(r.total_time_s)

    def test_per_node_caps_differentiate(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=2,
                n_threads=24,
                per_node_caps=((110.0, 25.0), (190.0, 25.0)),
                iterations=2,
            ),
        )
        f0 = r.nodes[0].operating_point.frequency_hz
        f1 = r.nodes[1].operating_point.frequency_hz
        assert f1 > f0


class TestClusterSemantics:
    def test_slowest_node_paces_step(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=8, n_threads=24, iterations=2))
        assert r.t_step_s == pytest.approx(
            max(n.t_iter_s for n in r.nodes) + r.comm_s
        )

    def test_variability_creates_imbalance_under_cap(self, engine, comd):
        r = engine.run(
            comd,
            ExecutionConfig(
                n_nodes=8, n_threads=24, pkg_cap_w=130.0, dram_cap_w=20.0, iterations=2
            ),
        )
        assert r.imbalance > 1.0

    def test_more_nodes_faster_for_scalable_app(self, engine, comd):
        r2 = engine.run(comd, ExecutionConfig(n_nodes=2, n_threads=24, iterations=2))
        r8 = engine.run(comd, ExecutionConfig(n_nodes=8, n_threads=24, iterations=2))
        assert r8.performance > r2.performance

    def test_comm_cost_included(self, engine):
        halo = get_app("bt-mz.C")
        r = engine.run(halo, ExecutionConfig(n_nodes=8, n_threads=12, iterations=2))
        assert r.comm_s > 0

    def test_phase_thread_override_slows(self, engine):
        bt = get_app("bt-mz.C")
        base = engine.run(bt, ExecutionConfig(n_nodes=1, n_threads=24, iterations=2))
        forced = engine.run(
            bt,
            ExecutionConfig(
                n_nodes=1, n_threads=24, iterations=2,
                phase_threads={"solve": 4},
            ),
        )
        assert forced.performance < base.performance

    def test_summary_is_readable(self, engine, comd):
        r = engine.run(comd, ExecutionConfig(n_nodes=2, n_threads=12, iterations=2))
        s = r.summary()
        assert "comd" in s and "2 nodes" in s


class TestFixedPointRobustness:
    @settings(max_examples=25, deadline=None)
    @given(
        n_threads=st.integers(min_value=1, max_value=24),
        pkg=st.floats(min_value=60.0, max_value=260.0),
        dram=st.floats(min_value=10.0, max_value=36.0),
        app_name=st.sampled_from(["comd", "sp-mz.C", "stream", "bt-mz.C"]),
    )
    def test_any_config_converges(self, n_threads, pkg, dram, app_name):
        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=0)
        r = engine.run(
            get_app(app_name),
            ExecutionConfig(
                n_nodes=2, n_threads=n_threads,
                pkg_cap_w=pkg, dram_cap_w=dram, iterations=1,
            ),
        )
        assert r.total_time_s > 0
        assert r.avg_power_w > 0
        assert r.peak_power_w >= 0
