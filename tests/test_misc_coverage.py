"""Targeted tests for branches the broader suites leave unexercised."""

import numpy as np
import pytest

from repro.errors import ProfilingError, SchedulingError, WorkloadError
from repro.sim.engine import ExecutionConfig
from repro.sim.mpi import CommModel
from repro.workloads.apps import get_app
from repro.workloads.characteristics import CommPattern, WorkloadCharacteristics
from repro.workloads.model import scalability_curve


class TestExecutionConfigEdges:
    def test_iterations_validation(self):
        with pytest.raises(SchedulingError):
            ExecutionConfig(n_nodes=1, n_threads=2, iterations=0)


class TestRunResultDerived:
    def test_edp_and_zero_time_guards(self, engine):
        r = engine.run(
            get_app("comd"), ExecutionConfig(n_nodes=1, n_threads=12, iterations=2)
        )
        assert r.edp == pytest.approx(r.energy_j * r.total_time_s)
        assert r.performance > 0


class TestScalabilityCurveOptions:
    def test_shared_remote_toggle(self):
        from dataclasses import replace

        from repro.hw.specs import haswell_node

        app = get_app("stream")
        node = haswell_node()
        _, with_remote = scalability_curve(app, node)
        _, without = scalability_curve(replace(app, shared_fraction=0.0), node)
        # ignoring NUMA remote traffic can only look faster
        assert np.all(without >= with_remote * (1 - 1e-12))


class TestCommModelEdges:
    def test_halo_bytes_reference_at_one_node(self):
        from repro.hw.specs import haswell_testbed

        comm = CommModel(haswell_testbed())
        app = get_app("bt-mz.C")
        assert comm.halo_bytes(app, 1) == pytest.approx(app.comm_bytes_per_iter)

    def test_alpha_beta_exposed(self):
        from repro.hw.specs import haswell_testbed

        spec = haswell_testbed()
        comm = CommModel(spec)
        assert comm.alpha_s == pytest.approx(spec.link_latency_s)
        assert comm.beta_s_per_byte == pytest.approx(1.0 / spec.link_bandwidth)


class TestProfilerEdges:
    def test_custom_iteration_budget(self, engine, monkeypatch):
        from repro.core import profile as profile_module

        monkeypatch.setattr(profile_module, "DEFAULT_PROFILE_ITERATIONS", 2)
        profile = profile_module.SmartProfiler(engine).profile(get_app("ep.C"))
        assert profile.scalability_class.value == "linear"

    def test_roofline_knee_estimate_compute_bound_clamps(self, profiler):
        profile = profiler.profile(get_app("ep.C"))
        # EP's tiny traffic scales with threads, so the estimated knee
        # sits at/after the full core count — never an interior knee
        assert profile.roofline_knee_estimate() >= profile.n_cores - 2

    def test_roofline_knee_estimate_memory_bound_interior(self, profiler):
        profile = profiler.profile(get_app("stream"))
        assert profile.roofline_knee_estimate() < 2 * profile.n_cores


class TestWorkloadEdges:
    def test_allreduce_apps_pay_log_cost(self, engine):
        amg = get_app("amg")
        assert amg.comm_pattern is CommPattern.ALLREDUCE
        r2 = engine.run(amg, ExecutionConfig(n_nodes=2, n_threads=24, iterations=2))
        r8 = engine.run(amg, ExecutionConfig(n_nodes=8, n_threads=24, iterations=2))
        assert r8.comm_s > r2.comm_s

    def test_characteristics_reject_bad_comm_msgs(self):
        with pytest.raises(WorkloadError):
            WorkloadCharacteristics(
                name="x",
                instructions_per_iter=1e10,
                bytes_per_instruction=0.1,
                comm_msgs_per_iter=-1,
            )


class TestHyperbolaGuard:
    def test_inverted_samples_degrade_to_flat(self):
        from repro.core.perfmodel import _Hyperbola

        # time *increasing* toward fewer threads is non-physical input
        h = _Hyperbola.through(12, 1.0, 18, 0.8)
        assert h.a >= 0
        # time *smaller* at fewer threads: samples straddle a peak
        h_bad = _Hyperbola.through(20, 1.0, 18, 0.8)
        assert h_bad.a == 0.0
        assert h_bad.time(2) == pytest.approx(0.8)

    def test_equal_thread_counts_rejected(self):
        from repro.core.perfmodel import _Hyperbola, _Line

        with pytest.raises(ProfilingError):
            _Hyperbola.through(12, 1.0, 12, 0.8)
        with pytest.raises(ProfilingError):
            _Line.through(12, 1.0, 12, 0.8)


class TestDegradeNode:
    def test_degrade_validates(self, cluster):
        from repro.errors import SpecError

        with pytest.raises(SpecError):
            cluster.degrade_node(99, 1.1)
        with pytest.raises(SpecError):
            cluster.degrade_node(0, 0.0)

    def test_degrade_compounds(self, cluster):
        before = cluster.node(1).efficiency
        cluster.degrade_node(1, 1.1)
        cluster.degrade_node(1, 1.1)
        assert cluster.node(1).efficiency == pytest.approx(before * 1.21)
