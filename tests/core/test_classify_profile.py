"""Tests for classification and the Smart Profiling Module."""

import pytest
from hypothesis import given, strategies as st

from repro.core.classify import (
    LINEAR_THRESHOLD,
    PARABOLIC_THRESHOLD,
    ScalabilityClass,
    classify_ratio,
)
from repro.core.profile import SmartProfiler
from repro.errors import ProfilingError
from repro.hw.numa import AffinityKind
from repro.workloads.apps import get_app
from repro.workloads.model import true_scalability_class


class TestClassifyRatio:
    def test_linear_below_threshold(self):
        assert classify_ratio(0.5, 1.0) is ScalabilityClass.LINEAR

    def test_logarithmic_band(self):
        assert classify_ratio(0.85, 1.0) is ScalabilityClass.LOGARITHMIC

    def test_parabolic_at_one(self):
        assert classify_ratio(1.0, 1.0) is ScalabilityClass.PARABOLIC

    def test_boundary_exactly_at_07(self):
        assert classify_ratio(0.7, 1.0) is ScalabilityClass.LOGARITHMIC

    def test_custom_thresholds(self):
        assert (
            classify_ratio(0.75, 1.0, linear_threshold=0.8)
            is ScalabilityClass.LINEAR
        )

    def test_rejects_nonpositive_perf(self):
        with pytest.raises(ProfilingError):
            classify_ratio(0.0, 1.0)
        with pytest.raises(ProfilingError):
            classify_ratio(1.0, -1.0)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ProfilingError):
            classify_ratio(0.5, 1.0, linear_threshold=1.2)

    def test_nonlinearity_flag(self):
        assert not ScalabilityClass.LINEAR.is_nonlinear
        assert ScalabilityClass.LOGARITHMIC.is_nonlinear
        assert ScalabilityClass.PARABOLIC.is_nonlinear

    @given(st.floats(min_value=1e-6, max_value=10.0))
    def test_partition_is_total(self, ratio):
        cls = classify_ratio(ratio, 1.0)
        if ratio < LINEAR_THRESHOLD:
            assert cls is ScalabilityClass.LINEAR
        elif ratio < PARABOLIC_THRESHOLD:
            assert cls is ScalabilityClass.LOGARITHMIC
        else:
            assert cls is ScalabilityClass.PARABOLIC


class TestSmartProfiler:
    def test_profile_has_two_samples(self, engine, profiler):
        profile = profiler.profile(get_app("comd"))
        assert profile.n_samples == 2
        assert profile.all_run.n_threads == 24
        assert profile.half_run.n_threads == 12

    def test_profile_matches_ground_truth_class(self, engine, profiler):
        node = engine.cluster.spec.node
        for name in ("comd", "bt-mz.C", "sp-mz.C", "tealeaf", "minimd"):
            app = get_app(name)
            profile = profiler.profile(app)
            assert (
                profile.scalability_class.value
                == true_scalability_class(app, node)
            ), name

    def test_memory_intensive_detection(self, profiler):
        assert profiler.profile(get_app("stream")).memory_intensive
        assert not profiler.profile(get_app("ep.C")).memory_intensive

    def test_affinity_preference(self, profiler):
        # memory-intensive apps scatter, compute-bound apps pack
        assert profiler.profile(get_app("tealeaf")).affinity is AffinityKind.SCATTER
        assert profiler.profile(get_app("ep.C")).affinity is AffinityKind.COMPACT

    def test_event7_filled_on_both_runs(self, profiler):
        p = profiler.profile(get_app("comd"))
        assert p.all_run.events.event7 > 0
        assert p.all_run.events.event7 == p.half_run.events.event7

    def test_dual_frequency_measurements(self, profiler):
        p = profiler.profile(get_app("comd"))
        assert p.all_run.frequency_lo_hz < p.all_run.frequency_hz
        assert p.all_run.pkg_lo_w < p.all_run.pkg_w

    def test_confirm_adds_third_sample(self, profiler):
        app = get_app("sp-mz.C")
        p = profiler.profile(app)
        p3 = profiler.confirm(app, p, 14)
        assert p3.n_samples == 3
        assert p3.confirm_run.n_threads == 14
        runs = (p3.half_run, p3.confirm_run, p3.all_run)
        assert [r.n_threads for r in runs] == [12, 14, 24]

    def test_confirm_rejects_wrong_app(self, profiler):
        p = profiler.profile(get_app("comd"))
        with pytest.raises(ProfilingError):
            profiler.confirm(get_app("amg"), p, 12)

    def test_confirm_rejects_bad_threads(self, profiler):
        app = get_app("comd")
        p = profiler.profile(app)
        with pytest.raises(ProfilingError):
            profiler.confirm(app, p, 0)

    def test_feature_vector_shape(self, profiler):
        p = profiler.profile(get_app("comd"))
        feats = p.feature_vector()
        assert feats.shape == (12,)

    def test_feature_vector_scale_free(self, profiler, monkeypatch):
        # features must not depend on profiling length
        from repro.core import profile as profile_module

        app = get_app("comd")
        monkeypatch.setattr(profile_module, "DEFAULT_PROFILE_ITERATIONS", 3)
        short = SmartProfiler(profiler._engine).profile(app)
        monkeypatch.setattr(profile_module, "DEFAULT_PROFILE_ITERATIONS", 9)
        long = SmartProfiler(profiler._engine).profile(app)
        import numpy as np

        np.testing.assert_allclose(
            short.feature_vector(), long.feature_vector(), rtol=0.05
        )

    def test_ratio_property(self, profiler):
        p = profiler.profile(get_app("comd"))
        assert p.ratio == pytest.approx(p.half_run.perf / p.all_run.perf)
