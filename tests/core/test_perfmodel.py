"""Tests for the Eq. 1-3 performance predictors."""

import pytest

from repro.core.classify import ScalabilityClass
from repro.core.perfmodel import PerformancePredictor
from repro.errors import ModelNotFittedError, ProfilingError
from repro.units import ghz
from repro.workloads.apps import get_app


@pytest.fixture()
def linear_predictor(profiler):
    profile = profiler.profile(get_app("comd"))
    return PerformancePredictor(profile), profile


@pytest.fixture()
def parabolic_predictor(profiler, trained_inflection):
    app = get_app("sp-mz.C")
    profile = profiler.profile(app)
    np_pred = trained_inflection.predict(profile)
    profile = profiler.confirm(app, profile, np_pred)
    return PerformancePredictor(profile, np_pred), profile


@pytest.fixture()
def log_predictor(profiler, trained_inflection):
    app = get_app("bt-mz.C")
    profile = profiler.profile(app)
    np_pred = trained_inflection.predict(profile)
    profile = profiler.confirm(app, profile, np_pred)
    return PerformancePredictor(profile, np_pred), profile


class TestLinearModel:
    def test_interpolates_samples_exactly(self, linear_predictor):
        pred, profile = linear_predictor
        assert pred.predict_time(12) == pytest.approx(profile.half_run.t_iter_s)
        assert pred.predict_time(24) == pytest.approx(profile.all_run.t_iter_s)

    def test_more_threads_faster(self, linear_predictor):
        pred, _ = linear_predictor
        assert pred.predict_time(24) < pred.predict_time(8)

    def test_frequency_scaling_direction(self, linear_predictor):
        pred, _ = linear_predictor
        fast = pred.predict_time(24, ghz(3.1))
        slow = pred.predict_time(24, ghz(1.2))
        assert fast < slow

    def test_compute_bound_scales_nearly_with_f(self, linear_predictor):
        pred, _ = linear_predictor
        ratio = pred.predict_time(24, ghz(1.15)) / pred.predict_time(24, ghz(2.3))
        # comd is compute-bound: halving frequency nearly doubles time
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_no_inflection_point(self, linear_predictor):
        pred, _ = linear_predictor
        assert pred.inflection_point is None

    def test_candidates_are_all_evens(self, linear_predictor):
        pred, _ = linear_predictor
        assert pred.candidate_concurrencies() == tuple(range(2, 25, 2))

    def test_rejects_out_of_range_threads(self, linear_predictor):
        pred, _ = linear_predictor
        with pytest.raises(ProfilingError):
            pred.predict_time(0)
        with pytest.raises(ProfilingError):
            pred.predict_time(25)

    def test_rejects_bad_frequency(self, linear_predictor):
        pred, _ = linear_predictor
        with pytest.raises(ProfilingError):
            pred.predict_time(12, -1.0)


class TestNonLinearModels:
    def test_needs_confirm_sample(self, profiler):
        profile = profiler.profile(get_app("sp-mz.C"))
        with pytest.raises(ModelNotFittedError):
            PerformancePredictor(profile, inflection_point=14)

    def test_parabolic_candidates_capped_at_np(self, parabolic_predictor):
        pred, _ = parabolic_predictor
        np_ = pred.inflection_point
        cands = pred.candidate_concurrencies()
        assert max(cands) <= np_

    def test_parabolic_segment2_predicts_slowdown(self, parabolic_predictor):
        pred, _ = parabolic_predictor
        np_ = pred.inflection_point
        assert pred.predict_time(24) > pred.predict_time(np_)

    def test_log_roofline_plateau(self, log_predictor):
        pred, profile = log_predictor
        # beyond the knee, no frequency can beat the memory plateau
        plateau = min(
            profile.all_run.t_iter_s, profile.confirm_run.t_iter_s
        )
        t = pred.predict_time(24, ghz(3.1))
        assert t >= plateau * (1 - 1e-9)

    def test_log_low_frequency_hurts_below_knee(self, log_predictor):
        pred, _ = log_predictor
        np_ = pred.inflection_point
        assert pred.predict_time(np_, ghz(1.2)) > pred.predict_time(np_, ghz(2.3))

    def test_perf_is_reciprocal(self, log_predictor):
        pred, _ = log_predictor
        assert pred.predict_perf(12) == pytest.approx(1 / pred.predict_time(12))

    def test_scalability_class_passthrough(
        self, parabolic_predictor, log_predictor, linear_predictor
    ):
        assert parabolic_predictor[0].scalability_class is ScalabilityClass.PARABOLIC
        assert log_predictor[0].scalability_class is ScalabilityClass.LOGARITHMIC
        assert linear_predictor[0].scalability_class is ScalabilityClass.LINEAR


class TestPredictionAccuracy:
    """The model should track the engine's ground truth reasonably."""

    @pytest.mark.parametrize("name", ["comd", "bt-mz.C", "sp-mz.C", "amg"])
    def test_interior_prediction_error(
        self, engine, profiler, trained_inflection, name
    ):
        from repro.sim.engine import ExecutionConfig

        app = get_app(name)
        profile = profiler.profile(app)
        np_pred = None
        if profile.scalability_class.is_nonlinear:
            np_pred = trained_inflection.predict(profile)
            profile = profiler.confirm(app, profile, np_pred)
        pred = PerformancePredictor(profile, np_pred)
        f_nom = engine.cluster.spec.node.socket.f_nominal
        for n in (8, 16, 20):
            if np_pred is not None and n > np_pred and name == "sp-mz.C":
                continue  # paper disregards the n > NP segment for parabolic
            actual = engine.run(
                app,
                ExecutionConfig(
                    n_nodes=1, n_threads=n, iterations=3,
                    affinity=profile.affinity, frequency_hz=f_nom,
                ),
            ).nodes[0].t_iter_s
            predicted = pred.predict_time(n)
            assert predicted == pytest.approx(actual, rel=0.35), (name, n)
