"""Tests for the MLR inflection-point predictor (Fig. 7)."""

import numpy as np
import pytest

from repro.core.inflection import InflectionPredictor
from repro.core.profile import SmartProfiler
from repro.errors import ModelNotFittedError, ProfilingError
from repro.workloads.apps import TABLE2_APPS, get_app
from repro.workloads.model import true_inflection_point, true_scalability_class


class TestFitMechanics:
    def test_unfitted_raises(self, profiler):
        pred = InflectionPredictor()
        profile = profiler.profile(get_app("sp-mz.C"))
        with pytest.raises(ModelNotFittedError):
            pred.predict(profile)

    def test_rejects_mismatched_shapes(self):
        pred = InflectionPredictor()
        with pytest.raises(ProfilingError):
            pred.fit(np.ones((5, 3)), np.ones(4), 24)

    def test_rejects_underdetermined(self):
        pred = InflectionPredictor()
        with pytest.raises(ProfilingError):
            pred.fit(np.ones((3, 11)), np.ones(3), 24)

    def test_exact_fit_on_linear_data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 4))
        w = np.array([2.0, -1.0, 0.5, 3.0])
        y = X @ w + 12.0
        pred = InflectionPredictor()
        pred.fit(X, y, n_cores=24)

        class Row:
            def __init__(self, x):
                self.x = x

            def feature_vector(self):
                return self.x

        for x, target in zip(X[:5], y[:5]):
            assert pred.predict_raw(Row(x)) == pytest.approx(target, abs=1e-2)

    def test_prediction_floored_to_even(self, trained_inflection, profiler):
        for name in ("sp-mz.C", "bt-mz.C", "tealeaf"):
            profile = profiler.profile(get_app(name))
            np_pred = trained_inflection.predict(profile)
            assert np_pred % 2 == 0
            assert 2 <= np_pred <= 24


class TestPredictionQuality:
    """Fig.-7 level accuracy: predictions land near the true knees."""

    def test_mean_error_small(self, engine, profiler, trained_inflection):
        node = engine.cluster.spec.node
        errors = []
        for app in TABLE2_APPS:
            if true_scalability_class(app, node) == "linear":
                continue
            profile = profiler.profile(app)
            pred = trained_inflection.predict(profile)
            true = true_inflection_point(app, node)
            errors.append(abs(pred - true))
        assert np.mean(errors) <= 3.0, f"per-app |NP error|: {errors}"

    def test_no_catastrophic_outlier(self, engine, profiler, trained_inflection):
        node = engine.cluster.spec.node
        for app in TABLE2_APPS:
            if true_scalability_class(app, node) == "linear":
                continue
            profile = profiler.profile(app)
            pred = trained_inflection.predict(profile)
            true = true_inflection_point(app, node)
            assert abs(pred - true) <= 8, app.name

    def test_fit_from_corpus_skips_profiled_linear(self, engine):
        from repro.core.classify import ScalabilityClass
        from repro.workloads.generator import SyntheticAppGenerator

        gen = SyntheticAppGenerator(engine.cluster.spec.node, seed=11)
        corpus = [gen.draw_class("linear") for _ in range(3)]
        corpus += [gen.draw_class("logarithmic") for _ in range(8)]
        corpus += [gen.draw_class("parabolic") for _ in range(8)]
        profiler = SmartProfiler(engine)
        # the filter must match what the profiler (not ground truth)
        # says — CLIP never sees ground truth
        expected = sum(
            profiler.profile(app).scalability_class is not ScalabilityClass.LINEAR
            for app in corpus
        )
        pred = InflectionPredictor()
        n_rows = pred.fit_from_corpus(corpus, SmartProfiler(engine))
        assert n_rows == expected
        assert n_rows < len(corpus)  # at least some linear members skipped

    def test_all_linear_corpus_rejected(self, engine):
        from repro.workloads.generator import SyntheticAppGenerator

        gen = SyntheticAppGenerator(engine.cluster.spec.node, seed=12)
        corpus = [gen.draw_class("linear") for _ in range(5)]
        pred = InflectionPredictor()
        with pytest.raises(ProfilingError):
            pred.fit_from_corpus(corpus, SmartProfiler(engine))
