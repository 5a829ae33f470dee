"""MLR inflection-point prediction (§III-A.2, Table I).

For logarithmic and parabolic applications the piecewise performance
model needs the inflection point NP.  The paper predicts NP with
multivariate linear regression over the Table-I hardware-event rates of
the profiling samples, trained on a benchmark corpus whose true
inflection points were identified by exhaustive search; it explicitly
prefers MLR over "more sophisticated machine learning methods" because
the training set is small ("may generate overfit").

Training targets here come from exhaustive sweeps on the simulated
testbed — the same procedure the authors used on the physical one.
Predictions are floored to an even thread count, as the paper does
after observing that odd concurrency underperforms (§V-B.2).
"""

from __future__ import annotations

import numpy as np

from repro.core.classify import ScalabilityClass
from repro.core.profile import AppProfile, SmartProfiler
from repro.errors import ModelNotFittedError, ProfilingError
from repro.workloads.characteristics import WorkloadCharacteristics
from repro.workloads.model import true_inflection_point

__all__ = ["InflectionPredictor"]

#: Tikhonov damping keeping the small-corpus regression stable.
RIDGE_LAMBDA = 1e-3


class InflectionPredictor:
    """Ridge-regularized MLR from profile features to NP."""

    def __init__(self):
        self._weights: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        self._n_cores: int | None = None

    # ------------------------------------------------------------------

    def fit(self, features: np.ndarray, targets: np.ndarray, n_cores: int) -> None:
        """Fit the regression on (features, true NP) pairs.

        Features are standardized, then solved with ridge-damped least
        squares; an intercept column is appended internally.
        """
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(targets, dtype=np.float64)
        if X.ndim != 2 or len(X) != len(y):
            raise ProfilingError("features must be 2-D and match targets")
        if len(X) < X.shape[1] + 1:
            raise ProfilingError(
                f"need more training rows ({len(X)}) than features ({X.shape[1]})"
            )
        self._mean = X.mean(axis=0)
        self._scale = np.where(X.std(axis=0) > 1e-12, X.std(axis=0), 1.0)
        Xs = (X - self._mean) / self._scale
        Xs = np.hstack([Xs, np.ones((len(Xs), 1))])
        # ridge: (X'X + lambda I) w = X'y, intercept undamped
        reg = RIDGE_LAMBDA * np.eye(Xs.shape[1])
        reg[-1, -1] = 0.0
        self._weights = np.linalg.solve(Xs.T @ Xs + reg, Xs.T @ y)
        self._n_cores = n_cores

    def fit_from_corpus(
        self,
        corpus: list[WorkloadCharacteristics],
        profiler: SmartProfiler,
    ) -> int:
        """Profile a corpus and fit on its non-linear members.

        Returns the number of training rows used.  Linear apps carry no
        inflection point and are skipped, mirroring the paper's
        "classified and verified" filter.
        """
        feats: list[np.ndarray] = []
        targets: list[float] = []
        node = profiler.node_spec
        for app in corpus:
            prof = profiler.profile(app)
            if prof.scalability_class is ScalabilityClass.LINEAR:
                continue
            feats.append(prof.feature_vector())
            targets.append(float(true_inflection_point(app, node)))
        if not feats:
            raise ProfilingError("corpus contained no non-linear applications")
        self.fit(np.array(feats), np.array(targets), node.n_cores)
        return len(feats)

    # ------------------------------------------------------------------

    def predict_raw(self, profile: AppProfile) -> float:
        """Un-floored regression output for one profile."""
        if (
            self._weights is None
            or self._mean is None
            or self._scale is None
        ):
            raise ModelNotFittedError("InflectionPredictor.fit has not run")
        x = (profile.feature_vector() - self._mean) / self._scale
        x = np.append(x, 1.0)
        return float(x @ self._weights)

    def predict(self, profile: AppProfile) -> int:
        """Predicted NP: floored to even, clamped to [2, n_cores]."""
        raw = self.predict_raw(profile)
        floored = int(raw // 2 * 2)
        n_cores = self._n_cores or profile.n_cores
        return int(np.clip(floored, 2, n_cores))
