"""Tests for cluster-level allocation and variability coordination."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import ClusterAllocator
from repro.core.coordination import (
    VARIABILITY_THRESHOLD,
    coordinate_power,
    measure_node_factors,
    waterfill_surplus,
)
from repro.core.perfmodel import PerformancePredictor
from repro.core.powermodel import ClipPowerModel
from repro.core.recommend import Recommender
from repro.errors import InfeasibleBudgetError, SchedulingError
from repro.workloads.apps import get_app


@pytest.fixture()
def recommender_for(profiler, engine, trained_inflection):
    node = engine.cluster.spec.node

    def build(name):
        app = get_app(name)
        profile = profiler.profile(app)
        np_pred = None
        if profile.scalability_class.is_nonlinear:
            np_pred = trained_inflection.predict(profile)
            profile = profiler.confirm(app, profile, np_pred)
        predictor = PerformancePredictor(profile, np_pred)
        power = ClipPowerModel(profile, node)
        return Recommender(profile, predictor, power)

    return build


class TestCoordinatePower:
    def test_homogeneous_stays_uniform(self):
        budgets = coordinate_power(800.0, np.ones(4), lo_w=100.0, hi_w=300.0)
        np.testing.assert_allclose(budgets, 200.0)

    def test_below_threshold_stays_uniform(self):
        factors = np.array([1.0, 1.02, 0.99, 1.01])
        budgets = coordinate_power(800.0, factors, lo_w=100.0, hi_w=300.0)
        np.testing.assert_allclose(budgets, 200.0)

    def test_inefficient_node_gets_more(self):
        factors = np.array([1.0, 1.2])
        budgets = coordinate_power(400.0, factors, lo_w=100.0, hi_w=300.0)
        assert budgets[1] > budgets[0]
        assert budgets.sum() <= 400.0 * (1 + 1e-9)

    def test_budgets_respect_range(self):
        factors = np.array([0.8, 1.2, 1.0])
        budgets = coordinate_power(450.0, factors, lo_w=120.0, hi_w=200.0)
        assert np.all(budgets >= 120.0 - 1e-9)
        assert np.all(budgets <= 200.0 + 1e-9)

    def test_single_node_gets_clipped_budget(self):
        budgets = coordinate_power(500.0, np.array([1.0]), lo_w=100.0, hi_w=280.0)
        assert budgets[0] == pytest.approx(280.0)

    def test_insufficient_budget_raises(self):
        with pytest.raises(SchedulingError):
            coordinate_power(150.0, np.ones(2), lo_w=100.0, hi_w=300.0)

    def test_bad_range_raises(self):
        with pytest.raises(SchedulingError):
            coordinate_power(400.0, np.ones(2), lo_w=200.0, hi_w=100.0)

    def test_empty_factors_raises(self):
        with pytest.raises(SchedulingError):
            coordinate_power(400.0, np.array([]), lo_w=100.0, hi_w=200.0)

    @settings(max_examples=40)
    @given(
        n=st.integers(min_value=1, max_value=8),
        spread=st.floats(min_value=0.0, max_value=0.15),
        budget_per=st.floats(min_value=130.0, max_value=280.0),
    )
    def test_conservation_property(self, n, spread, budget_per):
        rng = np.random.default_rng(0)
        factors = 1.0 + spread * rng.standard_normal(n) * 0.3
        factors = np.clip(factors, 0.8, 1.2)
        total = budget_per * n
        budgets = coordinate_power(total, factors, lo_w=120.0, hi_w=300.0)
        assert budgets.sum() <= total * (1 + 1e-9)
        assert np.all(budgets >= 120.0 - 1e-9)


@st.composite
def _coordination_cases(draw):
    """Random but feasible (total, factors, lo, hi) coordination inputs."""
    n = draw(st.integers(min_value=1, max_value=8))
    lo = draw(st.floats(min_value=50.0, max_value=150.0))
    hi = lo + draw(st.floats(min_value=10.0, max_value=200.0))
    factors = np.array(
        draw(
            st.lists(
                st.floats(min_value=0.5, max_value=2.0), min_size=n, max_size=n
            )
        )
    )
    headroom = draw(st.floats(min_value=0.0, max_value=1.5))
    total = n * lo + headroom * n * (hi - lo)
    return total, factors, lo, hi


class TestCoordinatePowerProperties:
    """Randomized invariants: budgets sum <= total and sit in [lo, hi]."""

    @settings(max_examples=200, deadline=None)
    @given(case=_coordination_cases())
    def test_never_exceeds_budget_or_range(self, case):
        total, factors, lo, hi = case
        budgets = coordinate_power(total, factors, lo_w=lo, hi_w=hi)
        tol = 1e-6 * max(total, 1.0)
        assert len(budgets) == len(factors)
        assert budgets.sum() <= total + tol
        assert np.all(budgets >= lo - tol)
        assert np.all(budgets <= hi + tol)

    @settings(max_examples=200, deadline=None)
    @given(case=_coordination_cases())
    def test_exact_fill_property(self, case):
        """The water-fill contract: sum(budgets) == min(budget, sum(hi)).

        The old fixed 8-pass redistribution could terminate with
        unallocated surplus when many nodes pinned at ``hi``; the exact
        water-fill pass always hands out everything the ceilings admit.
        """
        total, factors, lo, hi = case
        budgets = coordinate_power(total, factors, lo_w=lo, hi_w=hi)
        n = len(factors)
        expected = min(total, n * hi)
        tol = 1e-6 * max(total, 1.0)
        assert budgets.sum() == pytest.approx(expected, abs=tol)

    def test_waterfill_exact_when_many_pin(self):
        """Heavily skewed weights pin most entries at hi immediately —
        the regime where a fixed-pass loop under-allocates."""
        budgets = np.full(8, 100.0)
        hi = np.array([101.0] * 7 + [500.0])
        weights = np.array([100.0] * 7 + [1e-3])
        out = waterfill_surplus(budgets, 300.0, weights, hi)
        assert out.sum() == pytest.approx(800.0 + 300.0)
        assert np.all(out <= hi + 1e-9)
        np.testing.assert_allclose(out[:7], 101.0)
        assert out[7] == pytest.approx(393.0)

    def test_waterfill_saturates_all_ceilings(self):
        budgets = np.array([100.0, 150.0])
        out = waterfill_surplus(budgets, 1000.0, np.ones(2), 200.0)
        np.testing.assert_allclose(out, 200.0)

    def test_waterfill_rounding_past_last_breakpoint_saturates(self):
        """Regression: a surplus that falls between the pairwise room sum
        and the sorted prefix sum passed every breakpoint, leaving no
        open segment to solve on (a division by zero weight)."""
        rng = np.random.default_rng(6)
        factors = np.abs(1 + 0.1 * rng.standard_normal(1024)) + 0.05
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            budgets = coordinate_power(1024 * 120.0, factors, 90.0, 120.0)
        np.testing.assert_array_equal(budgets, 120.0)

    def test_waterfill_zero_surplus_is_identity(self):
        budgets = np.array([110.0, 120.0])
        out = waterfill_surplus(budgets, 0.0, np.ones(2), 200.0)
        np.testing.assert_allclose(out, budgets)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        surplus=st.floats(min_value=0.0, max_value=2000.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_waterfill_exactness_property(self, n, surplus, seed):
        rng = np.random.default_rng(seed)
        budgets = rng.uniform(50.0, 150.0, n)
        hi = budgets + rng.uniform(0.0, 120.0, n)
        weights = rng.uniform(0.1, 10.0, n)
        out = waterfill_surplus(budgets.copy(), surplus, weights, hi)
        absorbed = min(surplus, float((hi - budgets).sum()))
        tol = 1e-6 * max(surplus, 1.0)
        assert out.sum() == pytest.approx(budgets.sum() + absorbed, abs=tol)
        assert np.all(out >= budgets - 1e-9)
        assert np.all(out <= hi + 1e-9)

    def test_low_clamp_deficit_redistributed(self):
        """Regression: clamping weak nodes up to lo_w must not overspend.

        Proportional shares [52.5, 157.5] clip to [100, 157.5] — a sum
        of 257.5 W against a 210 W budget.  The deficit must come back
        out of the node above the floor.
        """
        budgets = coordinate_power(
            210.0, np.array([0.5, 1.5]), lo_w=100.0, hi_w=200.0
        )
        assert budgets.sum() <= 210.0 + 1e-9
        assert np.all(budgets >= 100.0 - 1e-9)
        np.testing.assert_allclose(budgets, [100.0, 110.0])


class TestMeasureNodeFactors:
    def test_factors_track_ground_truth(self, engine):
        measured = measure_node_factors(engine)
        truth = engine.cluster.variability.factors
        # measured watts/work differences must correlate with the
        # hidden efficiency factors
        corr = np.corrcoef(measured, truth)[0, 1]
        assert corr > 0.95

    def test_mean_normalized(self, engine):
        measured = measure_node_factors(engine)
        assert measured.mean() == pytest.approx(1.0)

    def test_calibration_cached_per_fingerprint(self, engine):
        first = measure_node_factors(engine)
        assert len(engine.calibration_cache) == 1
        second = measure_node_factors(engine)
        np.testing.assert_array_equal(first, second)
        assert len(engine.calibration_cache) == 1  # served from cache
        # the returned array is a copy: mutating it must not poison
        # later calibrations
        second[0] = 99.0
        np.testing.assert_array_equal(measure_node_factors(engine), first)

    def test_fail_and_recover_invalidate_calibration(self, engine):
        healthy = measure_node_factors(engine)
        engine.cluster.fail_node(2)
        failed = measure_node_factors(engine)
        assert failed[2] == pytest.approx(1.0)  # neutral placeholder
        assert len(engine.calibration_cache) == 2
        engine.cluster.recover_node(2)
        recovered = measure_node_factors(engine)
        np.testing.assert_array_equal(recovered, healthy)

    def test_degrade_invalidates_calibration(self, engine):
        before = measure_node_factors(engine)
        engine.cluster.degrade_node(1, 1.5)
        after = measure_node_factors(engine)
        assert after[1] > before[1]
        assert len(engine.calibration_cache) == 2


class TestClusterAllocator:
    def _alloc(self, recommender, n_total=8, factors=None):
        return ClusterAllocator(recommender, n_total, node_factors=factors)

    def test_generous_budget_uses_all_nodes(self, recommender_for):
        alloc = self._alloc(recommender_for("comd")).allocate(2400.0)
        assert alloc.n_nodes == 8

    def test_tight_budget_sheds_nodes(self, recommender_for):
        rec = recommender_for("comd")
        lo, _ = self._alloc(rec).acceptable_range()
        budget = 3.5 * lo
        alloc = self._alloc(rec).allocate(budget)
        assert alloc.n_nodes <= 3

    def test_budget_conserved(self, recommender_for):
        alloc = self._alloc(recommender_for("bt-mz.C")).allocate(1300.0)
        assert alloc.total_allocated_w <= 1300.0 * (1 + 1e-9)

    def test_budgets_within_range(self, recommender_for):
        alloc = self._alloc(recommender_for("bt-mz.C")).allocate(1300.0)
        for b in alloc.node_budgets_w:
            assert alloc.node_lo_w - 1e-9 <= b <= alloc.node_hi_w + 1e-9

    def test_infeasible_budget_raises(self, recommender_for):
        with pytest.raises(InfeasibleBudgetError):
            self._alloc(recommender_for("comd")).allocate(20.0)

    def test_predefined_counts_respected(self, recommender_for):
        alloc = self._alloc(recommender_for("comd")).allocate(
            2400.0, predefined=(1, 2, 4, 8)
        )
        assert alloc.n_nodes in (1, 2, 4, 8)

    def test_predefined_infeasible_raises(self, recommender_for):
        rec = recommender_for("comd")
        lo, _ = self._alloc(rec).acceptable_range()
        with pytest.raises(InfeasibleBudgetError):
            self._alloc(rec).allocate(lo * 1.5, predefined=(4, 8))

    def test_simple_mode_matches_algorithm1(self, recommender_for):
        rec = recommender_for("comd")
        allocator = self._alloc(rec)
        lo, hi = allocator.acceptable_range()
        # Pub > Ntotal * hi -> all nodes
        alloc = allocator.allocate(8 * hi + 100, mode="simple")
        assert alloc.n_nodes == 8
        # otherwise floor(Pub / hi)
        alloc = allocator.allocate(3.4 * hi, mode="simple")
        assert alloc.n_nodes == 3

    def test_unknown_mode_raises(self, recommender_for):
        with pytest.raises(SchedulingError):
            self._alloc(recommender_for("comd")).allocate(1000.0, mode="magic")

    def test_variability_coordination_engages(self, recommender_for):
        factors = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.25])
        rec = recommender_for("comd")
        alloc = ClusterAllocator(rec, 8, node_factors=factors).allocate(1400.0)
        budgets = np.array(alloc.node_budgets_w)
        if alloc.n_nodes == 8:
            assert budgets[7] > budgets[0]

    def test_homogeneous_budgets_uniform(self, recommender_for):
        alloc = self._alloc(recommender_for("comd")).allocate(1400.0)
        budgets = np.array(alloc.node_budgets_w)
        assert np.allclose(budgets, budgets[0], rtol=1e-6) or (
            budgets.max() / budgets.min() - 1 <= VARIABILITY_THRESHOLD + 0.2
        )

    def test_more_budget_never_fewer_nodes(self, recommender_for):
        rec = recommender_for("comd")
        allocator = self._alloc(rec)
        counts = [
            allocator.allocate(b).n_nodes for b in (700.0, 1100.0, 1600.0, 2400.0)
        ]
        assert counts == sorted(counts)

    def test_factors_length_validated(self, recommender_for):
        with pytest.raises(SchedulingError):
            ClusterAllocator(recommender_for("comd"), 8, node_factors=np.ones(4))
