"""Tests for the unit helpers and exception hierarchy."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import errors, units


class TestConversions:
    def test_ghz(self):
        assert units.ghz(2.3) == pytest.approx(2.3e9)

    def test_mhz(self):
        assert units.mhz(1200) == pytest.approx(1.2e9)

    def test_gbps(self):
        assert units.gbps(59.7) == pytest.approx(5.97e10)

    def test_roundtrips(self):
        assert units.as_ghz(units.ghz(1.8)) == pytest.approx(1.8)
        assert units.as_gbps(units.gbps(68.0)) == pytest.approx(68.0)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_ghz_roundtrip_property(self, v):
        assert units.as_ghz(units.ghz(v)) == pytest.approx(v)


class TestValidators:
    def test_watts_accepts_zero(self):
        assert units.watts(0.0) == 0.0

    def test_watts_rejects_negative(self):
        with pytest.raises(ValueError):
            units.watts(-1.0)

    def test_rejects_nan_and_inf(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                units.check_non_negative(bad, "x")

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError):
            units.check_positive(0.0, "x")

    def test_check_fraction_bounds(self):
        assert units.check_fraction(0.0, "f") == 0.0
        assert units.check_fraction(1.0, "f") == 1.0
        with pytest.raises(ValueError):
            units.check_fraction(1.0001, "f")

    def test_error_message_carries_name(self):
        with pytest.raises(ValueError, match="bananas"):
            units.check_positive(-1.0, "bananas")

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_check_positive_raises_the_callers_error(self, bad):
        with pytest.raises(errors.SchedulingError, match="budget"):
            units.check_positive(bad, "budget", errors.SchedulingError)

    def test_close(self):
        assert units.close(1.0, 1.0 + 1e-12)
        assert not units.close(1.0, 1.01)


class TestErrorHierarchy:
    def test_all_derive_from_clip_error(self):
        for name in errors.__all__:
            exc = getattr(errors, name)
            assert issubclass(exc, errors.ClipError), name

    def test_catchable_as_base(self):
        with pytest.raises(errors.ClipError):
            raise errors.InfeasibleBudgetError("no watts")

    def test_distinct_subsystem_errors(self):
        assert not issubclass(errors.SpecError, errors.WorkloadError)
        assert not issubclass(errors.ProfilingError, errors.PowerDomainError)

    def test_library_raises_its_own_types(self):
        from repro.workloads.apps import get_app

        with pytest.raises(errors.WorkloadError):
            get_app("definitely-not-an-app")
