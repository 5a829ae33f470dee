"""Unit and property tests for the DVFS frequency ladder."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SpecError
from repro.hw.dvfs import FrequencyLadder
from repro.units import ghz

LADDER = FrequencyLadder([ghz(f) for f in (1.2, 1.5, 1.8, 2.1, 2.3)])


class TestFrequencyLadder:
    def test_rejects_empty(self):
        with pytest.raises(SpecError):
            FrequencyLadder([])

    def test_rejects_unsorted(self):
        with pytest.raises(SpecError):
            FrequencyLadder([ghz(2.3), ghz(1.2)])

    def test_rejects_duplicates(self):
        with pytest.raises(SpecError):
            FrequencyLadder([ghz(1.2), ghz(1.2)])

    def test_contains_exact(self):
        assert ghz(1.5) in LADDER
        assert ghz(1.6) not in LADDER

    def test_quantize_down(self):
        assert LADDER.quantize_down(ghz(1.7)) == pytest.approx(ghz(1.5))
        assert LADDER.quantize_down(ghz(1.5)) == pytest.approx(ghz(1.5))
        # below the ladder clamps to f_min
        assert LADDER.quantize_down(ghz(0.5)) == pytest.approx(ghz(1.2))

    def test_highest_under_monotone_predicate(self):
        # power-fits-under-cap style predicate
        assert LADDER.highest_under(lambda f: f <= ghz(1.9)) == pytest.approx(
            ghz(1.8)
        )

    def test_highest_under_all_fail(self):
        assert LADDER.highest_under(lambda f: False) is None

    @given(st.floats(min_value=1e9, max_value=4e9))
    def test_quantize_down_never_above_input(self, f):
        q = LADDER.quantize_down(f)
        assert q in LADDER.frequencies
        assert q <= max(f, LADDER.f_min) + 1e-6

    @given(st.floats(min_value=1e9, max_value=4e9))
    def test_quantize_roundtrip_idempotent(self, f):
        q = LADDER.quantize_down(f)
        assert LADDER.quantize_down(q) == q
