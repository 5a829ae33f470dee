"""Unit tests for hardware-event synthesis (Table I)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.hw.counters import (
    CACHE_LINE_BYTES,
    EVENT_NAMES,
    EventCounters,
    synthesize_counters,
)


def _counters(**kw):
    defaults = dict(
        instructions=1e11,
        duration_s=2.0,
        n_threads=24,
        frequency_hz=2.3e9,
        dram_bytes=5e10,
        remote_fraction=0.2,
        icache_mpki=1.5,
    )
    defaults.update(kw)
    return synthesize_counters(**defaults)


class TestEventNames:
    def test_table1_has_eight_events(self):
        assert len(EVENT_NAMES) == 8
        assert EVENT_NAMES["event7"].startswith("Performance ratio")


class TestSynthesis:
    def test_traffic_split_sums(self):
        ev = _counters()
        assert ev.event1 + ev.event2 == pytest.approx(5e10)

    def test_reads_exceed_writes(self):
        ev = _counters()
        assert ev.event1 > ev.event2

    def test_miss_counts_match_traffic(self):
        ev = _counters()
        assert ev.event3 + ev.event4 == pytest.approx(5e10 / CACHE_LINE_BYTES)

    def test_remote_fraction_recovered(self):
        ev = _counters(remote_fraction=0.3)
        assert ev.remote_miss_fraction == pytest.approx(0.3)

    def test_active_cycles(self):
        ev = _counters()
        assert ev.event5 == pytest.approx(24 * 2.3e9 * 2.0)

    def test_icache_scaling(self):
        ev = _counters(icache_mpki=2.0)
        assert ev.event0 == pytest.approx(2.0 * 1e11 / 1e3)

    def test_ipc(self):
        ev = _counters()
        assert ev.ipc == pytest.approx(1e11 / (24 * 2.3e9 * 2.0))

    def test_memory_bandwidth(self):
        ev = _counters()
        assert ev.memory_bandwidth == pytest.approx(5e10 / 2.0)

    def test_noise_is_reproducible(self):
        a = _counters(rng=np.random.default_rng(1), )
        b = _counters(rng=np.random.default_rng(1), )
        assert a.event1 == b.event1

    def test_noise_perturbs(self):
        clean = _counters()
        noisy = _counters(rng=np.random.default_rng(2), )
        assert clean.event1 != noisy.event1

    def test_rejects_bad_remote_fraction(self):
        with pytest.raises(ValueError):
            _counters(remote_fraction=1.5)


class TestEventCounters:
    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            EventCounters(
                event0=-1, event1=0, event2=0, event3=0,
                event4=0, event5=1, event6=1,
            )

    def test_rates_order_and_shape(self):
        ev = _counters()
        rates = ev.rates()
        assert rates.shape == (8,)
        assert rates[6] == pytest.approx(ev.event6 / ev.duration_s)
        # event7 passes through unscaled
        assert rates[7] == pytest.approx(ev.event7)

    def test_with_perf_ratio(self):
        ev = _counters()
        ev2 = ev.with_perf_ratio(1.8)
        assert ev2.event7 == pytest.approx(1.8)
        assert ev2.event1 == ev.event1
        assert ev.event7 == 0.0  # original unchanged

    def test_zero_cycles_ipc(self):
        ev = EventCounters(
            event0=0, event1=0, event2=0, event3=0, event4=0,
            event5=0, event6=0,
        )
        assert ev.ipc == 0.0
        assert ev.remote_miss_fraction == 0.0

    @given(
        st.floats(min_value=1e6, max_value=1e12),
        st.floats(min_value=0.1, max_value=100.0),
    )
    def test_rates_scale_free_in_duration(self, instr, dur):
        # the same workload profiled twice as long yields the same rates
        a = synthesize_counters(
            instructions=instr, duration_s=dur, n_threads=4,
            frequency_hz=2e9, dram_bytes=instr * 0.5,
            remote_fraction=0.1, icache_mpki=1.0,
        )
        b = synthesize_counters(
            instructions=2 * instr, duration_s=2 * dur, n_threads=4,
            frequency_hz=2e9, dram_bytes=2 * instr * 0.5,
            remote_fraction=0.1, icache_mpki=1.0,
        )
        np.testing.assert_allclose(a.rates(), b.rates(), rtol=1e-9)
