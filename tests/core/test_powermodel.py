"""Tests for CLIP's fitted power model and acceptable ranges."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.powermodel import ARRAY_FREQ_MIN, ClipPowerModel, PowerRange
from repro.errors import InfeasibleBudgetError, ProfilingError
from repro.units import ghz
from repro.workloads.apps import get_app


@pytest.fixture()
def model_for(profiler, engine):
    node = engine.cluster.spec.node

    def build(name):
        return ClipPowerModel(profiler.profile(get_app(name)), node)

    return build


_COMD_MODEL = None


def _cached_comd_model():
    """Module-level model for hypothesis tests (fixtures are banned
    inside @given because they would be reused across examples)."""
    global _COMD_MODEL
    if _COMD_MODEL is None:
        from repro.core.profile import SmartProfiler
        from repro.hw.cluster import SimulatedCluster
        from repro.sim.engine import ExecutionEngine

        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        profile = SmartProfiler(engine).profile(get_app("comd"))
        _COMD_MODEL = ClipPowerModel(profile, engine.cluster.spec.node)
    return _COMD_MODEL


class TestFit:
    def test_coefficients_physical(self, model_for):
        for name in ("comd", "bt-mz.C", "stream", "ep.C"):
            m = model_for(name)
            assert m.p_base_w >= 0
            assert m.p_core_w >= 0.05
            assert m.mem_base_w >= 0
            assert m.mem_w_per_bw >= 0

    def test_fitted_base_near_truth(self, model_for, engine):
        # ground truth: 2 x 16 W uncore; fits land in a sane band
        m = model_for("comd")
        assert 10.0 <= m.p_base_w <= 70.0

    def test_cpu_power_monotone_in_threads_and_freq(self, model_for):
        m = model_for("comd")
        assert m.cpu_power(24, ghz(2.3)) > m.cpu_power(12, ghz(2.3))
        assert m.cpu_power(12, ghz(2.3)) > m.cpu_power(12, ghz(1.2))

    def test_cpu_power_rejects_negative_threads(self, model_for):
        with pytest.raises(ProfilingError):
            model_for("comd").cpu_power(-1, ghz(2.0))


class TestBandwidthDemand:
    def test_saturating_shape(self, model_for):
        m = model_for("stream")
        d2 = m.bandwidth_demand(2)
        d12 = m.bandwidth_demand(12)
        d24 = m.bandwidth_demand(24)
        assert d2 < d12 <= d24 * (1 + 1e-9)

    def test_interior_not_underestimated(self, model_for):
        # the extraction model must not dip between samples: demand at
        # 16 threads is at least the 12-thread measurement
        m = model_for("bt-mz.C")
        assert m.bandwidth_demand(16) >= m.bandwidth_demand(12)

    def test_mem_power_follows_demand(self, model_for):
        m = model_for("stream")
        assert m.mem_power(24) >= m.mem_power(4)


class TestMaxFreqUnder:
    def test_generous_budget_gives_fmax(self, model_for, engine):
        m = model_for("comd")
        f = m.max_freq_under(500.0, 24)
        assert f == pytest.approx(engine.cluster.spec.node.socket.f_max)

    def test_starved_budget_none(self, model_for):
        m = model_for("comd")
        assert m.max_freq_under(20.0, 24) is None

    def test_monotone_in_budget(self, model_for):
        m = model_for("comd")
        budgets = [105.0, 130.0, 170.0, 210.0]
        freqs = [m.max_freq_under(b, 24) for b in budgets]
        assert all(f is not None for f in freqs)
        assert freqs == sorted(freqs)

    def test_fewer_threads_higher_freq(self, model_for):
        m = model_for("comd")
        f24 = m.max_freq_under(140.0, 24)
        f12 = m.max_freq_under(140.0, 12)
        assert f12 >= f24

    def test_rejects_zero_threads(self, model_for):
        with pytest.raises(ProfilingError):
            model_for("comd").max_freq_under(100.0, 0)

    @pytest.mark.parametrize("app", ["comd", "stream", "ep.C"])
    def test_array_inversion_matches_the_scalar_bit_for_bit(self, model_for, app):
        import numpy as np

        m = model_for(app)
        rng = np.random.default_rng(24)
        for n_threads in (1, 6, 12, 17, 24):
            _, p_hi, _ = m._at(n_threads)
            p_lo = m.power_range(n_threads).cpu_lo_w
            pkgs = rng.uniform(p_lo - 20.0, p_hi + 20.0, 3000).tolist()
            pkgs += [p_lo, p_hi, np.nextafter(p_lo, 0.0), np.nextafter(p_hi, 0.0)]
            want = [m.max_freq_under(p, n_threads) for p in pkgs]
            assert m.max_freqs_under(pkgs, n_threads) == want
            assert None in want and m._node.socket.f_max in want
            # short runs take the scalar inversion itself
            for size in (5, ARRAY_FREQ_MIN - 1, ARRAY_FREQ_MIN):
                assert m.max_freqs_under(pkgs[:size], n_threads) == want[:size]

    @settings(max_examples=30, deadline=None)
    @given(budget=st.floats(min_value=60.0, max_value=400.0))
    def test_result_within_dvfs_range(self, budget):
        m = _cached_comd_model()
        f = m.max_freq_under(budget, 24)
        socket = m._node.socket
        if f is not None:
            assert socket.f_min <= f <= socket.f_max


class TestPowerRange:
    def test_range_ordering(self, model_for):
        for name in ("comd", "bt-mz.C", "tealeaf"):
            rng = model_for(name).power_range(24)
            assert rng.cpu_lo_w <= rng.cpu_hi_w
            assert rng.mem_lo_w <= rng.mem_hi_w
            assert rng.node_lo_w < rng.node_hi_w

    def test_fewer_threads_lower_floor(self, model_for):
        m = model_for("bt-mz.C")
        assert m.power_range(8).node_lo_w < m.power_range(24).node_lo_w

    def test_memory_intensive_app_keeps_mem_floor(self, model_for):
        # a memory-bound app's DRAM power barely drops at low frequency
        rng = model_for("stream").power_range(24)
        assert rng.mem_lo_w > 0.6 * rng.mem_hi_w

    def test_moderate_bandwidth_app_mem_floor_drops(self, model_for):
        # amg moves real traffic that shrinks at low frequency; EP-style
        # codes sit at the DRAM base power where lo ~= hi
        rng = model_for("amg").power_range(24)
        assert rng.mem_lo_w < 0.95 * rng.mem_hi_w
        rng_ep = model_for("ep.C").power_range(24)
        assert rng_ep.mem_lo_w <= rng_ep.mem_hi_w


class TestBudgetSplit:
    def test_split_sums_within_budget(self, model_for):
        m = model_for("bt-mz.C")
        pkg, dram = m.split_node_budget(200.0, 24)
        assert pkg + dram <= 200.0 * (1 + 1e-9)
        assert pkg > 0 and dram > 0

    def test_memory_app_gets_more_dram(self, model_for):
        _, dram_mem = model_for("stream").split_node_budget(180.0, 24)
        _, dram_cpu = model_for("ep.C").split_node_budget(180.0, 24)
        assert dram_mem > dram_cpu

    def test_infeasible_budget_raises(self, model_for):
        with pytest.raises(InfeasibleBudgetError):
            model_for("comd").split_node_budget(30.0, 24)

    def test_surplus_not_wasted_on_dram(self, model_for):
        # a huge budget should not balloon the DRAM cap past its target
        m = model_for("ep.C")
        _, dram = m.split_node_budget(400.0, 24)
        assert dram < 40.0

    def test_cpu_clipped_at_ceiling(self, model_for):
        m = model_for("ep.C")
        pkg, _ = m.split_node_budget(500.0, 24)
        assert pkg <= m.power_range(24).cpu_hi_w * (1 + 1e-9)


_PROFILES: dict = {}


def _profile_and_node(name):
    """Module-level (profile, node) per app for hypothesis tests: GPU
    apps profile on the GPU testbed, the rest on the paper's testbed."""
    if name not in _PROFILES:
        from repro.core.profile import SmartProfiler
        from repro.hw.cluster import SimulatedCluster
        from repro.hw.specs import gpu_testbed, haswell_testbed
        from repro.sim.engine import ExecutionEngine

        spec = gpu_testbed() if name.endswith("-gpu") else haswell_testbed()
        engine = ExecutionEngine(SimulatedCluster(spec), seed=42)
        profile = SmartProfiler(engine).profile(get_app(name))
        _PROFILES[name] = (profile, engine.cluster.spec.node_specs[0])
    return _PROFILES[name]


def _bits(value):
    """Bit-exact view of a model result (floats, tuples, ranges, errors)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, PowerRange):
        return _bits(
            (value.cpu_lo_w, value.cpu_hi_w, value.mem_lo_w, value.mem_hi_w,
             value.gpu_lo_w, value.gpu_hi_w)
        )
    return value


def _answers(model, n, budgets):
    """Every memoized method's answer at one concurrency."""
    out = [_bits(model.power_range(n)), _bits(model.cap_ceiling_w(n))]
    for budget in budgets:
        try:
            out.append(_bits(model.split_node_budget(budget, n)))
        except InfeasibleBudgetError as exc:
            out.append(("infeasible", str(exc)))
        # PKG budgets straddling the floor exercise the None branch
        out.append(_bits(model.max_freq_under(budget / 2.0, n)))
    return out


class TestMemoizedConstants:
    """The per-concurrency memo is invisible: a warm model answers
    bit for bit like a freshly fitted one, whatever the call order."""

    @settings(max_examples=25, deadline=None)
    @given(
        app=st.sampled_from(["comd", "stream", "sp-mz.C", "minife-gpu"]),
        order=st.permutations(list(range(1, 25))),
        budgets=st.lists(
            st.floats(min_value=40.0, max_value=420.0), min_size=1, max_size=5
        ),
    )
    def test_warm_model_matches_fresh_fit(self, app, order, budgets):
        profile, node = _profile_and_node(app)
        warm = ClipPowerModel(profile, node)
        for n in order:  # fill the memo in a shuffled order first
            warm.power_range(n)
            warm.max_freq_under(budgets[0], n)
        for n in reversed(order):
            fresh = ClipPowerModel(profile, node)
            assert _answers(warm, n, budgets) == _answers(fresh, n, budgets)

    def test_invalid_concurrency_raises_on_every_call(self, model_for):
        m = model_for("comd")
        for _ in range(2):
            with pytest.raises(ProfilingError):
                m.max_freq_under(100.0, 0)
            with pytest.raises(ProfilingError):
                m.power_range(-1)

    @settings(max_examples=200, deadline=None)
    @given(
        f=st.floats(allow_nan=False, allow_infinity=False),
        a=st.floats(allow_nan=False, allow_infinity=False),
        b=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_scalar_min_max_clip_matches_np_clip(self, f, a, b):
        import numpy as np

        lo, hi = min(a, b), max(a, b)
        assert float(min(max(f, lo), hi)).hex() == float(np.clip(f, lo, hi)).hex()
