"""Unit and property tests for the ground-truth power model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpecError
from repro.hw.power import PowerModel
from repro.hw.specs import broadwell_node, gpu_node, haswell_node
from repro.units import ghz

NODE = haswell_node()


@pytest.fixture()
def model():
    return PowerModel(NODE)


class TestCorePower:
    def test_idle_core_draws_leakage_only(self, model):
        assert model.core_power(0.0) == pytest.approx(NODE.socket.core.p_leak_w)

    def test_nominal_full_activity(self, model):
        expected = NODE.socket.core.p_leak_w + NODE.socket.core.p_dyn_w
        assert model.core_power(NODE.socket.f_nominal) == pytest.approx(expected)

    def test_activity_scales_dynamic_only(self, model):
        f = NODE.socket.f_nominal
        full = model.core_power(f, 1.0)
        half = model.core_power(f, 0.5)
        leak = NODE.socket.core.p_leak_w
        assert half - leak == pytest.approx((full - leak) / 2)

    def test_vectorized_over_frequency(self, model):
        freqs = np.array([ghz(1.2), ghz(2.3), ghz(3.1)])
        out = model.core_power(freqs)
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0)

    def test_rejects_bad_activity(self, model):
        with pytest.raises(SpecError):
            model.core_power(ghz(2.0), 1.5)

    @given(
        st.floats(min_value=1.2e9, max_value=3.1e9),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_core_power_bounded(self, f, act):
        model = PowerModel(NODE)
        p = model.core_power(f, act)
        core = NODE.socket.core
        assert core.p_leak_w <= p <= core.p_leak_w + core.p_dyn_w * (
            3.1 / 2.3
        ) ** core.dyn_exponent + 1e-9


class TestPkgPower:
    def test_monotone_in_cores(self, model):
        f = NODE.socket.f_nominal
        powers = [model.pkg_power(n, f) for n in range(13)]
        assert powers == sorted(powers)

    def test_monotone_in_frequency(self, model):
        powers = [model.pkg_power(12, ghz(g)) for g in (1.2, 1.8, 2.3, 3.1)]
        assert powers == sorted(powers)

    def test_zero_cores_is_base(self, model):
        assert model.pkg_power(0, ghz(2.3)) == pytest.approx(
            NODE.socket.p_base_w
        )

    def test_rejects_too_many_cores(self, model):
        with pytest.raises(SpecError):
            model.pkg_power(13, ghz(2.3))

    def test_efficiency_scales_pkg(self):
        hot = PowerModel(NODE, efficiency=1.1)
        cold = PowerModel(NODE, efficiency=1.0)
        assert hot.pkg_power(12, ghz(2.3)) == pytest.approx(
            1.1 * cold.pkg_power(12, ghz(2.3))
        )


class TestDramPower:
    def test_idle_is_base(self, model):
        assert model.dram_power(0.0) == pytest.approx(
            NODE.socket.memory.p_base_w
        )

    def test_full_load(self, model):
        mem = NODE.socket.memory
        assert model.dram_power(mem.peak_bandwidth) == pytest.approx(mem.p_max_w)

    def test_saturates_beyond_peak(self, model):
        mem = NODE.socket.memory
        assert model.dram_power(2 * mem.peak_bandwidth) == pytest.approx(
            mem.p_max_w
        )

    def test_linear_in_bandwidth(self, model):
        mem = NODE.socket.memory
        half = model.dram_power(mem.peak_bandwidth / 2)
        assert half == pytest.approx(mem.p_base_w + mem.p_load_max_w / 2)


class TestInverseModel:
    def test_roundtrip_freq_under_cap(self, model):
        # forward power at a frequency, then invert: must recover >= it
        f = ghz(2.0)
        p = model.pkg_power(12, f, 0.8) + model.pkg_power(12, f, 0.8)
        f_inv = model.max_freq_under_pkg_cap(p, [12, 12], 0.8)
        assert f_inv == pytest.approx(f, rel=1e-6)

    def test_infeasible_cap_returns_none(self, model):
        assert model.max_freq_under_pkg_cap(10.0, [12, 12], 1.0) is None

    def test_generous_cap_clamps_to_fmax(self, model):
        f = model.max_freq_under_pkg_cap(5000.0, [1, 0], 1.0)
        assert f == pytest.approx(NODE.socket.f_max)

    def test_zero_active_cores(self, model):
        f = model.max_freq_under_pkg_cap(100.0, [0, 0], 1.0)
        assert f == pytest.approx(NODE.socket.f_max)

    @given(
        st.floats(min_value=60.0, max_value=250.0),
        st.floats(min_value=0.1, max_value=1.0),
    )
    def test_inverse_respects_cap(self, cap, act):
        model = PowerModel(NODE)
        f = model.max_freq_under_pkg_cap(cap, [12, 12], act)
        if f is not None:
            p = 2 * model.pkg_power(12, f, act)
            assert p <= cap * (1 + 1e-9)

    def test_bandwidth_under_cap_roundtrip(self, model):
        mem = NODE.socket.memory
        bw = model.max_bandwidth_under_dram_cap(mem.p_base_w + mem.p_load_max_w / 2)
        assert bw == pytest.approx(mem.peak_bandwidth / 2)

    def test_bandwidth_cap_below_base(self, model):
        assert model.max_bandwidth_under_dram_cap(1.0) is None

    def test_rejects_nonpositive_efficiency(self):
        with pytest.raises(SpecError):
            PowerModel(NODE, efficiency=0.0)


# ----------------------------------------------------------------------
# float branch vs 0-d array branch: bit identity
# ----------------------------------------------------------------------

#: Every hardware class the testbeds use.
_HW_NODES = (haswell_node(), broadwell_node(), gpu_node())


def _outcome(fn, *args):
    """What a call produced: its exact value (NaN-aware) or its error."""
    try:
        out = fn(*args)
    except (SpecError, ValueError) as exc:
        return ("raises", type(exc), str(exc))
    if out is None:
        return ("none",)
    assert type(out) is float
    return ("nan",) if out != out else ("value", out, np.signbit(out))


def _freqs(node):
    """Ladder frequencies (tabled), f = 0, and arbitrary off-ladder ones."""
    return st.one_of(
        st.sampled_from(node.socket.freq_ladder + (0.0,)),
        st.floats(min_value=-1e9, max_value=5e9),
        st.just(float("nan")),
    )


_activities = st.one_of(
    st.floats(min_value=-0.5, max_value=1.5),
    st.sampled_from([0.0, 0.05, 1.0, float("nan")]),
)


@st.composite
def _power_cases(draw):
    node = draw(st.sampled_from(_HW_NODES))
    efficiency = draw(
        st.one_of(st.just(1.0), st.floats(min_value=0.5, max_value=1.6))
    )
    return PowerModel(node, efficiency=efficiency), draw(_freqs(node))


class TestFloatBranchBitIdentity:
    """Scalar inputs give exactly what 0-d arrays (the array path) give.

    The array branch is the reference: it is the code the scalar engine
    ran before scalars got their own branch, and the batch evaluator is
    pinned to it.  Errors must match too -- NaN inputs pass the range
    checks on both branches, as they always have.
    """

    @settings(max_examples=300, deadline=None)
    @given(case=_power_cases(), act=_activities)
    def test_core_power(self, case, act):
        model, f = case
        assert _outcome(model.core_power, f, act) == _outcome(
            model.core_power, np.asarray(f), np.asarray(act)
        )

    @settings(max_examples=250, deadline=None)
    @given(case=_power_cases(), act=_activities,
           n=st.integers(min_value=-1, max_value=21))
    def test_pkg_power(self, case, act, n):
        model, f = case
        assert _outcome(model.pkg_power, n, f, act) == _outcome(
            model.pkg_power, n, np.asarray(f), np.asarray(act)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        node=st.sampled_from(_HW_NODES),
        efficiency=st.floats(min_value=0.5, max_value=1.6),
        bw=st.one_of(
            st.floats(min_value=-1e9, max_value=1.5e11),
            st.sampled_from([0.0, -0.0, float("nan"), float("inf")]),
        ),
    )
    def test_dram_power(self, node, efficiency, bw):
        model = PowerModel(node, efficiency=efficiency)
        assert _outcome(model.dram_power, bw) == _outcome(
            model.dram_power, np.asarray(bw)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        node=st.sampled_from(_HW_NODES),
        efficiency=st.floats(min_value=0.5, max_value=1.6),
        cap=st.one_of(
            st.floats(min_value=-10.0, max_value=400.0),
            st.just(float("nan")),
        ),
        tps=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        act=_activities,
    )
    def test_max_freq_under_pkg_cap(self, node, efficiency, cap, tps, act):
        model = PowerModel(node, efficiency=efficiency)
        assert _outcome(model.max_freq_under_pkg_cap, cap, tps, act) == (
            _outcome(model.max_freq_under_pkg_cap, cap, tps, np.asarray(act))
        )

    @pytest.mark.parametrize("node", _HW_NODES, ids=lambda n: n.name)
    def test_dense_frequency_sweep(self, node):
        """A fixed off-ladder grid: where a libm ``pow`` would show.

        ``**`` differs from the 0-d ``np.power`` in the last ulp for a
        few percent of arguments on some hosts, too rarely for a
        few hundred random draws to catch every time.
        """
        model = PowerModel(node, efficiency=0.93)
        for f in np.linspace(node.socket.f_min, node.socket.f_max, 3001):
            f = float(f)
            assert model.core_power(f, 0.7) == model.core_power(
                np.asarray(f), np.asarray(0.7)
            )

    def test_ladder_table_is_bounded_by_the_ladder(self):
        model = PowerModel(NODE)
        for f in np.linspace(0.0, 4e9, 257):
            model.core_power(float(f))
        assert len(model._factors) == len(NODE.socket.freq_ladder) + 1

    def test_table_and_batch_share_one_rule(self):
        from repro.hw.power import freq_power_factor, ladder_power_factors

        socket = NODE.socket
        for f, factor in zip(socket.freq_ladder, ladder_power_factors(socket)):
            rel = np.asarray(f, dtype=np.float64) / socket.f_nominal
            assert factor == float(np.power(rel, socket.core.dyn_exponent))
            assert freq_power_factor(socket, f) == factor
