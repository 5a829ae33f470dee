"""Unit and property tests for the ground-truth performance model."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.hw.specs import broadwell_node, gpu_node, haswell_node
from repro.units import ghz
from repro.workloads.apps import GPU_APPS, all_apps
from repro.workloads.characteristics import Phase, WorkloadCharacteristics
from repro.workloads.model import (
    GroundTruthModel,
    _sum_in_order,
    scalability_curve,
    true_inflection_point,
    true_scalability_class,
)

NODE = haswell_node()
MODEL = GroundTruthModel(NODE)
FULL_BW = np.full(2, NODE.socket.memory.peak_bandwidth)


def compute_app(**kw):
    defaults = dict(
        name="compute",
        instructions_per_iter=5e10,
        bytes_per_instruction=0.01,
        serial_fraction=0.0,
        sync_cost_s=0.0,
        ipc_fraction=0.5,
    )
    defaults.update(kw)
    return WorkloadCharacteristics(**defaults)


def memory_app(**kw):
    defaults = dict(
        name="memory",
        instructions_per_iter=1e10,
        bytes_per_instruction=6.0,
        serial_fraction=0.0,
        sync_cost_s=0.0,
        ipc_fraction=0.5,
    )
    defaults.update(kw)
    return WorkloadCharacteristics(**defaults)


class TestPhaseTime:
    def test_compute_bound_scales_with_threads(self):
        t12 = MODEL.phase_time(compute_app(), [6, 6], ghz(2.3), FULL_BW)
        t24 = MODEL.phase_time(compute_app(), [12, 12], ghz(2.3), FULL_BW)
        assert t24.t_iter_s == pytest.approx(t12.t_iter_s / 2, rel=1e-6)
        assert t12.bound == "compute"

    def test_compute_bound_scales_with_frequency(self):
        lo = MODEL.phase_time(compute_app(), [12, 12], ghz(1.2), FULL_BW)
        hi = MODEL.phase_time(compute_app(), [12, 12], ghz(2.4), FULL_BW)
        assert lo.t_iter_s == pytest.approx(2 * hi.t_iter_s, rel=1e-6)

    def test_memory_bound_frequency_insensitive_at_high_f(self):
        # above nominal the uncore is at full speed: memory time flat
        lo = MODEL.phase_time(memory_app(), [12, 12], ghz(2.3), FULL_BW)
        hi = MODEL.phase_time(memory_app(), [12, 12], ghz(3.1), FULL_BW)
        assert hi.bound == "memory"
        assert hi.memory_s == pytest.approx(lo.memory_s, rel=1e-9)

    def test_uncore_scaling_degrades_bandwidth_at_low_f(self):
        nom = MODEL.phase_time(memory_app(), [12, 12], ghz(2.3), FULL_BW)
        low = MODEL.phase_time(memory_app(), [12, 12], ghz(1.2), FULL_BW)
        assert low.memory_s > nom.memory_s

    def test_serial_fraction_adds_floor(self):
        app = compute_app(serial_fraction=0.1)
        t = MODEL.phase_time(app, [12, 12], ghz(2.3), FULL_BW)
        assert t.serial_s > 0
        assert t.t_iter_s > t.compute_s

    def test_sync_cost_linear_in_threads(self):
        app = compute_app(sync_cost_s=1e-3)
        t8 = MODEL.phase_time(app, [4, 4], ghz(2.3), FULL_BW)
        t16 = MODEL.phase_time(app, [8, 8], ghz(2.3), FULL_BW)
        assert t8.sync_s == pytest.approx(7e-3)
        assert t16.sync_s == pytest.approx(15e-3)

    def test_odd_thread_penalty(self):
        even = MODEL.phase_time(compute_app(), [4, 4], ghz(2.3), FULL_BW)
        odd = MODEL.phase_time(compute_app(), [4, 3], ghz(2.3), FULL_BW)
        # 7 threads do less work in parallel AND pay the odd penalty
        per_thread_even = even.t_iter_s * 8
        per_thread_odd = odd.t_iter_s * 7 / 1.015
        assert per_thread_odd == pytest.approx(per_thread_even, rel=1e-6)

    def test_remote_fraction_slows_memory(self):
        local = MODEL.phase_time(memory_app(), [6, 6], ghz(2.3), FULL_BW, 0.0)
        remote = MODEL.phase_time(memory_app(), [6, 6], ghz(2.3), FULL_BW, 0.5)
        assert remote.memory_s > local.memory_s

    def test_work_fraction_scales_volume(self):
        full = MODEL.phase_time(compute_app(), [12, 12], ghz(2.3), FULL_BW)
        half = MODEL.phase_time(
            compute_app(), [12, 12], ghz(2.3), FULL_BW, work_fraction=0.5
        )
        assert half.instructions == pytest.approx(full.instructions / 2)
        assert half.t_iter_s == pytest.approx(full.t_iter_s / 2, rel=1e-6)

    def test_bw_limit_throttles_memory(self):
        capped = np.full(2, 1e10)
        t = MODEL.phase_time(memory_app(), [12, 12], ghz(2.3), capped)
        free = MODEL.phase_time(memory_app(), [12, 12], ghz(2.3), FULL_BW)
        assert t.memory_s > free.memory_s

    def test_activity_low_when_memory_bound(self):
        t = MODEL.phase_time(memory_app(), [12, 12], ghz(2.3), FULL_BW)
        assert t.activity < 0.5

    def test_activity_high_when_compute_bound(self):
        t = MODEL.phase_time(compute_app(), [12, 12], ghz(2.3), FULL_BW)
        assert t.activity > 0.9

    def test_rejects_zero_threads(self):
        with pytest.raises(WorkloadError):
            MODEL.phase_time(compute_app(), [0, 0], ghz(2.3), FULL_BW)

    def test_rejects_overfull_socket(self):
        with pytest.raises(WorkloadError):
            MODEL.phase_time(compute_app(), [13, 0], ghz(2.3), FULL_BW)

    def test_rejects_bad_work_fraction(self):
        with pytest.raises(WorkloadError):
            MODEL.phase_time(
                compute_app(), [6, 6], ghz(2.3), FULL_BW, work_fraction=0.0
            )

    @settings(max_examples=50)
    @given(
        n1=st.integers(min_value=0, max_value=12),
        n2=st.integers(min_value=0, max_value=12),
        bpi=st.floats(min_value=0.0, max_value=8.0),
    )
    def test_time_positive_and_consistent(self, n1, n2, bpi):
        if n1 + n2 == 0:
            return
        app = compute_app(bytes_per_instruction=bpi)
        t = MODEL.phase_time(app, [n1, n2], ghz(2.3), FULL_BW)
        assert t.t_iter_s > 0
        assert t.t_iter_s >= max(t.compute_s, t.memory_s)


class TestPhases:
    def test_phase_times_sum(self):
        app = compute_app(
            phases=(Phase("a", 0.5), Phase("b", 0.5)),
        )
        whole = MODEL.iteration_time(app, [12, 12], ghz(2.3), FULL_BW)
        flat = MODEL.iteration_time(
            compute_app(), [12, 12], ghz(2.3), FULL_BW
        )
        assert whole.t_iter_s == pytest.approx(flat.t_iter_s, rel=1e-9)

    def test_max_useful_threads_caps_phase(self):
        app = compute_app(
            phases=(
                Phase("solve", 0.5),
                Phase("exchange", 0.5, max_useful_threads=4),
            ),
        )
        t24 = MODEL.iteration_time(app, [12, 12], ghz(2.3), FULL_BW)
        t4 = MODEL.iteration_time(app, [2, 2], ghz(2.3), FULL_BW)
        # the exchange phase runs no faster with 24 threads than with 4
        assert t24.t_iter_s > t4.t_iter_s / 6

    def test_phase_thread_override(self):
        app = compute_app(phases=(Phase("main", 1.0),))
        base = MODEL.iteration_time(app, [12, 12], ghz(2.3), FULL_BW)
        overridden = MODEL.iteration_time(
            app, [12, 12], ghz(2.3), FULL_BW,
            phase_threads={"main": (2, 2)},
        )
        assert overridden.t_iter_s > base.t_iter_s


class TestCurveAnalysis:
    def test_compute_app_is_linear(self):
        assert true_scalability_class(compute_app(), NODE) == "linear"

    def test_memory_app_is_logarithmic(self):
        assert true_scalability_class(memory_app(), NODE) == "logarithmic"

    def test_contended_app_is_parabolic(self):
        app = memory_app(sync_cost_s=0.02)
        assert true_scalability_class(app, NODE) == "parabolic"

    def test_linear_np_is_full_cores(self):
        assert true_inflection_point(compute_app(), NODE) == NODE.n_cores

    def test_memory_np_interior(self):
        np_ = true_inflection_point(memory_app(), NODE)
        assert 2 <= np_ < NODE.n_cores
        assert np_ % 2 == 0

    def test_parabolic_np_at_peak(self):
        app = memory_app(sync_cost_s=0.02)
        np_ = true_inflection_point(app, NODE)
        ns, perfs = scalability_curve(app, NODE)
        peak_n = int(ns[int(np.argmax(perfs))])
        assert abs(np_ - peak_n) <= 2

    def test_curve_shape(self):
        ns, perfs = scalability_curve(compute_app(), NODE)
        assert len(ns) == NODE.n_cores
        assert perfs[-1] > perfs[0]

    def test_curve_custom_grid(self):
        ns, perfs = scalability_curve(
            compute_app(), NODE, n_threads=np.array([4, 8, 16])
        )
        assert list(ns) == [4, 8, 16]
        assert len(perfs) == 3


# ----------------------------------------------------------------------
# per-socket inputs: tuples, lists and arrays time identically
# ----------------------------------------------------------------------

_APPS = all_apps() + GPU_APPS
_NODES = (haswell_node(), broadwell_node(), gpu_node())


def _timing_or_error(fn, *args, **kw) -> str:
    """The call's result or error as text: ``repr`` round-trips every
    float exactly and, unlike ``==``, equates NaN with NaN (a denormal
    bandwidth limit makes the iteration time infinite)."""
    try:
        return repr(fn(*args, **kw))
    except (WorkloadError, ZeroDivisionError) as exc:  # 0 B/s: dram / 0.0
        return f"{type(exc).__name__}: {exc}"


@st.composite
def _timing_cases(draw):
    node = draw(st.sampled_from(_NODES))
    cores = node.socket.n_cores
    tps = draw(st.tuples(*(st.integers(0, cores) for _ in range(node.n_sockets))))
    peak = node.socket.memory.peak_bandwidth
    bw = draw(st.tuples(*(
        st.floats(min_value=0.0, max_value=peak) for _ in range(node.n_sockets)
    )))
    return {
        "model": GroundTruthModel(node),
        "app": draw(st.sampled_from(_APPS)),
        "tps": tps,
        "f": draw(st.sampled_from(node.socket.freq_ladder)),
        "bw": bw,
        "remote": draw(st.floats(min_value=0.0, max_value=1.0)),
        "work": draw(st.floats(min_value=1e-3, max_value=1.0)),
        "gpu_rate": draw(st.sampled_from([0.0, 1e12, 3.7e13])),
    }


class TestPerSocketInputForms:
    """The model times per-socket tuples on Python floats; arrays and
    lists are cast to the same tuples, so every input form gives the
    same bits (and the same errors)."""

    @settings(max_examples=150, deadline=None)
    @given(case=_timing_cases())
    def test_phase_time_tuple_equals_ndarray(self, case):
        model, app = case["model"], case["app"]
        kw = dict(remote_fraction=case["remote"], work_fraction=case["work"],
                  gpu_rate=case["gpu_rate"])
        as_tuple = _timing_or_error(
            model.phase_time, app, case["tps"], case["f"], case["bw"], **kw
        )
        as_array = _timing_or_error(
            model.phase_time, app, np.asarray(case["tps"]), case["f"],
            np.asarray(case["bw"]), **kw
        )
        as_list = _timing_or_error(
            model.phase_time, app, list(case["tps"]), case["f"],
            list(case["bw"]), **kw
        )
        assert as_tuple == as_array == as_list

    @settings(max_examples=150, deadline=None)
    @given(case=_timing_cases(), solve=st.integers(1, 12))
    def test_iteration_time_tuple_equals_ndarray(self, case, solve):
        model, app = case["model"], case["app"]
        kw = dict(remote_fraction=case["remote"], work_fraction=case["work"],
                  gpu_rate=case["gpu_rate"])
        over = {p.name: (solve, 0) for p in app.phases[:1]}
        as_tuple = _timing_or_error(
            model.iteration_time, app, case["tps"], case["f"], case["bw"],
            phase_threads=over, **kw
        )
        as_array = _timing_or_error(
            model.iteration_time, app, np.asarray(case["tps"]), case["f"],
            np.asarray(case["bw"]),
            phase_threads={k: np.asarray(v) for k, v in over.items()}, **kw
        )
        assert as_tuple == as_array

    @settings(max_examples=100, deadline=None)
    @given(case=_timing_cases())
    def test_implicit_phase_equals_explicit_phase_view(self, case):
        """A phase-less app is timed on its own numbers, skipping the
        ``phase_view`` copy; an explicit weight-1 phase takes the copy."""
        model, app = case["model"], case["app"]
        if app.phases or sum(case["tps"]) == 0:
            return
        explicit = replace(app, phases=(Phase("main", 1.0),))
        args = (case["tps"], case["f"], case["bw"])
        kw = dict(remote_fraction=case["remote"], work_fraction=case["work"],
                  gpu_rate=case["gpu_rate"])
        assert _timing_or_error(model.iteration_time, app, *args, **kw) == (
            _timing_or_error(model.iteration_time, explicit, *args, **kw)
        )

    @pytest.mark.parametrize(
        "tps,bw",
        [
            ([[6, 6]], FULL_BW),          # 2-D threads
            (6, FULL_BW),                 # 0-D threads
            ([6, 6, 6], FULL_BW),         # wrong socket count
            ([13, 0], FULL_BW),           # over a socket's cores
            ([-1, 6], FULL_BW),           # negative
            ([0, 0], FULL_BW),            # no threads
            ([6, 6], np.full((1, 2), 1e10)),  # 2-D bandwidth
            ([6, 6], [1e10]),             # short bandwidth
        ],
    )
    def test_bad_input_raises_workload_error(self, tps, bw):
        for form in (lambda x: x, np.asarray):
            with pytest.raises(WorkloadError):
                MODEL.phase_time(compute_app(), form(tps), ghz(2.3), bw)
            with pytest.raises(WorkloadError):
                MODEL.iteration_time(compute_app(), form(tps), ghz(2.3), bw)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
        st.one_of(
            st.floats(allow_nan=False, width=64),
            st.sampled_from([0.0, -0.0]),
        ),
        min_size=1, max_size=12,
    ))
    def test_socket_sum_matches_ndarray_sum(self, values):
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
            ref = np.asarray(values, dtype=np.float64).sum()
            got = _sum_in_order(tuple(values))
        assert (got == ref or (got != got and ref != ref))
        assert np.signbit(got) == np.signbit(ref)
