"""Three-domain coordination: GPU fleets end to end.

Covers the accelerator refactor's contracts:

* hypothesis properties over arbitrary budgets on the mixed CPU+GPU
  fleet — per-slot cap totals stay inside that slot's own acceptable
  range, the fleet-wide sum never exceeds the cluster budget, cap
  tuple arity matches each slot's hardware class, and the host↔device
  shift conserves the slot budget it was handed;
* the mixed acceptance sweep — GPU and CPU apps across a budget grid,
  every decision audited by the shared BudgetInvariantMonitor and
  executed on the simulated fleet;
* golden bit-identity — the CPU-only testbeds (haswell, broadwell,
  mixed) produce byte-identical decision documents to the captures
  taken before the accelerator domain existed.

Shared immutable state is module-cached because hypothesis forbids
function-scoped fixtures inside @given.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classify import ScalabilityClass
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import gpu_testbed, mixed_gpu_testbed
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import GPU_APPS, get_app

DATA_DIR = Path(__file__).parent.parent / "data"

#: Apps exercised by the acceptance sweep: every GPU port plus two
#: host-only classes (linear and logarithmic) that land on GPU slots.
SWEEP_APPS = tuple(a.name for a in GPU_APPS) + ("comd", "stream")
SWEEP_BUDGETS = (1400.0, 2200.0, 3000.0)

_STATE: dict = {}


def _inflection():
    if "inflection" not in _STATE:
        from repro.analysis.experiments import build_trained_inflection

        _STATE["inflection"] = build_trained_inflection(
            ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        )
    return _STATE["inflection"]


def scheduler(kind: str) -> ClipScheduler:
    """Module-cached scheduler per testbed kind."""
    if kind not in _STATE:
        spec = {"gpu": gpu_testbed, "mixed-gpu": mixed_gpu_testbed}[kind]()
        engine = ExecutionEngine(SimulatedCluster(spec), seed=42)
        _STATE[kind] = ClipScheduler(engine, inflection=_inflection())
    return _STATE[kind]


class TestThreeDomainProperties:
    """Hypothesis net over the mixed CPU+GPU fleet."""

    @given(
        budget=st.floats(min_value=1200.0, max_value=3600.0),
        app_name=st.sampled_from(("lulesh-gpu", "minife-gpu", "comd")),
    )
    @settings(max_examples=15, deadline=None)
    def test_caps_respect_all_three_domains(self, budget, app_name):
        clip = scheduler("mixed-gpu")
        spec = clip.engine.cluster.spec
        try:
            d = clip.schedule(get_app(app_name), budget)
        except Exception:
            return  # infeasible budgets are exercised elsewhere
        caps = d.per_node_caps
        # fleet sum never exceeds the cluster budget
        total = sum(sum(cap) for cap in caps)
        assert total <= budget * (1.0 + 1e-9) + 1e-6
        # arity matches the slot's hardware class: slots 0-3 carry the
        # board (3 domains), 4-7 are CPU-only (2 domains)
        for rank, cap in enumerate(caps):
            has_gpu = spec.node_specs[rank].has_gpu
            assert len(cap) == (3 if has_gpu else 2), (rank, cap)
            assert all(c >= 0.0 for c in cap), (rank, cap)
        # each slot's total stays inside its own acceptable range
        ranges = d.allocation.node_ranges_w
        if ranges is not None:
            for rank, (cap, (lo, hi)) in enumerate(zip(caps, ranges)):
                node_total = sum(cap)
                slack = 1e-6 + 1e-9 * max(abs(hi), 1.0)
                assert lo - slack <= node_total <= hi + slack, (
                    rank,
                    node_total,
                    (lo, hi),
                )

    @given(
        budget=st.floats(min_value=1400.0, max_value=3600.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_shift_conserves_the_slot_budget(self, budget):
        """pkg + dram + gpu never exceeds the budget the slot was handed."""
        clip = scheduler("mixed-gpu")
        try:
            d = clip.schedule(get_app("hpgmg-gpu"), budget)
        except Exception:
            return
        assert d.scalability_class is ScalabilityClass.GPU_OFFLOAD
        for cfg, slot_budget in zip(
            d.node_configs, d.allocation.node_budgets_w
        ):
            granted = cfg.pkg_cap_w + cfg.dram_cap_w + cfg.gpu_cap_w
            assert granted <= slot_budget * (1.0 + 1e-9) + 1e-6
            if cfg.gpu_cap_w > 0.0 and cfg.predicted_gpu_clock_hz > 0:
                # an active device grant is a real ladder level
                spec = clip.engine.cluster.spec.node_specs[0]
                assert cfg.predicted_gpu_clock_hz in spec.gpu_level_clocks_hz

    @given(budget=st.floats(min_value=1400.0, max_value=3600.0))
    @settings(max_examples=10, deadline=None)
    def test_homogeneous_gpu_fleet_audits_clean(self, budget):
        clip = scheduler("gpu")
        try:
            clip.schedule(get_app("lulesh-gpu"), budget)
        except Exception:
            return
        clip.monitor.assert_clean()


class TestMixedAcceptanceSweep:
    """The ISSUE acceptance criterion: mixed fleet, clean audits."""

    @pytest.fixture(scope="class")
    def swept(self):
        clip = scheduler("mixed-gpu")
        decisions = {}
        for name in SWEEP_APPS:
            for budget in SWEEP_BUDGETS:
                decisions[(name, budget)] = clip.schedule(
                    get_app(name), budget
                )
        return clip, decisions

    def test_monitor_is_clean_across_the_sweep(self, swept):
        clip, decisions = swept
        assert len(decisions) == len(SWEEP_APPS) * len(SWEEP_BUDGETS)
        assert clip.monitor.n_audits >= len(decisions)
        clip.monitor.assert_clean()

    def test_gpu_apps_get_active_grants_cpu_apps_get_idle(self, swept):
        _, decisions = swept
        gpu_names = {a.name for a in GPU_APPS}
        for (name, budget), d in decisions.items():
            cfg0 = d.node_configs[0]  # slot 0 is always a GPU node
            if name in gpu_names:
                assert d.scalability_class is ScalabilityClass.GPU_OFFLOAD
                spec = scheduler("mixed-gpu").engine.cluster.spec
                node = spec.node_specs[0]
                assert cfg0.gpu_cap_w >= node.p_gpu_min_w - 1e-9
                assert cfg0.predicted_gpu_clock_hz > 0
            else:
                # host-only app: the board idles but its draw is capped
                spec = scheduler("mixed-gpu").engine.cluster.spec
                node = spec.node_specs[0]
                assert cfg0.gpu_cap_w == pytest.approx(node.p_gpu_idle_w)
                assert cfg0.predicted_gpu_clock_hz == 0.0

    def test_grants_scale_with_the_budget(self, swept):
        """More cluster power buys a faster device clock."""
        _, decisions = swept
        lo = decisions[("lulesh-gpu", SWEEP_BUDGETS[0])]
        hi = decisions[("lulesh-gpu", SWEEP_BUDGETS[-1])]
        assert (
            hi.node_configs[0].predicted_gpu_clock_hz
            >= lo.node_configs[0].predicted_gpu_clock_hz
        )
        assert hi.node_configs[0].gpu_cap_w >= lo.node_configs[0].gpu_cap_w

    def test_decisions_execute_on_the_fleet(self, swept):
        clip, decisions = swept
        for name in ("lulesh-gpu", "comd"):
            d = decisions[(name, 2200.0)]
            result = clip.engine.run(
                get_app(name), d.to_execution_config(iterations=5)
            )
            assert result.t_step_s > 0
            assert result.avg_power_w > 0

    def test_serialization_round_trips_gpu_grants(self, swept):
        from repro.core.pipeline import SchedulingDecision

        _, decisions = swept
        d = decisions[("minife-gpu", 2200.0)]
        doc = json.loads(json.dumps(d.to_dict()))
        back = SchedulingDecision.from_dict(doc)
        assert back.per_node_caps == d.per_node_caps
        assert [c.predicted_gpu_clock_hz for c in back.node_configs] == [
            c.predicted_gpu_clock_hz for c in d.node_configs
        ]


class TestCpuGoldenBitIdentity:
    """CPU-only decisions are byte-identical to pre-GPU captures."""

    def test_testbed_capture_matches_stored_golden(self):
        sys.path.insert(0, str(DATA_DIR))
        try:
            import capture_golden_testbeds as cg
        finally:
            sys.path.pop(0)
        stored = json.loads(
            (DATA_DIR / "golden_decisions_testbeds.json").read_text()
        )
        assert cg.capture() == stored
