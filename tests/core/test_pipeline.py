"""Tests for the staged decision pipeline (repro.core.pipeline).

Covers the refactor's contracts:

* golden equivalence — pipeline decisions match the pre-refactor
  scheduler bit for bit on the Table-II suite across a budget sweep;
* warm-path caching — a knowledge-DB hit rebuilds nothing: zero
  profiling runs and exactly one ModelBundle construction across
  repeated ``schedule()`` calls for the same app;
* serialization — ``SchedulingDecision.to_dict``/``from_dict``
  round-trips, JSON-safety of the trace and context;
* the budget invariant — ``total_capped_w <= cluster_budget_w`` for
  every decision the pipeline emits across the app/budget matrix;
* single construction site — no consumer module constructs
  ``PerformancePredictor`` / ``ClipPowerModel`` / ``Recommender``
  directly (grep-enforced).
"""

import json
import re
from pathlib import Path

import pytest

from repro.core.pipeline import DecisionPipeline, SchedulingDecision
from repro.core.scheduler import ClipScheduler
from repro.errors import ClipError, SchedulingError
from repro.workloads.apps import TABLE2_APPS, get_app

GOLDEN_PATH = Path(__file__).parent.parent / "data" / "golden_decisions.json"

#: Stage names, in the order Algorithm 1 lists them.
STAGE_ORDER = [
    "profile",
    "classify",
    "inflection",
    "fit_models",
    "allocate",
    "recommend",
]

#: Every trace additionally records the budget-invariant audit event.
TRACE_ORDER = STAGE_ORDER + ["audit"]


@pytest.fixture()
def clip(engine, trained_inflection):
    return ClipScheduler(engine, inflection=trained_inflection)


@pytest.fixture(scope="module")
def warm_clip(trained_inflection):
    """A module-scoped scheduler whose knowledge DB fills up once."""
    from repro.hw.cluster import SimulatedCluster
    from repro.sim.engine import ExecutionEngine

    engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
    return ClipScheduler(engine, inflection=trained_inflection)


class TestGoldenEquivalence:
    """Refactored pipeline == pre-refactor scheduler, decision for decision."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_full_sweep(self, warm_clip, golden):
        budgets = golden["budgets"]
        for app in TABLE2_APPS:
            for budget in budgets:
                key = f"{app.name}@{budget:.0f}"
                expected = golden["decisions"][key]
                try:
                    d = warm_clip.schedule(app, budget)
                except ClipError as exc:
                    assert expected.get("error") == type(exc).__name__, key
                    continue
                assert "error" not in expected, key
                assert d.n_nodes == expected["n_nodes"], key
                assert d.n_threads == expected["n_threads"], key
                assert d.node_configs[0].affinity.value == expected["affinity"], key
                assert d.inflection_point == expected["inflection_point"], key
                assert d.scalability_class.value == expected["scalability_class"], key
                assert dict(sorted(d.phase_threads.items())) == expected[
                    "phase_threads"
                ], key
                caps = [
                    [round(c.pkg_cap_w, 6), round(c.dram_cap_w, 6)]
                    for c in d.node_configs
                ]
                assert caps == expected["caps"], key
                assert round(d.total_capped_w, 6) == pytest.approx(
                    expected["total_capped_w"], abs=1e-5
                ), key


class TestWarmPath:
    """A knowledge hit must rebuild nothing (satellite regression test)."""

    def test_zero_profiles_one_bundle_when_warm(self, clip, monkeypatch):
        app = get_app("sp-mz.C")
        clip.schedule(app, 1400.0)  # cold: profiles and fits once
        cache = clip.pipeline.bundle_cache
        builds_after_cold = cache.misses
        assert builds_after_cold == 1

        profile_calls = 0
        profiler = clip.pipeline._profiler
        real_profile = profiler.profile

        def counting_profile(app_):
            nonlocal profile_calls
            profile_calls += 1
            return real_profile(app_)

        monkeypatch.setattr(profiler, "profile", counting_profile)
        for budget in (900.0, 1400.0, 2000.0, 1400.0):
            clip.schedule(app, budget)
        assert profile_calls == 0
        assert cache.misses == builds_after_cold  # no re-fit, ever
        assert cache.hits >= 4

    def test_trace_marks_warm_stages(self, clip):
        app = get_app("comd")
        _, cold = clip.schedule_traced(app, 1400.0)
        _, warm = clip.schedule_traced(app, 1400.0)
        assert [s.stage for s in cold.stages] == TRACE_ORDER
        assert [s.stage for s in warm.stages] == TRACE_ORDER
        assert cold.stage("profile").outputs["knowledge_hit"] is False
        assert warm.stage("profile").outputs["knowledge_hit"] is True
        assert cold.stage("fit_models").outputs["bundle_cached"] is False
        assert warm.stage("fit_models").outputs["bundle_cached"] is True

    def test_bundle_shared_across_consumers(self, clip):
        """Scheduler, runtime and multijob reuse one bundle."""
        from repro.core.multijob import MultiJobCoordinator
        from repro.core.runtime import PowerBoundedRuntime

        app = get_app("comd")
        clip.schedule(app, 1400.0)
        cache = clip.pipeline.bundle_cache
        builds = cache.misses
        PowerBoundedRuntime(clip).launch(app, 1200.0, n_nodes=4)
        MultiJobCoordinator(clip).partition([app], 1400.0)
        assert cache.misses == builds  # everyone hit the cached bundle


class TestBudgetValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_budget_rejected_before_any_stage(self, clip, bad):
        with pytest.raises(SchedulingError, match="finite"):
            clip.schedule(get_app("comd"), bad)
        assert len(clip.knowledge) == 0  # nothing was profiled


class TestSerialization:
    """SchedulingDecision and the trace are JSON round-trippable."""

    @pytest.mark.parametrize("name", ["comd", "sp-mz.C", "bt-mz.C"])
    def test_roundtrip_equality(self, warm_clip, name):
        d = warm_clip.schedule(get_app(name), 1400.0)
        wire = json.dumps(d.to_dict())
        back = SchedulingDecision.from_dict(json.loads(wire))
        assert back == d
        assert back.to_dict() == d.to_dict()

    def test_trace_is_json_safe(self, warm_clip):
        _, trace = warm_clip.schedule_traced(get_app("comd"), 1400.0)
        payload = json.loads(json.dumps(trace.to_dict()))
        assert [s["stage"] for s in payload["stages"]] == TRACE_ORDER
        assert payload["total_time_s"] >= 0
        assert all(s["wall_time_s"] >= 0 for s in payload["stages"])

    def test_context_is_json_safe(self, warm_clip):
        from repro.core.pipeline import DecisionContext

        app = get_app("comd")
        ctx = DecisionContext(app=app, cluster_budget_w=1400.0)
        payload = json.loads(json.dumps(ctx.to_dict()))
        assert payload["app_name"] == "comd"
        assert payload["decision"] is None

    @pytest.mark.parametrize("name", [a.name for a in TABLE2_APPS])
    @pytest.mark.parametrize("budget", [700.0, 1200.0, 1800.0, 2400.0])
    def test_budget_invariant_matrix(self, warm_clip, name, budget):
        """Property: every emitted decision respects its power bound."""
        try:
            d = warm_clip.schedule(get_app(name), budget)
        except ClipError:
            return  # infeasible corner of the matrix — nothing emitted
        assert d.total_capped_w <= budget * (1 + 1e-9)
        roundtrip = SchedulingDecision.from_dict(d.to_dict())
        assert roundtrip.total_capped_w <= budget * (1 + 1e-9)


class TestScheduleMany:
    def test_batch_matches_singles(self, warm_clip):
        apps = [get_app("comd"), get_app("sp-mz.C"), get_app("comd")]
        batch = warm_clip.schedule_many(apps, 1400.0)
        assert len(batch) == 3
        assert batch[0] == warm_clip.schedule(get_app("comd"), 1400.0)
        assert batch[1] == warm_clip.schedule(get_app("sp-mz.C"), 1400.0)
        # duplicate submissions share one pipeline pass (equal plans)
        # but each gets its own decision with independent phase_threads
        # — see tests/core/test_concurrency.py for the aliasing
        # regression this prevents
        assert batch[2] == batch[0]
        assert batch[2] is not batch[0]
        assert batch[2].phase_threads is not batch[0].phase_threads

    def test_batch_profiles_each_app_once(self, engine, trained_inflection):
        clip = ClipScheduler(engine, inflection=trained_inflection)
        apps = [get_app("comd")] * 4 + [get_app("minimd")] * 3
        clip.schedule_many(apps, 1400.0)
        assert clip.pipeline.bundle_cache.misses == 2


class TestSingleConstructionSite:
    """Model fitting happens only inside core/pipeline.py."""

    CONSUMERS = [
        "src/repro/core/scheduler.py",
        "src/repro/core/multijob.py",
        "src/repro/core/jobqueue.py",
        "src/repro/core/runtime.py",
        "src/repro/baselines/coordinated.py",
    ]
    FORBIDDEN = re.compile(
        r"\b(PerformancePredictor|ClipPowerModel|Recommender)\s*\("
    )

    @pytest.mark.parametrize("rel_path", CONSUMERS)
    def test_no_direct_model_construction(self, rel_path):
        root = Path(__file__).parent.parent.parent
        source = (root / rel_path).read_text()
        matches = self.FORBIDDEN.findall(source)
        assert not matches, f"{rel_path} constructs models directly: {matches}"


class TestHeterogeneityLayering:
    """No decision-stack module assumes a single node class.

    ``ClusterSpec.node`` is the legacy single-class accessor (it raises
    on mixed clusters); every module under ``core/`` and ``baselines/``
    must go through ``node_specs`` instead, so a heterogeneous cluster
    flows through the whole stack without special cases.  ``node_specs``
    itself does not match — ``_`` is a word character.
    """

    FORBIDDEN = re.compile(r"\bspec\.node\b")

    def _layer_files(self):
        src = Path(__file__).parent.parent.parent / "src" / "repro"
        for layer in ("core", "baselines"):
            yield from sorted((src / layer).glob("*.py"))

    def test_no_single_class_spec_access(self):
        offenders = {
            path.name: self.FORBIDDEN.findall(path.read_text())
            for path in self._layer_files()
            if self.FORBIDDEN.search(path.read_text())
        }
        assert not offenders, (
            f"modules reach for the single-class spec.node accessor: {offenders}"
        )

    def test_layer_scan_is_not_vacuous(self):
        files = list(self._layer_files())
        assert len(files) >= 10, "layering scan found suspiciously few modules"


class TestGpuLayering:
    """``hw/`` GPU internals stay out of the decision stack.

    ``core/`` and ``baselines/`` may consume the accelerator domain
    only through spec-level views (``p_gpu_max_w``,
    ``gpu_cap_levels_w``, ``gpu_level_clocks_hz``, ``has_gpu``, …) —
    never ``GpuSpec`` itself, the RAPL ``Domain.GPU`` enum, or a bare
    ``.gpu`` attribute walk.  The underscore keeps ``.gpu_*`` view
    accessors from matching (``_`` is a word character), exactly like
    the ``node_specs`` carve-out above.
    """

    FORBIDDEN = re.compile(r"\bGpuSpec\b|\bDomain\.GPU\b|\.gpu\b")

    def _layer_files(self):
        src = Path(__file__).parent.parent.parent / "src" / "repro"
        for layer in ("core", "baselines"):
            yield from sorted((src / layer).glob("*.py"))

    def test_no_gpu_internals_in_decision_stack(self):
        offenders = {
            path.name: self.FORBIDDEN.findall(path.read_text())
            for path in self._layer_files()
            if self.FORBIDDEN.search(path.read_text())
        }
        assert not offenders, (
            f"decision-stack modules reach into hw/ GPU internals: {offenders}"
        )

    def test_scan_catches_the_forbidden_forms(self):
        # the regex itself is load-bearing; prove it matches the three
        # access forms and passes the allowed spec-level views
        assert self.FORBIDDEN.search("spec.gpu.p_idle_w")
        assert self.FORBIDDEN.search("GpuSpec()")
        assert self.FORBIDDEN.search("Domain.GPU")
        assert not self.FORBIDDEN.search("node.gpu_cap_levels_w")
        assert not self.FORBIDDEN.search("self._power.gpu_power_range()")


class TestPipelineDirect:
    def test_pipeline_standalone(self, engine, trained_inflection):
        """The pipeline works without the ClipScheduler facade."""
        pipeline = DecisionPipeline(engine, trained_inflection)
        d = pipeline.decide(get_app("comd"), 1400.0)
        assert d.n_nodes >= 1
        assert [s.name for s in pipeline.stages] == STAGE_ORDER

    def test_rejects_nonpositive_budget(self, engine, trained_inflection):
        from repro.errors import SchedulingError

        pipeline = DecisionPipeline(engine, trained_inflection)
        with pytest.raises(SchedulingError):
            pipeline.decide(get_app("comd"), 0.0)
