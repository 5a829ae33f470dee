"""Tests for the runtime power re-coordination extension (§VII)."""

import pytest

from repro.core.knowledge import KnowledgeDB
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.errors import InfeasibleBudgetError, NodeFailureError, SchedulingError
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app


@pytest.fixture()
def runtime(engine, trained_inflection):
    clip = ClipScheduler(
        engine, inflection=trained_inflection, knowledge=KnowledgeDB()
    )
    return PowerBoundedRuntime(clip)


class TestLaunch:
    def test_launch_respects_decomposition(self, runtime):
        job = runtime.launch(get_app("bt-mz.C"), 1400.0, n_nodes=4)
        assert job.n_nodes == 4
        assert job.node_ids == (0, 1, 2, 3)
        assert len(job.per_node_caps) == 4
        assert not job.done

    def test_pinned_threads_kept(self, runtime):
        job = runtime.launch(get_app("bt-mz.C"), 1400.0, n_nodes=4, n_threads=20)
        assert job.n_threads == 20

    def test_default_threads_by_class(self, runtime):
        linear = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        assert linear.n_threads == 24
        parabolic = runtime.launch(get_app("sp-mz.C"), 1400.0, n_nodes=4)
        assert parabolic.n_threads < 24

    def test_caps_respect_budget(self, runtime):
        job = runtime.launch(get_app("comd"), 900.0, n_nodes=4)
        total = sum(pkg + dram for pkg, dram in job.per_node_caps)
        assert total <= 900.0 * (1 + 1e-9)

    def test_side_by_side_jobs_get_disjoint_nodes(self, runtime):
        first = runtime.launch(get_app("comd"), 900.0, n_nodes=4)
        second = runtime.launch(get_app("stream"), 900.0, n_nodes=3)
        assert first.node_ids == (0, 1, 2, 3)
        assert second.node_ids == (4, 5, 6)
        with pytest.raises(NodeFailureError):
            runtime.launch(get_app("comd"), 900.0, n_nodes=2)
        runtime.run_to_completion(first)
        third = runtime.launch(get_app("comd"), 900.0, n_nodes=2)
        assert third.node_ids == (0, 1)  # a finished job frees its nodes

    def test_rejects_bad_node_count(self, runtime):
        with pytest.raises(SchedulingError):
            runtime.launch(get_app("comd"), 1400.0, n_nodes=9)

    def test_infeasible_budget_at_pinned_threads(self, runtime):
        with pytest.raises(InfeasibleBudgetError):
            runtime.launch(get_app("comd"), 200.0, n_nodes=8, n_threads=24)

    def test_concurrency_fallback_when_allowed(self, runtime):
        job = runtime.launch(
            get_app("bt-mz.C"), 640.0, n_nodes=8, n_threads=24,
            allow_concurrency_change=True,
        )
        assert job.n_threads < 24


class TestSegments:
    def test_advance_consumes_iterations(self, runtime):
        app = get_app("comd")
        job = runtime.launch(app, 1400.0, n_nodes=4)
        rec = runtime.advance(job, 30)
        assert rec.iterations == 30
        assert job.remaining_iterations == app.iterations - 30
        assert job.elapsed_s == pytest.approx(rec.time_s)

    def test_last_segment_clipped(self, runtime):
        app = get_app("comd")  # 100 iterations
        job = runtime.launch(app, 1400.0, n_nodes=4)
        runtime.advance(job, 90)
        rec = runtime.advance(job, 90)
        assert rec.iterations == 10
        assert job.done

    def test_advance_after_done_raises(self, runtime):
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        runtime.run_to_completion(job)
        with pytest.raises(SchedulingError):
            runtime.advance(job, 1)

    def test_run_to_completion_aggregates(self, runtime):
        app = get_app("comd")
        job = runtime.run_to_completion(
            runtime.launch(app, 1400.0, n_nodes=4), segment_iterations=30
        )
        assert job.done
        assert sum(s.iterations for s in job.segments) == app.iterations
        assert job.mean_performance > 0
        assert job.energy_j > 0


class TestBudgetChanges:
    def test_lower_budget_slows_segments(self, runtime):
        job = runtime.launch(get_app("comd"), 1600.0, n_nodes=8)
        fast = runtime.advance(job, 20)
        runtime.update_budget(job, 900.0)
        slow = runtime.advance(job, 20)
        assert slow.performance < fast.performance
        assert slow.budget_w == 900.0

    def test_raising_budget_restores(self, runtime):
        job = runtime.launch(get_app("comd"), 900.0, n_nodes=8)
        slow = runtime.advance(job, 20)
        runtime.update_budget(job, 1800.0)
        fast = runtime.advance(job, 20)
        assert fast.performance > slow.performance

    def test_budget_drop_below_floor_rejected_when_pinned(self, runtime):
        job = runtime.launch(get_app("comd"), 1600.0, n_nodes=8, n_threads=24)
        with pytest.raises(InfeasibleBudgetError):
            runtime.update_budget(job, 400.0)

    def test_budget_drop_throttles_when_allowed(self, runtime):
        job = runtime.launch(
            get_app("bt-mz.C"), 1600.0, n_nodes=8,
            allow_concurrency_change=True,
        )
        t_before = job.n_threads
        runtime.update_budget(job, 640.0)
        assert job.n_threads <= t_before

    def test_rejects_nonpositive_budget(self, runtime):
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        with pytest.raises(SchedulingError):
            runtime.update_budget(job, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_budget(self, runtime, bad):
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        caps = job.per_node_caps
        with pytest.raises(SchedulingError, match="finite"):
            runtime.update_budget(job, bad)
        with pytest.raises(SchedulingError, match="finite"):
            runtime.recoordinate(job, bad)
        assert job.budget_w == 1400.0 and job.per_node_caps == caps
        with pytest.raises(SchedulingError, match="finite"):
            runtime.launch(get_app("comd"), bad, n_nodes=2)
        assert runtime.jobs == (job,)


class TestDegradation:
    def test_recalibration_compensates_degraded_node(
        self, engine, trained_inflection
    ):
        clip = ClipScheduler(
            engine, inflection=trained_inflection, knowledge=KnowledgeDB()
        )
        runtime = PowerBoundedRuntime(clip)
        app = get_app("comd")

        engine.cluster.degrade_node(2, 1.25)
        # stale factors: uniform caps, degraded node paces the job
        stale_job = runtime.launch(app, 1400.0, n_nodes=4)
        runtime.advance(stale_job, 20)

        runtime.recalibrate()
        fresh_job = runtime.launch(app, 1400.0, n_nodes=4)
        runtime.advance(fresh_job, 20)

        # after recalibration the degraded node receives more power
        caps_total = [p + d for p, d in fresh_job.per_node_caps]
        assert caps_total[2] == max(caps_total)
        assert (
            fresh_job.segments[0].performance
            >= stale_job.segments[0].performance
        )


class TestEmergencyThrottleClassFloor:
    def test_throttle_lands_each_node_on_its_own_class_floor(self):
        """A job living wholly on a non-slot-0 class is throttled to
        that class's floor, not the slot-0 (GPU) class's."""
        from repro.analysis.experiments import build_trained_inflection
        from repro.hw.cluster import SimulatedCluster
        from repro.hw.specs import mixed_gpu_testbed
        from repro.sim.engine import ExecutionEngine

        engine = ExecutionEngine(SimulatedCluster(mixed_gpu_testbed()), seed=42)
        clip = ClipScheduler(
            engine,
            inflection=build_trained_inflection(engine),
            knowledge=KnowledgeDB(),
        )
        runtime = PowerBoundedRuntime(clip)
        for slot in range(4):  # the GPU slots
            runtime.fail_node(slot)
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        assert job.node_ids == (4, 5, 6, 7)
        runtime.emergency_throttle(job)

        pipeline = clip.pipeline
        entry = pipeline.ensure_knowledge(job.app)
        for slot, caps in zip(job.node_ids, job.per_node_caps):
            model = pipeline.class_bundle(
                entry, pipeline.node_specs[slot]
            ).power_model
            floor = model.power_range(job.n_threads).node_lo_w
            assert sum(caps) == pytest.approx(floor, abs=1e-9)
        assert runtime.monitor.n_violations == 0


class TestOneClassBounds:
    """Runtime bounds are scalars exactly when a job's slots share one
    hardware class, whichever class that is, and the journal restores
    both forms."""

    @pytest.fixture()
    def mixed_clip(self, trained_inflection):
        from repro.hw.cluster import SimulatedCluster

        engine = ExecutionEngine(SimulatedCluster.mixed_testbed(), seed=42)
        return ClipScheduler(
            engine, inflection=trained_inflection, knowledge=KnowledgeDB()
        )

    def test_bounds_follow_the_classes_and_survive_restore(
        self, mixed_clip, trained_inflection, tmp_path
    ):
        path = tmp_path / "runtime.jsonl"
        runtime = PowerBoundedRuntime(mixed_clip, journal=path)
        haswell = runtime.launch(get_app("comd"), 700.0, n_nodes=2)
        spanning = runtime.launch(get_app("comd"), 1500.0, n_nodes=6)
        for slot in range(4):  # leave only the Broadwell slots
            runtime.fail_node(slot)
        broadwell = runtime.launch(get_app("comd"), 700.0, n_nodes=2)
        assert haswell.node_ids == (0, 1)
        assert broadwell.node_ids == (4, 5)

        launches = [a for a in runtime.monitor.audits if a.source == "runtime"]
        assert len(launches) == 3
        one, both, other = launches
        assert isinstance(one.node_lo_w, float)
        assert isinstance(both.node_lo_w, tuple) and len(both.node_lo_w) == 6
        assert isinstance(other.node_hi_w, float)
        # the Broadwell-only job is bounded by the Broadwell model
        pipeline = mixed_clip.pipeline
        entry = pipeline.ensure_knowledge(get_app("comd"))
        bw = pipeline.class_bundle(entry, pipeline.node_specs[4]).power_model
        rng = bw.power_range(broadwell.n_threads)
        assert other.node_lo_w == rng.node_lo_w
        assert other.node_hi_w == rng.node_hi_w
        runtime.monitor.assert_clean()

        fresh = ClipScheduler(
            mixed_clip.engine,
            inflection=trained_inflection,
            knowledge=KnowledgeDB(),
        )
        restored = PowerBoundedRuntime.restore(path, fresh, reattach=False)
        assert restored.monitor.audits == runtime.monitor.audits
        for live, back in zip(runtime.jobs, restored.jobs):
            assert back.per_node_caps == live.per_node_caps
            assert back.node_ids == live.node_ids


class TestModelsResolvedOncePerSwing:
    """A re-coordination resolves the app's knowledge entry once and
    fits every hardware class from it; nothing is cached across swings,
    so a refit between two swings reaches every class."""

    @pytest.fixture()
    def mixed(self, trained_inflection):
        from repro.hw.cluster import SimulatedCluster

        engine = ExecutionEngine(SimulatedCluster.mixed_testbed(), seed=42)
        clip = ClipScheduler(
            engine, inflection=trained_inflection, knowledge=KnowledgeDB()
        )
        return clip, PowerBoundedRuntime(clip)

    def test_one_knowledge_pass_per_swing(self, mixed, monkeypatch):
        clip, runtime = mixed
        job = runtime.launch(get_app("comd"), 1500.0, n_nodes=8)
        assert len({clip.engine.cluster.spec.slot_class[i] for i in job.node_ids}) == 2
        passes = []
        pipeline_type = type(clip.pipeline)
        resolve = pipeline_type._ensure_knowledge_ctx

        def counted(self, ctx, trace):
            passes.append(ctx.app.name)
            return resolve(self, ctx, trace)

        monkeypatch.setattr(pipeline_type, "_ensure_knowledge_ctx", counted)
        runtime.update_budget(job, 1400.0)
        runtime.recoordinate(job, 1300.0)
        assert passes == ["comd", "comd"]
        runtime.monitor.assert_clean()

    def test_refit_between_swings_reaches_every_class(self, mixed):
        from repro.core.perfmodel import TimeCalibration

        clip, runtime = mixed
        app = get_app("comd")
        job = runtime.launch(app, 1500.0, n_nodes=8)
        pipeline = clip.pipeline
        before, ranks = runtime._slot_models(runtime._models(app), job.node_ids)
        refitted = pipeline.ensure_knowledge(app).with_refit(
            TimeCalibration(seg1_scale=1.5, seg2_scale=1.5, n_observations=3)
        )
        pipeline.knowledge.put(refitted)
        used = []
        slot_models = runtime._slot_models

        def spy(bundle, node_ids):
            used.append(bundle)
            return slot_models(bundle, node_ids)

        runtime._slot_models = spy
        runtime.update_budget(job, 1400.0)
        (bundle,) = used
        assert bundle.entry is refitted
        after, _ = slot_models(bundle, job.node_ids)
        for k in set(ranks):
            assert after[k] is not before[k]
            spec = pipeline.node_specs[ranks.index(k)]
            assert after[k] is pipeline.class_bundle(refitted, spec).power_model
        runtime.monitor.assert_clean()
