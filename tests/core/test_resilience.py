"""Chaos acceptance sweep: the self-healing enforcement story end to end.

Scripts combining fallible actuation, lying sensors, node churn, and
budget swings drive journaled, watchdog-guarded runtimes on the mixed
CPU testbed and the mixed CPU+GPU fleet.  The acceptance bar:

* every job completes (no scenario wedges the runtime);
* the shared :class:`BudgetInvariantMonitor` ledger stays clean —
  every cap set, including the watchdog's corrective ones, respects
  the budget it was planned against;
* a scripted mid-flight crash restores from the journal bit-identically
  (``RunningJob`` state and monitor records exactly) and resumes the
  *same* fault script to completion;
* a corrupt knowledge database degrades to profile-from-scratch
  instead of crashing the drain.

Shared immutable state is module-cached (hypothesis-style) because
training the inflection predictor dominates the suite's runtime.
"""

import pytest

from repro.core.jobqueue import PowerBoundedJobQueue
from repro.core.knowledge import KnowledgeDB
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.core.watchdog import PowerEnforcementWatchdog
from repro.errors import KnowledgeError, RuntimeCrashError
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import mixed_gpu_testbed, mixed_testbed
from repro.sim.engine import ExecutionEngine
from repro.sim.faults import FaultEvent, FaultInjector, run_scripted
from repro.workloads.apps import get_app

_STATE: dict = {}


def _inflection():
    if "inflection" not in _STATE:
        from repro.analysis.experiments import build_trained_inflection

        _STATE["inflection"] = build_trained_inflection(
            ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        )
    return _STATE["inflection"]


def scheduler(kind: str) -> ClipScheduler:
    """Module-cached scheduler per testbed kind, reset for reuse."""
    if kind not in _STATE:
        spec = {"mixed": mixed_testbed, "mixed-gpu": mixed_gpu_testbed}[kind]()
        engine = ExecutionEngine(SimulatedCluster(spec), seed=42)
        _STATE[kind] = ClipScheduler(engine, inflection=_inflection())
    clip = _STATE[kind]
    clip.engine.cluster.reset()
    clip.monitor.reset()
    return clip


#: Chaos scripts: actuation faults x sensor faults x churn x budget
#: swings.  Each entry is (name, events) — timings are in simulated
#: seconds of job runtime, early enough to fire on every scenario.
CHAOS_SCRIPTS = (
    (
        "drift+noise",
        [
            FaultEvent(at_s=0.0, action="cap_drift", factor=0.20, seed=21),
            FaultEvent(at_s=0.0, action="sensor_noise", factor=0.03, seed=22),
        ],
    ),
    (
        "drops+stale+swing",
        [
            FaultEvent(at_s=0.0, action="cap_write_fail", factor=0.5, seed=23),
            FaultEvent(at_s=0.3, action="sensor_stale", factor=2, seed=24),
            FaultEvent(at_s=0.6, action="set_budget", budget_w=0.85),
            FaultEvent(at_s=1.2, action="set_budget", budget_w=1.0),
        ],
    ),
    (
        "churn+drift+swing",
        [
            FaultEvent(at_s=0.0, action="cap_drift", factor=0.15, seed=25),
            FaultEvent(at_s=0.3, action="fail_node", node_id=1),
            FaultEvent(at_s=0.6, action="set_budget", budget_w=0.8),
            FaultEvent(at_s=0.9, action="recover_node", node_id=1),
            FaultEvent(at_s=1.2, action="set_budget", budget_w=1.0),
        ],
    ),
)


def _resolve_budgets(events, budget_w):
    """Scale the scripts' fractional ``set_budget`` values to watts."""
    out = []
    for e in events:
        if e.action == "set_budget":
            out.append(
                FaultEvent(
                    at_s=e.at_s, action="set_budget",
                    budget_w=e.budget_w * budget_w,
                )
            )
        else:
            out.append(e)
    return out


def _run_chaos(kind, app_name, budget_w, events, tmp_path, name):
    clip = scheduler(kind)
    journal = tmp_path / f"{name}.journal"
    runtime = PowerBoundedRuntime(clip, journal=journal)
    dog = PowerEnforcementWatchdog(runtime)
    injector = FaultInjector(
        clip.engine.cluster,
        _resolve_budgets(events, budget_w),
        budget_w=budget_w,
    )
    job = runtime.launch(
        get_app(app_name), budget_w, n_nodes=6,
        allow_concurrency_change=True, allow_shrink=True,
    )
    run_scripted(runtime, job, injector, segment_iterations=10)
    assert job.done
    clip.monitor.assert_clean()
    return runtime, dog, job


class TestChaosSweepMixed:
    @pytest.mark.parametrize(
        "name,events", CHAOS_SCRIPTS, ids=[n for n, _ in CHAOS_SCRIPTS]
    )
    def test_mixed_fleet_survives(self, tmp_path, name, events):
        runtime, dog, job = _run_chaos(
            "mixed", "comd", 1050.0, events, tmp_path, name
        )
        rep = dog.report()
        assert rep["observations"] >= len(job.segments)
        # breaches, when provoked, are corrected within a few segments
        if rep["breaches"]:
            assert rep["max_breach_segments"] <= 6

    def test_drift_provokes_correction_on_mixed(self, tmp_path):
        _, dog, _ = _run_chaos(
            "mixed", "comd", 1050.0, CHAOS_SCRIPTS[0][1], tmp_path, "drift"
        )
        rep = dog.report()
        assert rep["breaches"] >= 1
        assert any(
            a in rep["actions"] for a in ("reissue", "recoordinate", "emergency")
        )


class TestChaosSweepMixedGpu:
    @pytest.mark.parametrize(
        "name,events", CHAOS_SCRIPTS, ids=[n for n, _ in CHAOS_SCRIPTS]
    )
    def test_gpu_fleet_survives(self, tmp_path, name, events):
        runtime, dog, job = _run_chaos(
            "mixed-gpu", "lulesh-gpu", 2000.0, events, tmp_path, name
        )
        # the decomposition spans both hardware classes: GPU slots get
        # three-domain cap tuples, CPU slots two-domain ones
        arities = sorted({len(c) for c in job.per_node_caps})
        assert arities == [2, 3]


class TestCrashReplay:
    def test_bit_identical_restore_and_resume(self, tmp_path):
        clip = scheduler("mixed")
        journal = tmp_path / "crash.journal"
        runtime = PowerBoundedRuntime(clip, journal=journal)
        PowerEnforcementWatchdog(runtime)
        injector = FaultInjector(
            clip.engine.cluster,
            [
                FaultEvent(at_s=0.0, action="cap_drift", factor=0.15, seed=31),
                FaultEvent(at_s=0.8, action="set_budget", budget_w=900.0),
                FaultEvent(at_s=1.2, action="crash"),
                FaultEvent(at_s=1.6, action="set_budget", budget_w=1050.0),
            ],
            budget_w=1050.0,
        )
        job = runtime.launch(
            get_app("comd"), 1050.0, n_nodes=6,
            allow_concurrency_change=True,
        )
        with pytest.raises(RuntimeCrashError):
            run_scripted(runtime, job, injector, segment_iterations=10)
        assert not job.done  # the crash interrupted the run
        pre_audits = list(clip.monitor.audits)

        clip.monitor.reset()
        restored = PowerBoundedRuntime.restore(journal, clip)
        dog2 = PowerEnforcementWatchdog(restored)
        assert len(restored.jobs) == 1
        job2 = restored.jobs[0]
        # bit-identity: every RunningJob field (dataclass equality
        # covers app, caps, segments) and every monitor record
        assert job2 == job
        assert list(clip.monitor.audits) == pre_audits

        # the same injector resumes the script past the crash
        run_scripted(restored, job2, injector, segment_iterations=10)
        assert job2.done
        assert job2.budget_w == pytest.approx(1050.0)  # final swing applied
        clip.monitor.assert_clean()
        assert dog2.report()["observations"] > 0

    def test_restore_into_fresh_scheduler(self, tmp_path):
        clip = scheduler("mixed")
        journal = tmp_path / "fresh.journal"
        runtime = PowerBoundedRuntime(clip, journal=journal)
        job = runtime.launch(get_app("comd"), 1050.0, n_nodes=4)
        runtime.advance(job, 10)
        pre_audits = list(clip.monitor.audits)

        spec = mixed_testbed()
        fresh = ClipScheduler(
            ExecutionEngine(SimulatedCluster(spec), seed=42),
            inflection=_inflection(),
        )
        restored = PowerBoundedRuntime.restore(journal, fresh, reattach=False)
        assert restored.jobs[0] == job
        assert list(fresh.monitor.audits) == pre_audits


class TestKnowledgeDegradation:
    def test_corrupt_db_degrades_to_profiling(self, tmp_path):
        path = tmp_path / "knowledge.json"
        path.write_text('{"version": 1, "entries": [{"profile":')  # truncated
        with pytest.raises(KnowledgeError) as err:
            KnowledgeDB.load(path)
        assert err.value.path == str(path)

        db = KnowledgeDB.load_or_fresh(path)
        assert len(db) == 0
        assert db.load_error is not None
        assert db.load_error.path == str(path)

        # the drain completes on the empty database — profiling from
        # scratch instead of crashing mid-queue — and repopulates it
        clip = scheduler("mixed")
        clip_fresh = ClipScheduler(
            clip.engine, inflection=_inflection(), knowledge=db
        )
        queue = PowerBoundedJobQueue(clip_fresh)
        report = queue.drain(
            [get_app("comd"), get_app("stream")], 1200.0, iterations=2
        )
        assert len(report.jobs) == 2
        # both jobs ran in watched segments
        assert report.watchdog["observations"] >= 4
        assert len(db) >= 1
        clip_fresh.monitor.assert_clean()
