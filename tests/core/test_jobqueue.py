"""Tests for the power-bounded job queue."""

import pytest

from repro.core.jobqueue import PowerBoundedJobQueue
from repro.core.knowledge import KnowledgeDB
from repro.core.scheduler import ClipScheduler
from repro.errors import SchedulingError
from repro.workloads.apps import get_app

APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C")


@pytest.fixture()
def queue(engine, trained_inflection):
    clip = ClipScheduler(
        engine, inflection=trained_inflection, knowledge=KnowledgeDB()
    )
    return PowerBoundedJobQueue(clip)


class TestSequential:
    def test_every_job_completes(self, queue):
        apps = [get_app(n) for n in APPS]
        report = queue.drain(apps, 1600.0, iterations=5)
        assert len(report.jobs) == 4
        assert {j.app_name for j in report.jobs} == set(APPS)

    def test_accounting_consistent(self, queue):
        apps = [get_app(n) for n in APPS]
        report = queue.drain(apps, 1600.0, iterations=5)
        # jobs run back to back: each starts when the previous ends
        ordered = sorted(report.jobs, key=lambda j: j.started_at_s)
        assert ordered[0].started_at_s == 0.0
        for prev, cur in zip(ordered, ordered[1:]):
            assert cur.started_at_s == pytest.approx(prev.finished_at_s)
        assert report.makespan_s == pytest.approx(ordered[-1].finished_at_s)

    def test_fifo_order(self, queue):
        apps = [get_app(n) for n in APPS]
        report = queue.drain(apps, 1600.0, iterations=5)
        starts = {j.app_name: j.started_at_s for j in report.jobs}
        assert starts["comd"] < starts["sp-mz.C"] < starts["stream"]

    def test_knowledge_reused_across_jobs(self, queue):
        apps = [get_app("comd")] * 3
        queue.drain(apps, 1600.0, iterations=3)
        kb = queue._scheduler.knowledge
        assert len(kb) == 1  # one profile serves all three submissions


class TestCoscheduled:
    def test_every_job_completes(self, queue):
        apps = [get_app(n) for n in APPS]
        report = queue.drain(apps, 1600.0, policy="coscheduled", iterations=5)
        assert {j.app_name for j in report.jobs} == set(APPS)

    def test_jobs_share_batches_when_budget_allows(self, queue):
        apps = [get_app(n) for n in APPS]
        report = queue.drain(apps, 1600.0, policy="coscheduled", iterations=5)
        assert len({j.batch for j in report.jobs}) < len(APPS)

    def test_tight_budget_forces_small_batches(self, queue):
        apps = [get_app(n) for n in APPS]
        generous = queue.drain(
            apps, 2000.0, policy="coscheduled", iterations=3
        )
        tight = queue.drain(apps, 500.0, policy="coscheduled", iterations=3)
        assert len({j.batch for j in tight.jobs}) >= len(
            {j.batch for j in generous.jobs}
        )

    def test_coscheduling_saves_energy_on_this_mix(self, queue):
        apps = [get_app(n) for n in APPS]
        seq = queue.drain(apps, 1600.0, iterations=5)
        cos = queue.drain(apps, 1600.0, policy="coscheduled", iterations=5)
        # fewer node-seconds of idle/base power when jobs share the
        # cluster instead of sweeping over it one at a time
        assert cos.total_energy_j < seq.total_energy_j


class TestRuntimeLifecycle:
    @pytest.mark.parametrize("policy", ["sequential", "coscheduled"])
    def test_jobs_run_through_the_runtime(self, queue, policy):
        apps = [get_app(n) for n in APPS]
        report = queue.drain(apps, 1600.0, policy=policy, iterations=3)
        # every job is launched (one audited commit each) and runs in
        # watched segments, more than one so the watchdog can correct
        # inside the job
        sources = queue._scheduler.monitor.report()["audits_by_source"]
        assert sources["runtime"] == len(apps)
        assert report.watchdog["observations"] >= 2 * len(apps)
        assert report.watchdog["breaches"] == 0


class TestValidation:
    def test_empty_queue_rejected(self, queue):
        with pytest.raises(SchedulingError):
            queue.drain([], 1600.0)

    def test_unknown_policy_rejected(self, queue):
        with pytest.raises(SchedulingError):
            queue.drain([get_app("comd")], 1600.0, policy="priority")
