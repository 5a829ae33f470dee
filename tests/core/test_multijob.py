"""Tests for multi-job node/power partitioning."""

import dataclasses

import pytest

from repro.core.jobqueue import PowerBoundedJobQueue
from repro.core.knowledge import KnowledgeDB
from repro.core.multijob import MultiJobCoordinator
from repro.core.scheduler import ClipScheduler
from repro.errors import InfeasibleBudgetError, SchedulingError
from repro.workloads.apps import get_app


@pytest.fixture()
def clip(engine, trained_inflection):
    return ClipScheduler(
        engine, inflection=trained_inflection, knowledge=KnowledgeDB()
    )


@pytest.fixture()
def coordinator(clip):
    return MultiJobCoordinator(clip)


@pytest.fixture()
def queue(clip):
    return PowerBoundedJobQueue(clip)


THREE_APPS = ("comd", "sp-mz.C", "stream")


class TestPartition:
    def test_nodes_disjoint_and_within_cluster(self, coordinator):
        apps = [get_app(n) for n in THREE_APPS]
        placements = coordinator.partition(apps, 1800.0)
        used = [i for p in placements for i in p.node_ids]
        assert len(used) == len(set(used))
        assert all(0 <= i < 8 for i in used)

    def test_budget_conserved(self, coordinator):
        apps = [get_app(n) for n in THREE_APPS]
        placements = coordinator.partition(apps, 1800.0)
        assert sum(p.budget_w for p in placements) <= 1800.0 * (1 + 1e-9)

    def test_every_job_feasible(self, coordinator):
        apps = [get_app(n) for n in THREE_APPS]
        for p in coordinator.partition(apps, 1800.0):
            assert p.n_nodes >= 1
            assert p.config.n_threads >= 2
            assert p.budget_w > 0

    def test_parabolic_job_throttled(self, coordinator):
        apps = [get_app(n) for n in THREE_APPS]
        placements = {p.app_name: p for p in coordinator.partition(apps, 1800.0)}
        assert placements["sp-mz.C"].config.n_threads < 24

    def test_more_budget_helps_every_job(self, coordinator):
        apps = [get_app(n) for n in THREE_APPS]
        small = {p.app_name: p for p in coordinator.partition(apps, 900.0)}
        large = {p.app_name: p for p in coordinator.partition(apps, 2400.0)}
        for name in THREE_APPS:
            assert large[name].budget_w >= small[name].budget_w * 0.99

    def test_single_job_degenerate_case(self, coordinator):
        placements = coordinator.partition([get_app("comd")], 1800.0)
        assert len(placements) == 1
        assert placements[0].n_nodes >= 4  # linear app grabs nodes

    def test_rejects_empty(self, coordinator):
        with pytest.raises(SchedulingError):
            coordinator.partition([], 1800.0)

    def test_rejects_more_jobs_than_nodes(self, coordinator):
        apps = [get_app("comd")] * 9
        with pytest.raises(SchedulingError):
            coordinator.partition(apps, 5000.0)

    def test_rejects_starved_budget(self, coordinator):
        apps = [get_app(n) for n in THREE_APPS]
        with pytest.raises(InfeasibleBudgetError):
            coordinator.partition(apps, 150.0)


class TestRun:
    """Partitioned batches execute through the co-scheduled queue."""

    def test_run_executes_all_jobs(self, coordinator, queue):
        apps = [get_app(n) for n in THREE_APPS]
        placements = coordinator.partition(apps, 1800.0)
        report = queue.drain(apps, 1800.0, policy="coscheduled", iterations=3)
        assert len(report.jobs) == 3
        assert {j.batch for j in report.jobs} == {0}
        for placement, job in zip(placements, report.jobs):
            assert job.app_name == placement.app_name
            assert job.n_nodes == placement.n_nodes
            assert job.performance > 0

    def test_combined_power_within_budget(self, queue, monkeypatch):
        apps = [get_app(n) for n in THREE_APPS]
        engine = queue._scheduler.engine
        results = []
        real_run = engine.run

        def spy(app, config):
            results.append(real_run(app, config))
            return results[-1]

        monkeypatch.setattr(engine, "run", spy)
        queue.drain(apps, 1800.0, policy="coscheduled", iterations=3)
        # each job's first segment runs under the batch's launch caps
        first = {}
        for result in results:
            first.setdefault(result.app_name, result)
        drawn = sum(
            rec.operating_point.pkg_power_w + rec.operating_point.dram_power_w
            for result in first.values()
            for rec in result.nodes
        )
        assert len(first) == 3
        assert drawn <= 1800.0 * (1 + 1e-6)
        (batch,) = [
            a for a in queue._scheduler.monitor.audits
            if a.source == "multijob.batch"
        ]
        assert batch.ok
        assert batch.total_capped_w <= 1800.0 * (1 + 1e-9)

    def test_duplicate_names_run_their_own_workloads(
        self, coordinator, queue, monkeypatch
    ):
        """Regression: placements pair with apps by index, not by name.

        Two distinct workloads sharing a name (same kernel, different
        problem size) used to collapse through a name-keyed dict, so
        one of them executed twice and the other never ran.
        """
        base = get_app("comd")
        twin = dataclasses.replace(base, problem_size="twin-large")
        coordinator.partition([base, twin], 1600.0)  # warm model bundles
        executed = []
        engine = queue._scheduler.engine
        real_run = engine.run

        def spy(app, config):
            executed.append(app.problem_size)
            return real_run(app, config)

        monkeypatch.setattr(engine, "run", spy)
        report = queue.drain(
            [base, twin], 1600.0, policy="coscheduled", iterations=2
        )
        assert {j.batch for j in report.jobs} == {0}
        assert executed[0] == base.problem_size
        assert executed[-1] == twin.problem_size
        assert set(executed) == {base.problem_size, twin.problem_size}

    def test_fairness_no_job_starved(self, queue):
        apps = [get_app(n) for n in THREE_APPS]
        report = queue.drain(apps, 2000.0, policy="coscheduled", iterations=3)
        assert {j.batch for j in report.jobs} == {0}
        # every job achieves a nontrivial fraction of its solo
        # throughput on the whole cluster under the same budget
        for job in report.jobs:
            solo = queue.drain([get_app(job.app_name)], 2000.0, iterations=3)
            assert job.performance >= 0.15 * solo.jobs[0].performance
