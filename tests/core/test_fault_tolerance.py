"""Fault-injection scenarios: runtime, queue policies, and invariants.

The acceptance bar for the fault-tolerant runtime: scripted node
failure, recovery, and budget swings must drain real job mixes to
completion under both queue policies with the
:class:`~repro.core.monitor.BudgetInvariantMonitor` reporting zero
violations, and a rejected re-coordination must leave jobs untouched.
"""

import dataclasses

import pytest

from repro.analysis.experiments import build_trained_inflection
from repro.core.jobqueue import PowerBoundedJobQueue
from repro.core.knowledge import KnowledgeDB
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.errors import InfeasibleBudgetError, NodeFailureError
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import mixed_gpu_testbed
from repro.sim.engine import ExecutionEngine
from repro.sim.faults import FaultEvent, FaultInjector, run_scripted
from repro.workloads.apps import get_app

SIX_JOBS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "comd", "stream")


@pytest.fixture()
def clip(engine, trained_inflection):
    return ClipScheduler(
        engine, inflection=trained_inflection, knowledge=KnowledgeDB()
    )


@pytest.fixture()
def runtime(clip):
    return PowerBoundedRuntime(clip)


@pytest.fixture()
def queue(clip):
    return PowerBoundedJobQueue(clip)


class TestTransactionalRecoordination:
    def test_rejected_update_leaves_job_bit_identical(self, runtime):
        """Regression: a failed update must not half-mutate the job."""
        job = runtime.launch(get_app("comd"), 1600.0, n_nodes=8, n_threads=24)
        runtime.advance(job, 10)
        before = dataclasses.asdict(job)
        with pytest.raises(InfeasibleBudgetError):
            runtime.update_budget(job, 400.0)  # below the 8-node floor
        assert dataclasses.asdict(job) == before
        # and the job still executes consistently afterwards
        runtime.advance(job, 10)

    def test_rejected_update_then_feasible_update_works(self, runtime):
        job = runtime.launch(get_app("comd"), 1600.0, n_nodes=8, n_threads=24)
        with pytest.raises(InfeasibleBudgetError):
            runtime.update_budget(job, 400.0)
        runtime.update_budget(job, 1200.0)
        assert job.budget_w == 1200.0
        total = sum(pkg + dram for pkg, dram in job.per_node_caps)
        assert total <= 1200.0 * (1 + 1e-9)

    def test_runtime_caps_audited(self, runtime):
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        runtime.update_budget(job, 1000.0)
        sources = [a.source for a in runtime.monitor.audits]
        assert sources.count("runtime") == 2  # launch + update
        runtime.monitor.assert_clean()


class TestRuntimeNodeFailure:
    def test_pinned_job_parks_on_failure(self, runtime):
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        affected = runtime.fail_node(2)
        assert affected == [job]
        assert job.parked
        assert "node 2" in job.park_reason
        with pytest.raises(NodeFailureError):
            runtime.advance(job, 10)

    def test_shrink_onto_survivors_when_allowed(self, runtime):
        job = runtime.launch(
            get_app("comd"), 1400.0, n_nodes=4, allow_shrink=True
        )
        runtime.fail_node(2)
        assert not job.parked
        assert job.node_ids == (0, 1, 3)
        assert job.n_nodes == 3
        assert len(job.per_node_caps) == 3
        # the fixed job budget was re-split, not shrunk
        assert job.budget_w == 1400.0
        total = sum(pkg + dram for pkg, dram in job.per_node_caps)
        assert total <= 1400.0 * (1 + 1e-9)
        runtime.run_to_completion(job)
        runtime.monitor.assert_clean()

    def test_last_node_failure_parks_even_with_shrink(self, runtime):
        job = runtime.launch(
            get_app("comd"), 400.0, n_nodes=1, allow_shrink=True
        )
        runtime.fail_node(0)
        assert job.parked

    def test_unaffected_jobs_keep_running(self, runtime):
        job = runtime.launch(get_app("comd"), 700.0, n_nodes=2)
        affected = runtime.fail_node(5)
        assert affected == []
        assert not job.parked
        runtime.advance(job, 10)

    def test_recovery_resumes_parked_job(self, runtime):
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        runtime.fail_node(2)
        assert job.parked
        resumed = runtime.recover_node(2)
        assert resumed == [job]
        assert not job.parked
        assert job.park_reason is None
        runtime.run_to_completion(job)
        runtime.monitor.assert_clean()

    def test_launch_avoids_failed_nodes(self, runtime):
        runtime.fail_node(0)
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        assert 0 not in job.node_ids
        with pytest.raises(NodeFailureError):
            runtime.launch(get_app("comd"), 2800.0, n_nodes=8)


class TestScriptedRuntimeScenarios:
    def test_fail_recover_budget_swings(self, runtime, engine):
        """Kill a node mid-job, recover it, swing the budget twice."""
        app = get_app("bt-mz.C")
        job = runtime.launch(
            app, 1600.0, n_nodes=8,
            allow_concurrency_change=True, allow_shrink=True,
        )
        first = runtime.advance(job, 20)
        horizon = first.time_s * 100  # well past the job's lifetime
        injector = FaultInjector(
            engine.cluster,
            [
                FaultEvent(at_s=first.time_s, action="fail_node", node_id=3),
                FaultEvent(
                    at_s=first.time_s * 1.5, action="set_budget", budget_w=900.0
                ),
                FaultEvent(
                    at_s=first.time_s * 2.5, action="recover_node", node_id=3
                ),
                FaultEvent(
                    at_s=horizon - 1, action="set_budget", budget_w=1600.0
                ),
            ],
            budget_w=1600.0,
        )
        run_scripted(runtime, job, injector, segment_iterations=20)
        assert job.done
        # the shrink really happened: post-failure segments ran on 7 nodes
        assert job.n_nodes == 7
        budgets_seen = {s.budget_w for s in job.segments}
        assert 900.0 in budgets_seen
        runtime.monitor.assert_clean()

    def test_parked_job_waits_for_scripted_rescue(self, runtime, engine):
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        injector = FaultInjector(
            engine.cluster,
            [
                FaultEvent(at_s=0.0, action="fail_node", node_id=1),
                FaultEvent(at_s=1e9, action="recover_node", node_id=1),
            ],
        )
        run_scripted(runtime, job, injector, segment_iterations=25)
        assert job.done
        assert not job.parked
        runtime.monitor.assert_clean()

    def test_parked_job_without_rescue_raises(self, runtime, engine):
        job = runtime.launch(get_app("comd"), 1400.0, n_nodes=4)
        injector = FaultInjector(
            engine.cluster,
            [FaultEvent(at_s=0.0, action="fail_node", node_id=1)],
        )
        with pytest.raises(NodeFailureError):
            run_scripted(runtime, job, injector)


class TestQueueUnderFaults:
    def test_sequential_schedules_around_failed_node(self, queue, engine):
        injector = FaultInjector(
            engine.cluster,
            [FaultEvent(at_s=0.0, action="fail_node", node_id=2)],
        )
        apps = [get_app("comd"), get_app("comd")]
        report = queue.drain(apps, 1600.0, iterations=3, faults=injector)
        assert len(report.jobs) == 2
        assert all(j.n_nodes <= 7 for j in report.jobs)
        queue._scheduler.monitor.assert_clean()

    def test_sequential_recovery_restores_full_cluster(self, queue, engine):
        injector = FaultInjector(
            engine.cluster,
            [
                FaultEvent(at_s=0.0, action="fail_node", node_id=2),
                FaultEvent(at_s=1e-6, action="recover_node", node_id=2),
            ],
        )
        apps = [get_app("comd"), get_app("comd")]
        report = queue.drain(apps, 1600.0, iterations=3, faults=injector)
        jobs = sorted(report.jobs, key=lambda j: j.started_at_s)
        assert jobs[0].n_nodes <= 7  # scheduled during the outage
        assert jobs[1].n_nodes == 8  # recovery seen at the next boundary

    def test_sequential_budget_swings_reach_decisions(self, queue, engine):
        injector = FaultInjector(
            engine.cluster,
            [FaultEvent(at_s=1e-6, action="set_budget", budget_w=900.0)],
            budget_w=1600.0,
        )
        apps = [get_app("comd"), get_app("comd")]
        queue.drain(apps, 1600.0, iterations=3, faults=injector)
        # the runtime audits each job's cap set once, at launch
        budgets = [
            a.cluster_budget_w
            for a in queue._scheduler.monitor.audits
            if a.source == "runtime"
        ]
        assert budgets == [1600.0, 900.0]

    def test_coscheduled_batches_fit_surviving_pool(self, queue, engine):
        injector = FaultInjector(
            engine.cluster,
            [FaultEvent(at_s=0.0, action="fail_node", node_id=0)],
        )
        apps = [get_app(n) for n in SIX_JOBS]
        report = queue.drain(
            apps, 1600.0, policy="coscheduled", iterations=3, faults=injector
        )
        assert {j.app_name for j in report.jobs} == set(SIX_JOBS)
        by_batch = {}
        for j in report.jobs:
            by_batch[j.batch] = by_batch.get(j.batch, 0) + j.n_nodes
        assert all(n <= 7 for n in by_batch.values())
        queue._scheduler.monitor.assert_clean()

    def test_mixed_fleet_caps_match_each_node_class(self, monkeypatch):
        """Regression: queued jobs ran under caps planned for other slots.

        With GPU slot 3 failed on the mixed GPU/CPU fleet, the queue
        used to re-place a decision's per-slot caps on the surviving
        pool, so CPU-only node 4 got slot 3's three-domain GPU tuple,
        and its audit summed only ``(pkg, dram)``.  Every cap tuple a
        queued job runs under must match its node's hardware class, and
        every audit of queue work must cover the GPU domain.
        """
        engine = ExecutionEngine(SimulatedCluster(mixed_gpu_testbed()), seed=42)
        clip = ClipScheduler(
            engine,
            inflection=build_trained_inflection(engine),
            knowledge=KnowledgeDB(),
        )
        spec = engine.cluster.spec
        runs = []
        real_run = engine.run

        def spy(app, config):
            runs.append(config)
            return real_run(app, config)

        monkeypatch.setattr(engine, "run", spy)
        injector = FaultInjector(
            engine.cluster,
            [FaultEvent(at_s=0.0, action="fail_node", node_id=3)],
        )
        apps = [get_app(n) for n in SIX_JOBS]
        report = PowerBoundedJobQueue(clip).drain(
            apps, 1600.0, iterations=3, faults=injector
        )
        assert len(report.jobs) == 6
        assert any(j.n_nodes > 3 for j in report.jobs)  # crosses classes
        executed = [c for c in runs if c.node_ids is not None]
        assert executed
        for config in executed:
            assert 3 not in config.node_ids
            for node_id, caps in zip(config.node_ids, config.per_node_caps):
                has_gpu = spec.node_classes[spec.slot_class[node_id]].has_gpu
                assert len(caps) == (3 if has_gpu else 2), (node_id, caps)
        queue_audits = [
            a for a in clip.monitor.audits if not a.source.startswith("pipeline")
        ]
        assert queue_audits
        for audit in queue_audits:
            assert any(len(caps) == 3 for caps in audit.caps), audit.source
        clip.monitor.assert_clean()

    @pytest.mark.parametrize("policy", ["sequential", "coscheduled"])
    def test_acceptance_scenario_drains_clean(self, queue, engine, policy):
        """Failure + recovery + two budget swings over a 6-job queue."""
        apps = [get_app(n) for n in SIX_JOBS]
        clean = queue.drain(apps, 1600.0, policy=policy, iterations=3)
        horizon = clean.makespan_s
        queue._scheduler.monitor.reset()
        injector = FaultInjector(
            engine.cluster,
            [
                FaultEvent(at_s=0.10 * horizon, action="fail_node", node_id=2),
                FaultEvent(
                    at_s=0.25 * horizon, action="set_budget", budget_w=1120.0
                ),
                FaultEvent(
                    at_s=0.45 * horizon, action="recover_node", node_id=2
                ),
                FaultEvent(
                    at_s=0.60 * horizon, action="set_budget", budget_w=1600.0
                ),
            ],
            budget_w=1600.0,
        )
        report = queue.drain(
            apps, 1600.0, policy=policy, iterations=3, faults=injector
        )
        monitor = queue._scheduler.monitor
        assert len(report.jobs) == 6
        assert {j.app_name for j in report.jobs} == set(SIX_JOBS)
        assert monitor.n_audits > 0
        assert monitor.n_violations == 0
        monitor.assert_clean()
