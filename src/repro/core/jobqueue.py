"""A power-bounded job queue on top of CLIP.

The paper's framework sits behind a job scheduler (§IV-B: the helper
tools automate data collection "for jobs managed by the smart profiling
module and application execution module") but evaluates one job at a
time.  This module supplies the missing queueing layer with two
policies:

* ``sequential`` — the paper's operating mode: jobs run one at a time,
  each getting the whole cluster budget, scheduled by Algorithm 1.
* ``coscheduled`` — an extension: the head of the queue is packed into
  a co-scheduled batch via :class:`MultiJobCoordinator` whenever the
  jobs' combined power floors fit the budget, trading per-job speed for
  queue throughput (the POW-shed motivation).

Both policies drain through one
:class:`~repro.core.runtime.PowerBoundedRuntime` per drain, with a
:class:`~repro.core.watchdog.PowerEnforcementWatchdog` attached.  The
policy only picks each job's node and thread counts; the runtime
places the job on free nodes, plans per-class caps for exactly those
nodes, commits them through the verified write path, audits them, runs
the job in segments (so the watchdog can correct overdraw inside the
job) and reports the outcome.  A
:class:`~repro.sim.faults.FaultInjector`, if given, is advanced through
the runtime at every job/batch boundary, so failures, recoveries and
budget swings reshape every *subsequent* placement.  Repeated
submissions of a known application reuse the shared knowledge
database and skip profiling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.multijob import MultiJobCoordinator
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.core.watchdog import PowerEnforcementWatchdog
from repro.errors import InfeasibleBudgetError, SchedulingError
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["CompletedJob", "QueueReport", "PowerBoundedJobQueue"]

#: Each job runs in this many segments (fewer when it has fewer
#: iterations), giving the watchdog room to correct inside the job.
SEGMENTS_PER_JOB = 4


@dataclass(frozen=True)
class CompletedJob:
    """Accounting record for one drained job."""

    app_name: str
    submitted_at_s: float
    started_at_s: float
    finished_at_s: float
    performance: float
    energy_j: float
    n_nodes: int
    n_threads: int
    batch: int


@dataclass(frozen=True)
class QueueReport:
    """Aggregate outcome of draining a queue, with its watchdog's report."""

    policy: str
    jobs: tuple[CompletedJob, ...]
    makespan_s: float
    total_energy_j: float
    watchdog: dict


class PowerBoundedJobQueue:
    """Drains a list of jobs under one cluster power budget."""

    def __init__(self, scheduler: ClipScheduler):
        self._scheduler = scheduler
        self._coordinator = MultiJobCoordinator(scheduler)

    def drain(
        self,
        apps: list[WorkloadCharacteristics],
        cluster_budget_w: float,
        policy: str = "sequential",
        iterations: int | None = None,
        faults=None,
    ) -> QueueReport:
        """Execute every job and return the accounting report.

        All jobs are treated as submitted at t=0 (a burst arrival); the
        per-job records still separate wait from run time so policies
        can be compared on turnaround.  ``iterations`` overrides each
        job's iteration count.  ``faults`` optionally supplies a
        :class:`~repro.sim.faults.FaultInjector` whose due events are
        applied through the drain's runtime at every job/batch boundary.
        """
        if not apps:
            raise SchedulingError("queue is empty")
        if policy not in ("sequential", "coscheduled"):
            raise SchedulingError(f"unknown queue policy {policy!r}")
        runtime = PowerBoundedRuntime(self._scheduler)
        watchdog = PowerEnforcementWatchdog(runtime)
        cluster = self._scheduler.engine.cluster
        pending = [
            app if iterations is None else app.with_iterations(iterations)
            for app in apps
        ]
        out: list[CompletedJob] = []
        now = 0.0
        batch = 0
        while pending:
            budget = cluster_budget_w
            if faults is not None:
                faults.advance_to(now, runtime=runtime)
                budget = faults.budget_w or budget
            pool = cluster.available_node_ids
            if policy == "sequential":
                # decide just-in-time: the budget and the live nodes
                # are whatever the fault script left in force
                group = [pending.pop(0)]
                counts = None
                if len(pool) < cluster.n_nodes:
                    counts = tuple(range(1, len(pool) + 1))
                decision = self._scheduler.schedule(
                    group[0], budget, predefined_node_counts=counts
                )
                shapes = [(budget, decision.n_nodes, decision.n_threads)]
            else:
                group = self._take_batch(pending, budget, pool)
                shapes = [
                    (p.budget_w, p.n_nodes, p.config.n_threads)
                    for p in self._coordinator.partition(
                        group, budget, node_ids=pool
                    )
                ]
            # concurrency may change so the watchdog can re-throttle,
            # CLIP's own lever, before forcing the emergency floor
            jobs = [
                runtime.launch(app, *shape, allow_concurrency_change=True)
                for app, shape in zip(group, shapes)
            ]
            if policy == "coscheduled":
                # the batch's committed caps, every domain, against the
                # budget the batch shares
                self._scheduler.monitor.audit(
                    "multijob.batch",
                    "+".join(job.app.name for job in jobs),
                    budget,
                    tuple(cap for job in jobs for cap in job.per_node_caps),
                )
            for job in jobs:
                runtime.run_to_completion(
                    job, -(-job.remaining_iterations // SEGMENTS_PER_JOB)
                )
                out.append(CompletedJob(
                    app_name=job.app.name,
                    submitted_at_s=0.0,
                    started_at_s=now,
                    finished_at_s=now + job.elapsed_s,
                    performance=job.mean_performance,
                    energy_j=job.energy_j,
                    n_nodes=job.n_nodes,
                    n_threads=job.n_threads,
                    batch=batch,
                ))
            now += max(job.elapsed_s for job in jobs)
            batch += 1
        return QueueReport(
            policy=policy,
            jobs=tuple(out),
            makespan_s=max(j.finished_at_s for j in out),
            total_energy_j=sum(j.energy_j for j in out),
            watchdog=watchdog.report(),
        )

    def _take_batch(self, pending, budget, pool):
        """Pop the largest feasible head-of-queue batch (FIFO order)."""
        batch = [pending.pop(0)]
        while pending:
            candidate = batch + [pending[0]]
            if len(candidate) > len(pool):
                break
            try:
                self._coordinator.partition(candidate, budget, node_ids=pool)
            except (InfeasibleBudgetError, SchedulingError):
                break
            batch.append(pending.pop(0))
        return batch
