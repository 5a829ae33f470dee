"""Runtime power re-coordination — the paper's stated future work.

Section VII: "One limitation of this work is that CLIP doesn't directly
support jobs launched with predefined node and core counts.  We plan to
develop a runtime system to address this issue."  This module is that
runtime system, built on the same fitted models:

* a job is launched with a *fixed* decomposition (node count, and
  optionally thread count) that the runtime must respect — the common
  case for production MPI jobs whose data decomposition is baked in;
* the runtime executes the job in **segments** and accepts budget
  changes between segments (machine-room events: another job arrived,
  a demand-response window opened);
* on every budget change it re-coordinates: re-splits per-node budgets
  (variability-aware), re-splits CPU/DRAM within nodes, and — only if
  the caller allows it — re-throttles concurrency when the budget drops
  below the acceptable range of the pinned thread count.

Re-coordination is **transactional**: the new thread count and cap set
are computed and validated in full before any job field changes, so a
rejected budget (:class:`~repro.errors.InfeasibleBudgetError`) leaves
the job exactly as it was — caps, budget, and concurrency stay
mutually consistent.

The runtime is also the failure domain for its jobs.  When a node
fails (:meth:`PowerBoundedRuntime.fail_node`), every affected job
either *shrinks* onto its surviving nodes — its fixed budget re-split
over fewer parts, allowed only when the job was launched with
``allow_shrink`` — or is *parked* with a typed reason; parked jobs
reject :meth:`~PowerBoundedRuntime.advance` with
:class:`~repro.errors.NodeFailureError` until
:meth:`~PowerBoundedRuntime.recover_node` brings their nodes back.
Every cap set the runtime commits is audited by the shared
:class:`~repro.core.monitor.BudgetInvariantMonitor`.

The runtime re-coordinates after a node degradation event
(:meth:`SimulatedCluster.degrade_node`) as well, re-measuring node
factors so the weakened part receives compensating power.

Two resilience layers wrap all of the above:

* **verified actuation** — every cap set the runtime commits is
  physically written to the nodes' RAPL interfaces through the
  verified write path (readback + bounded retry + backoff); a write
  that will not stick raises :class:`~repro.errors.ActuationError`
  *transactionally* — the hardware is rolled back to its snapshot and
  the job left bit-identical, the same contract a rejected budget
  already honours;
* **journaling** — when constructed with a journal path, every state
  transition (launch / cap-commit / budget-change / park / recover /
  segment) is appended to a :class:`~repro.core.journal.RuntimeJournal`
  after it commits, and :meth:`PowerBoundedRuntime.restore` replays
  the log into a bit-identical runtime after a crash.

A :class:`~repro.core.watchdog.PowerEnforcementWatchdog` may attach to
the runtime to compare measured draw against the committed caps after
every segment and drive corrective re-coordination through the same
transactional paths.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.core.coordination import (
    coordinate_power,
    measure_node_factors,
    slot_values,
)
from repro.core.journal import RuntimeJournal
from repro.core.monitor import BudgetInvariantMonitor
from repro.core.pipeline import ModelBundle, split_per_class
from repro.core.scheduler import ClipScheduler
from repro.errors import (
    ActuationError,
    InfeasibleBudgetError,
    NodeFailureError,
    SchedulingError,
)
from repro.sim.engine import ExecutionConfig
from repro.units import check_positive
from repro.workloads.characteristics import (
    CommPattern,
    Phase,
    WorkloadCharacteristics,
)

__all__ = ["SegmentRecord", "RunningJob", "PowerBoundedRuntime"]


def _app_to_dict(app: WorkloadCharacteristics) -> dict:
    """JSON-safe full serialization of a workload record."""
    d = asdict(app)
    d["comm_pattern"] = app.comm_pattern.value
    return d


def _app_from_dict(d: dict) -> WorkloadCharacteristics:
    """Inverse of :func:`_app_to_dict` (exact: floats round-trip)."""
    d = dict(d)
    d["comm_pattern"] = CommPattern(d["comm_pattern"])
    d["phases"] = tuple(Phase(**p) for p in d.get("phases", ()))
    return WorkloadCharacteristics(**d)


def _bound_from_json(value):
    """Audit bound back from JSON: lists become per-rank tuples."""
    if isinstance(value, list):
        return tuple(float(x) for x in value)
    return value


def _range_total(bound, n_nodes: int) -> float:
    """A per-node bound summed over the job's nodes.

    ``n * bound`` for one shared scalar, the per-rank sum for a tuple.
    """
    return float(np.sum(bound)) if isinstance(bound, tuple) else n_nodes * bound


@dataclass(frozen=True)
class SegmentRecord:
    """One executed segment of a running job."""

    iterations: int
    budget_w: float
    n_threads: int
    time_s: float
    energy_j: float
    performance: float


@dataclass
class RunningJob:
    """A job mid-execution under the runtime's control.

    ``node_ids`` starts as the launch decomposition and only changes if
    a node failure shrinks the job (``allow_shrink``); ``parked`` marks
    a job sidelined by a failure it could not absorb — the runtime
    refuses to advance it until recovery, recording why in
    ``park_reason``.
    """

    app: WorkloadCharacteristics
    n_nodes: int
    n_threads: int
    node_ids: tuple[int, ...]
    budget_w: float
    per_node_caps: tuple[tuple[float, float], ...]
    remaining_iterations: int
    allow_concurrency_change: bool = False
    allow_shrink: bool = False
    parked: bool = field(default=False, init=False)
    park_reason: str | None = field(default=None, init=False)
    segments: list[SegmentRecord] = field(default_factory=list, init=False)

    @property
    def done(self) -> bool:
        """Whether every iteration has been executed."""
        return self.remaining_iterations <= 0

    @property
    def elapsed_s(self) -> float:
        """Total simulated time across executed segments."""
        return sum(s.time_s for s in self.segments)

    @property
    def energy_j(self) -> float:
        """Total energy across executed segments."""
        return sum(s.energy_j for s in self.segments)

    @property
    def mean_performance(self) -> float:
        """Iterations per second over everything executed so far."""
        iters = sum(s.iterations for s in self.segments)
        return iters / self.elapsed_s if self.elapsed_s > 0 else 0.0


class PowerBoundedRuntime:
    """Executes jobs in segments and re-coordinates power on the fly."""

    def __init__(
        self,
        scheduler: ClipScheduler,
        journal: RuntimeJournal | str | Path | None = None,
    ):
        self._scheduler = scheduler
        self._engine = scheduler.engine
        self._factors = scheduler.node_factors
        self._jobs: list[RunningJob] = []
        if journal is not None and not isinstance(journal, RuntimeJournal):
            journal = RuntimeJournal(journal)
        self._journal = journal
        self._watchdog = None

    @property
    def scheduler(self) -> ClipScheduler:
        """The CLIP scheduler whose models the runtime reuses."""
        return self._scheduler

    @property
    def monitor(self) -> BudgetInvariantMonitor:
        """The shared budget-invariant auditor (the pipeline's ledger)."""
        return self._scheduler.pipeline.monitor

    @property
    def journal(self) -> RuntimeJournal | None:
        """The write-ahead journal, when crash recovery is enabled."""
        return self._journal

    @property
    def watchdog(self):
        """The attached enforcement watchdog, if any."""
        return self._watchdog

    def attach_watchdog(self, watchdog) -> None:
        """Hook a watchdog in; it is consulted after every segment."""
        self._watchdog = watchdog

    @property
    def jobs(self) -> tuple[RunningJob, ...]:
        """Every job launched through this runtime, in launch order."""
        return tuple(self._jobs)

    def _job_index(self, job: RunningJob) -> int:
        for i, j in enumerate(self._jobs):
            if j is job:
                return i
        return len(self._jobs)  # being launched right now

    def _journal_write(self, kind: str, payload: dict) -> None:
        if self._journal is not None:
            self._journal.append(kind, payload)

    # ------------------------------------------------------------------

    def _models(self, app: WorkloadCharacteristics) -> ModelBundle:
        """The app's fitted model bundle (shared bundle cache).

        Resolved once per launch or re-coordination: the bundle carries
        the knowledge entry the other hardware classes' models are
        fitted from, so a refit between two calls is seen by the next.
        """
        return self._scheduler.pipeline.bundle_for(app)

    def launch(
        self,
        app: WorkloadCharacteristics,
        budget_w: float,
        n_nodes: int,
        n_threads: int | None = None,
        allow_concurrency_change: bool = False,
        allow_shrink: bool = False,
    ) -> RunningJob:
        """Admit a job with a predefined decomposition.

        ``n_nodes`` is fixed for the job's lifetime (the MPI
        decomposition); ``n_threads`` defaults to the class rule's
        unbounded choice and is only revisited later if
        ``allow_concurrency_change`` is set.  ``allow_shrink`` permits
        the runtime to re-split the job onto surviving nodes after a
        node failure instead of parking it.  The job is placed on the
        first in-service nodes that no unfinished, unparked job holds,
        so jobs launched side by side get disjoint nodes.
        """
        check_positive(budget_w, "budget", SchedulingError)
        cluster = self._engine.cluster
        if not 1 <= n_nodes <= cluster.n_nodes:
            raise SchedulingError(
                f"n_nodes {n_nodes} outside [1, {cluster.n_nodes}]"
            )
        held = {i for j in self._jobs if not (j.done or j.parked) for i in j.node_ids}
        free = tuple(i for i in cluster.available_node_ids if i not in held)
        if len(free) < n_nodes:
            raise NodeFailureError(
                f"{n_nodes} nodes requested but only {len(free)} are free"
            )
        node_ids = free[:n_nodes]
        bundle = self._models(app)
        if n_threads is None:
            n_threads = bundle.recommender.unbounded_concurrency()
        job = RunningJob(
            app=app,
            n_nodes=n_nodes,
            n_threads=n_threads,
            node_ids=node_ids,
            budget_w=budget_w,
            per_node_caps=(),
            remaining_iterations=app.iterations,
            allow_concurrency_change=allow_concurrency_change,
            allow_shrink=allow_shrink,
        )
        payload = self._recoordinate(job, bundle, journal_kind=None)
        self._jobs.append(job)
        payload.update(
            app=_app_to_dict(app),
            allow_concurrency_change=allow_concurrency_change,
            allow_shrink=allow_shrink,
            remaining_iterations=job.remaining_iterations,
        )
        self._journal_write("launch", payload)
        return job

    def update_budget(self, job: RunningJob, new_budget_w: float) -> None:
        """React to a cluster budget change between segments.

        Atomic: the new cap set is planned and validated before any job
        field changes, so a raised :class:`InfeasibleBudgetError` (or
        :class:`~repro.errors.ActuationError` from the verified
        hardware commit) leaves the job bit-identical to its pre-call
        state.
        """
        check_positive(new_budget_w, "budget", SchedulingError)
        if job.parked:
            raise NodeFailureError(
                f"cannot re-budget a parked job ({job.park_reason})"
            )
        self._recoordinate(
            job,
            self._models(job.app),
            budget_w=new_budget_w,
            journal_kind="budget_change",
        )

    def recoordinate(
        self, job: RunningJob, budget_w: float | None = None,
        source: str = "watchdog",
    ) -> None:
        """Public transactional re-coordination (the watchdog's lever).

        Re-plans and re-commits the job's caps against *budget_w*
        (default: its current budget) with the audit attributed to
        *source*.  ``job.budget_w`` — the facility bound — is left
        unchanged: a corrective derate plans below the bound without
        pretending the bound moved, so the next machine-room budget
        event restores full planning headroom.  Same atomicity as
        :meth:`update_budget`.
        """
        if job.parked:
            raise NodeFailureError(
                f"cannot re-coordinate a parked job ({job.park_reason})"
            )
        if budget_w is not None:
            check_positive(budget_w, "budget", SchedulingError)
        self._recoordinate(
            job,
            self._models(job.app),
            budget_w=budget_w,
            source=source,
            commit_budget=False,
        )

    def recalibrate(self) -> None:
        """Re-measure node power factors (after degradation events)."""
        self._factors = measure_node_factors(self._engine)
        # note: running jobs pick the new factors up at their next
        # budget update / re-coordination

    # -- transactional re-coordination ----------------------------------

    def _slot_models(
        self,
        bundle: ModelBundle,
        node_ids: tuple[int, ...],
    ) -> tuple[dict, tuple[int, ...]]:
        """Power models of the job's hardware classes, indexed by slot.

        Returns ``(models, ranks)``: one fitted power model per class
        the slots use (keyed by class index) and each slot's class.
        The bundle's model is the slot-0 class's; any other class is
        fitted from the bundle's knowledge entry through the pipeline's
        bundle cache.
        """
        spec = self._engine.cluster.spec
        ranks = tuple(spec.slot_class[i] for i in node_ids)
        models = {}
        for k in set(ranks):
            if k == 0:
                models[k] = bundle.power_model
            else:
                models[k] = self._scheduler.pipeline.class_bundle(
                    bundle.entry, spec.node_classes[k]
                ).power_model
        return models, ranks

    def _plan(
        self,
        job: RunningJob,
        bundle: ModelBundle,
        budget_w: float,
        node_ids: tuple[int, ...],
    ) -> tuple[int, tuple[tuple[float, ...], ...], object, object]:
        """Compute a full candidate cap set without touching the job.

        Returns ``(n_threads, per_node_caps, lo_w, hi_w)`` or raises
        :class:`InfeasibleBudgetError`; the caller commits atomically.
        Every slot's range and cap split come from its own hardware
        class's power model.  The bounds are scalars when every slot
        is of one class and per-rank tuples otherwise.
        """
        models, ranks = self._slot_models(bundle, node_ids)
        n_nodes = len(node_ids)
        n_threads = job.n_threads

        def bounds_at(nt: int) -> tuple:
            rngs = {k: m.power_range(nt) for k, m in models.items()}
            return (
                slot_values({k: r.node_lo_w for k, r in rngs.items()}, ranks),
                slot_values({k: r.node_hi_w for k, r in rngs.items()}, ranks),
            )

        lo, hi = bounds_at(n_threads)
        if budget_w < _range_total(lo, n_nodes):
            if not job.allow_concurrency_change:
                raise InfeasibleBudgetError(
                    f"budget {budget_w:.0f} W below the {n_nodes}-node "
                    f"floor at the pinned concurrency {n_threads}"
                )
            # re-recommend threads for the reduced per-node share
            cfg = bundle.recommender.choose(budget_w / n_nodes)
            n_threads = cfg.n_threads
            lo, hi = bounds_at(n_threads)
        factors = self._factors[list(node_ids)]
        budgets = coordinate_power(
            min(budget_w, _range_total(hi, n_nodes)), factors, lo_w=lo, hi_w=hi
        )
        caps = split_per_class(
            ranks,
            budgets,
            lambda k, distinct: models[k].split_node_budgets(distinct, n_threads),
        )
        return n_threads, tuple(caps), lo, hi

    def _commit_caps(
        self,
        node_ids: tuple[int, ...],
        caps: tuple[tuple[float, ...], ...],
        force: bool = False,
    ) -> None:
        """Physically write a cap set, all nodes or none.

        One :meth:`~repro.hw.rapl.CapBank.commit` on the cluster's bank:
        verified writes, and on :class:`~repro.errors.ActuationError`
        an out-of-band rollback of every node attempted so far before
        the error propagates — the caller's job state is untouched
        because job fields only change after this returns.  ``force``
        writes out-of-band directly (emergency throttle).
        """
        self._engine.cluster.cap_bank.commit(node_ids, caps, force=force)

    def _recoordinate(
        self,
        job: RunningJob,
        bundle: ModelBundle,
        budget_w: float | None = None,
        node_ids: tuple[int, ...] | None = None,
        source: str = "runtime",
        force: bool = False,
        journal_kind: str | None = "cap_commit",
        commit_budget: bool = True,
    ) -> dict:
        """Re-split the job's budget over a decomposition, atomically.

        Plans first (:meth:`_plan` raises with the job untouched), then
        commits the cap set to the hardware through the verified write
        path (an :class:`~repro.errors.ActuationError` rolls the
        hardware back and leaves the job untouched too), then commits
        budget, decomposition, concurrency, and caps together, audits
        the committed set on the shared monitor, and journals the
        transition.  Returns the journal payload (callers that journal
        a different record kind reuse it).

        With ``commit_budget=False`` the caps are planned against
        *budget_w* but ``job.budget_w`` keeps the facility bound — the
        watchdog's corrective derate, which must not masquerade as a
        machine-room budget change.
        """
        budget = job.budget_w if budget_w is None else budget_w
        ids = job.node_ids if node_ids is None else node_ids
        n_threads, caps, lo, hi = self._plan(job, bundle, budget, ids)
        self._commit_caps(ids, caps, force=force)
        if commit_budget:
            job.budget_w = budget
        job.node_ids = ids
        job.n_nodes = len(ids)
        job.n_threads = n_threads
        job.per_node_caps = caps
        self.monitor.audit(
            source,
            job.app.name,
            budget,
            caps,
            node_lo_w=lo,
            node_hi_w=hi,
        )
        payload = {
            "job": self._job_index(job),
            "source": source,
            "budget_w": job.budget_w,
            "audit_budget_w": budget,
            "node_ids": list(ids),
            "n_threads": n_threads,
            "per_node_caps": [list(c) for c in caps],
            "node_lo_w": lo,
            "node_hi_w": hi,
        }
        if journal_kind is not None:
            self._journal_write(journal_kind, payload)
        return payload

    # -- node failure handling ------------------------------------------

    def _park(self, job: RunningJob, reason: str) -> None:
        """Sideline a job the cluster can no longer serve."""
        job.parked = True
        job.park_reason = reason
        self._journal_write(
            "park", {"job": self._job_index(job), "reason": reason}
        )

    def fail_node(self, node_id: int) -> list[RunningJob]:
        """Take a node out of service and re-coordinate its jobs.

        Each affected job shrinks onto its surviving nodes — the fixed
        job budget re-split over fewer parts — when ``allow_shrink``
        was set and the reduced decomposition stays feasible; otherwise
        it is parked with a typed reason.  Returns the affected jobs.
        """
        cluster = self._engine.cluster
        cluster.fail_node(node_id)
        affected = [
            j
            for j in self._jobs
            if not j.done and not j.parked and node_id in j.node_ids
        ]
        for job in affected:
            survivors = tuple(
                i for i in job.node_ids if cluster.is_available(i)
            )
            if not job.allow_shrink or not survivors:
                self._park(
                    job,
                    f"node {node_id} failed and the {job.n_nodes}-node "
                    f"decomposition is pinned",
                )
                continue
            try:
                self._recoordinate(
                    job, self._models(job.app), node_ids=survivors
                )
            except InfeasibleBudgetError as exc:
                self._park(
                    job,
                    f"node {node_id} failed; budget infeasible on the "
                    f"{len(survivors)} survivors ({exc})",
                )
            except ActuationError as exc:
                self._park(
                    job,
                    f"node {node_id} failed; cap writes to the "
                    f"{len(survivors)} survivors would not stick ({exc})",
                )
        return affected

    def recover_node(self, node_id: int) -> list[RunningJob]:
        """Return a node to service and un-park jobs it unblocks.

        A parked job resumes only when *all* of its nodes are back in
        service and its budget re-coordinates cleanly; shrunk jobs keep
        their reduced decomposition (the data was already re-split).
        Returns the jobs that resumed.
        """
        cluster = self._engine.cluster
        cluster.recover_node(node_id)
        resumed = []
        for job in self._jobs:
            if job.done or not job.parked:
                continue
            if not all(cluster.is_available(i) for i in job.node_ids):
                continue
            try:
                self._recoordinate(
                    job, self._models(job.app), journal_kind="recover"
                )
            except (InfeasibleBudgetError, ActuationError):
                continue  # nodes are back but the job still cannot run
            job.parked = False
            job.park_reason = None
            resumed.append(job)
        return resumed

    # -- enforcement levers (the watchdog's escalation ladder) ----------

    def reissue_caps(self, job: RunningJob) -> None:
        """Re-write the job's committed caps through the verified path.

        First rung of breach correction: a dropped or partially-applied
        write leaves the registers disagreeing with the committed set,
        and re-issuing (with readback verification) repairs that
        without re-planning.  The re-written set is re-audited so the
        corrective action appears on the ledger.  Raises
        :class:`~repro.errors.ActuationError` when the writes will not
        stick (hardware rolled back).
        """
        if job.parked:
            raise NodeFailureError(f"job is parked: {job.park_reason}")
        self._commit_caps(job.node_ids, job.per_node_caps)
        self.monitor.audit(
            "watchdog.reissue", job.app.name, job.budget_w, job.per_node_caps
        )
        self._journal_write(
            "cap_commit",
            {
                "job": self._job_index(job),
                "source": "watchdog.reissue",
                "budget_w": job.budget_w,
                "node_ids": list(job.node_ids),
                "n_threads": job.n_threads,
                "per_node_caps": [list(c) for c in job.per_node_caps],
                "node_lo_w": None,
                "node_hi_w": None,
            },
        )

    def emergency_throttle(self, job: RunningJob) -> None:
        """Uniform throttle to the floor of the acceptable range.

        Last rung of the watchdog's escalation: when re-coordination
        itself fails (infeasible derated budget, unresponsive write
        path), every node of the job is forced — out-of-band, bypassing
        the fallible in-band path — to the lowest acceptable power at
        the current concurrency.  Always lands, always audited
        (``watchdog.emergency``).
        """
        if job.parked:
            raise NodeFailureError(f"job is parked: {job.park_reason}")
        bundle = self._models(job.app)
        models, ranks = self._slot_models(bundle, job.node_ids)
        floors = {
            k: m.power_range(job.n_threads).node_lo_w for k, m in models.items()
        }
        floor_w = float(sum(floors[k] for k in ranks))
        self._recoordinate(
            job,
            bundle,
            budget_w=min(job.budget_w, floor_w),
            source="watchdog.emergency",
            force=True,
            commit_budget=False,
        )

    # -- segment execution ----------------------------------------------

    def advance(self, job: RunningJob, iterations: int) -> SegmentRecord:
        """Execute up to *iterations* iterations under the current caps."""
        if job.done:
            raise SchedulingError("job already finished")
        if job.parked:
            raise NodeFailureError(f"job is parked: {job.park_reason}")
        if iterations < 1:
            raise SchedulingError("iterations must be >= 1")
        chunk = min(iterations, job.remaining_iterations)
        result = self._engine.run(
            job.app,
            ExecutionConfig(
                n_nodes=job.n_nodes,
                n_threads=job.n_threads,
                per_node_caps=job.per_node_caps,
                node_ids=job.node_ids,
                iterations=chunk,
            ),
        )
        record = SegmentRecord(
            iterations=chunk,
            budget_w=job.budget_w,
            n_threads=job.n_threads,
            time_s=result.total_time_s,
            energy_j=result.energy_j,
            performance=result.performance,
        )
        job.segments.append(record)
        job.remaining_iterations -= chunk
        self._journal_write(
            "segment",
            {
                "job": self._job_index(job),
                "iterations": chunk,
                "budget_w": record.budget_w,
                "n_threads": record.n_threads,
                "time_s": record.time_s,
                "energy_j": record.energy_j,
                "performance": record.performance,
            },
        )
        if self._watchdog is not None:
            self._watchdog.observe(job)
        if job.done:
            self._report_outcome(job)
        return record

    def _report_outcome(self, job: RunningJob) -> None:
        """Report a finished job through the pipeline's choke point.

        Predicted performance is recomputed from the job's *final*
        shape (caps, concurrency, surviving nodes) so re-coordinated
        or shrunk jobs are compared against what the models promised
        for the configuration they actually ran, not the launch-time
        one.  Failures to predict (e.g. a cap below the model's floor
        after an emergency throttle) drop the observation rather than
        poisoning the history.
        """
        pipeline = self._scheduler.pipeline
        specs = pipeline.node_specs
        kb = self._scheduler.knowledge
        if not kb.has(job.app.name, job.app.problem_size):
            return
        entry = kb.get(job.app.name, job.app.problem_size)
        predicted = 0.0
        for slot, caps in zip(job.node_ids, job.per_node_caps):
            bundle = pipeline.class_bundle(entry, specs[slot])
            freq = bundle.power_model.max_freq_under(
                caps[0], job.n_threads
            )
            if freq is None:
                return
            predicted += bundle.predictor.predict_perf(job.n_threads, freq)
        measured = job.mean_performance
        if predicted <= 0 or measured <= 0:
            return
        flags = []
        if len({s.n_threads for s in job.segments}) > 1:
            flags.append("concurrency_change")
        if len({s.budget_w for s in job.segments}) > 1:
            flags.append("budget_change")
        pipeline.record_outcome(
            job.app,
            predicted_perf=predicted,
            measured_perf=measured,
            measured_power_w=(
                job.energy_j / job.elapsed_s if job.elapsed_s > 0 else None
            ),
            budget_w=job.budget_w,
            n_nodes=job.n_nodes,
            n_threads=job.n_threads,
            model_version=entry.model_version,
            source="runtime",
            flags=tuple(flags),
        )

    def run_to_completion(
        self, job: RunningJob, segment_iterations: int = 50
    ) -> RunningJob:
        """Drain the job in fixed-size segments."""
        while not job.done:
            self.advance(job, segment_iterations)
        return job

    # -- crash recovery -------------------------------------------------

    @classmethod
    def restore(
        cls,
        journal_path: str | Path,
        scheduler: ClipScheduler,
        reattach: bool = True,
    ) -> "PowerBoundedRuntime":
        """Rebuild a runtime from its journal after a crash.

        Replays every intact record in order: jobs are reconstructed
        field-by-field (the app itself is deserialized from the launch
        record, so custom workloads survive too) and every journaled
        cap commit is re-audited, reproducing the monitor's ledger
        exactly — replay is bit-identical because JSON round-trips
        floats exactly.  No hardware is touched: the next
        :meth:`advance` re-establishes the caps on the nodes it runs.
        With ``reattach`` (the default) the restored runtime continues
        appending to the same journal file.
        """
        runtime = cls(scheduler)
        for record in RuntimeJournal.read(journal_path):
            runtime._replay(record)
        if reattach:
            runtime._journal = RuntimeJournal(journal_path)
        return runtime

    def _replay(self, record: dict) -> None:
        kind = record["kind"]
        if kind == "launch":
            job = RunningJob(
                app=_app_from_dict(record["app"]),
                n_nodes=len(record["node_ids"]),
                n_threads=record["n_threads"],
                node_ids=tuple(record["node_ids"]),
                budget_w=record["budget_w"],
                per_node_caps=tuple(
                    tuple(c) for c in record["per_node_caps"]
                ),
                remaining_iterations=record["remaining_iterations"],
                allow_concurrency_change=record["allow_concurrency_change"],
                allow_shrink=record["allow_shrink"],
            )
            self._jobs.append(job)
            self._replay_audit(record, job)
        elif kind in ("cap_commit", "budget_change", "recover"):
            job = self._jobs[record["job"]]
            job.budget_w = record["budget_w"]
            job.node_ids = tuple(record["node_ids"])
            job.n_nodes = len(job.node_ids)
            job.n_threads = record["n_threads"]
            job.per_node_caps = tuple(
                tuple(c) for c in record["per_node_caps"]
            )
            if kind == "recover":
                job.parked = False
                job.park_reason = None
            self._replay_audit(record, job)
        elif kind == "park":
            job = self._jobs[record["job"]]
            job.parked = True
            job.park_reason = record["reason"]
        elif kind == "segment":
            job = self._jobs[record["job"]]
            job.segments.append(
                SegmentRecord(
                    iterations=record["iterations"],
                    budget_w=record["budget_w"],
                    n_threads=record["n_threads"],
                    time_s=record["time_s"],
                    energy_j=record["energy_j"],
                    performance=record["performance"],
                )
            )
            job.remaining_iterations -= record["iterations"]

    def _replay_audit(self, record: dict, job: RunningJob) -> None:
        self.monitor.audit(
            record["source"],
            job.app.name,
            record.get("audit_budget_w", record["budget_w"]),
            tuple(tuple(c) for c in record["per_node_caps"]),
            node_lo_w=_bound_from_json(record["node_lo_w"]),
            node_hi_w=_bound_from_json(record["node_hi_w"]),
        )
