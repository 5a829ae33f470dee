"""The scheduling service core (transport-free).

:class:`SchedulerService` owns everything the daemon does that is not
HTTP: resolving submissions into jobs, admission control, per-tenant
budget quotas, the job-record store, and the burst decision path that
feeds coalesced submissions through
:meth:`~repro.core.scheduler.ClipScheduler.schedule_many`.  Keeping it
transport-free means the contract ("what does a submission do") is
testable without sockets, and the HTTP layer stays a thin codec.

Threading contract: :meth:`submit`, :meth:`update_budget`, :meth:`job`
and :meth:`stats` are called from the daemon's event-loop thread (or
tests); :meth:`decide_burst` runs in the coalescer's single decision
thread.  All shared state lives behind one lock; the decision work
itself — the scheduler pipeline — relies on the thread-safe
``KnowledgeDB`` / ``ModelBundleCache`` it already shares with every
other consumer.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field

from repro.core.scheduler import ClipScheduler, SchedulingDecision
from repro.errors import AdmissionError, ServeError, WorkloadError
from repro.units import check_positive
from repro.workloads.apps import get_app
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["TenantQuota", "JobRecord", "Submission", "SchedulerService"]

#: Tenant used when a submission names none.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant service limits.

    ``budget_w`` caps the scheduling budget the tenant's decisions are
    made under (their jobs are planned as if the cluster budget were
    ``min(service budget, quota)``); ``max_pending`` bounds how many of
    the tenant's jobs may be queued at once.  ``None`` means unlimited.
    """

    budget_w: float | None = None
    max_pending: int | None = None

    def __post_init__(self) -> None:
        if self.budget_w is not None:
            check_positive(self.budget_w, "quota budget_w", ServeError)
        if self.max_pending is not None and self.max_pending < 1:
            raise ServeError(
                f"quota max_pending must be >= 1, got {self.max_pending}"
            )

    @classmethod
    def parse(cls, spec: str) -> tuple[str, "TenantQuota"]:
        """Parse a CLI quota spec, ``tenant=WATTS[:MAX_PENDING]``."""
        try:
            tenant, limits = spec.split("=", 1)
            watts, _, pending = limits.partition(":")
            quota = cls(
                budget_w=float(watts) if watts else None,
                max_pending=int(pending) if pending else None,
            )
        except (ValueError, ServeError) as exc:
            raise ServeError(
                f"bad quota spec {spec!r} (want tenant=WATTS[:MAX_PENDING] "
                f"with WATTS finite and > 0, MAX_PENDING >= 1): {exc}"
            ) from exc
        if not tenant:
            raise ServeError(f"bad quota spec {spec!r}: empty tenant name")
        return tenant, quota


@dataclass
class JobRecord:
    """One submitted job's lifecycle, queryable until evicted."""

    job_id: str
    tenant: str
    app_name: str
    problem_size: str
    budget_w: float
    status: str = "pending"  # pending | done | failed
    submitted_at: float = 0.0
    decided_at: float | None = None
    decision: SchedulingDecision | None = None
    error: str | None = None
    outcome: dict | None = None

    @property
    def latency_s(self) -> float | None:
        """Submit-to-decision wall time (None while pending)."""
        if self.decided_at is None:
            return None
        return self.decided_at - self.submitted_at

    def to_dict(self) -> dict:
        """JSON-safe wire form (the decision via its own codec)."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "app": self.app_name,
            "problem_size": self.problem_size,
            "budget_w": self.budget_w,
            "status": self.status,
            "latency_s": self.latency_s,
            "decision": (
                self.decision.to_dict() if self.decision is not None else None
            ),
            "error": self.error,
            "outcome": self.outcome,
        }


def _complete(future: Future, result=None, error: Exception | None = None):
    """Complete a submission future, tolerating an abandoned waiter
    (a timed-out ``wait=true`` request cancels its future; the job
    record still carries the outcome for later queries)."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


@dataclass
class Submission:
    """A queued job: its record plus the future its decision lands on."""

    record: JobRecord
    app: WorkloadCharacteristics
    future: Future = field(default_factory=Future)


def _checked_budget(value, name: str) -> float:
    """*value* as a finite, positive float, else a 400 :class:`ServeError`.

    JSON bodies can carry ``NaN``, ``Infinity``, strings or ``null``;
    none of them may reach the scheduler as a budget or a measurement.
    """
    try:
        return check_positive(float(value), name)
    except (TypeError, ValueError) as exc:
        raise ServeError(f"bad {name}: {exc}") from exc


class SchedulerService:
    """Admission, quotas, job records, and the burst decision path."""

    def __init__(
        self,
        scheduler: ClipScheduler,
        budget_w: float,
        *,
        max_pending: int = 4096,
        quotas: dict[str, TenantQuota] | None = None,
        history_limit: int = 200_000,
    ):
        self._clip = scheduler
        self._lock = threading.Lock()
        self._budget_w = _checked_budget(budget_w, "service budget")
        self._max_pending = int(max_pending)
        if self._max_pending < 1:
            raise ServeError(f"max_pending must be >= 1, got {max_pending}")
        self._quotas = dict(quotas or {})
        self._history_limit = int(history_limit)
        self._jobs: dict[str, JobRecord] = {}
        self._done_order: deque[str] = deque()
        self._ids = itertools.count(1)
        self._pending_total = 0
        self._pending_by_tenant: dict[str, int] = {}
        self._started_at = time.time()
        # counters (under the lock)
        self._submitted = 0
        self._decided = 0
        self._failed = 0
        self._rejected = 0
        self._bursts = 0
        self._burst_jobs = 0
        self._max_burst_seen = 0
        self._outcomes = 0

    # -- configuration -------------------------------------------------

    @property
    def scheduler(self) -> ClipScheduler:
        """The wrapped scheduler (shared pipeline, caches, monitor)."""
        return self._clip

    @property
    def budget_w(self) -> float:
        """The current service-wide cluster budget."""
        with self._lock:
            return self._budget_w

    def update_budget(self, budget_w: float) -> float:
        """Set the budget used for subsequent submissions."""
        budget_w = _checked_budget(budget_w, "budget")
        with self._lock:
            self._budget_w = budget_w
        return budget_w

    def quota(self, tenant: str) -> TenantQuota:
        """The tenant's quota (unlimited when none was configured)."""
        return self._quotas.get(tenant, TenantQuota())

    # -- submission ----------------------------------------------------

    def submit(
        self, jobs: list[dict | str], tenant: str = DEFAULT_TENANT
    ) -> list[Submission]:
        """Admit a batch of jobs and return their queued submissions.

        Each job is a name or a ``{"app": name, "budget_w": ...}``
        mapping (the optional per-job budget is still clamped by the
        tenant quota).  Validation failures raise
        :class:`~repro.errors.ServeError`; admission-control rejections
        raise :class:`~repro.errors.AdmissionError`.  Admission is
        all-or-nothing per call: a rejected batch queues none of its
        jobs.
        """
        if not jobs:
            raise ServeError("empty submission")
        parsed: list[tuple[WorkloadCharacteristics, float | None]] = []
        for raw in jobs:
            if isinstance(raw, str):
                name, requested = raw, None
            elif isinstance(raw, dict):
                name = raw.get("app")
                requested = raw.get("budget_w")
            else:
                raise ServeError(f"bad job spec {raw!r}")
            if not isinstance(name, str):
                raise ServeError(f"job spec {raw!r} names no app")
            if requested is not None:
                requested = _checked_budget(requested, "job budget")
            try:
                parsed.append((get_app(name), requested))
            except WorkloadError as exc:
                raise ServeError(str(exc)) from exc
        quota = self.quota(tenant)
        now = time.time()
        with self._lock:
            n = len(parsed)
            if self._pending_total + n > self._max_pending:
                self._rejected += n
                raise AdmissionError(
                    f"queue full: {self._pending_total} pending + {n} "
                    f"submitted > max_pending {self._max_pending}"
                )
            tenant_pending = self._pending_by_tenant.get(tenant, 0)
            if (
                quota.max_pending is not None
                and tenant_pending + n > quota.max_pending
            ):
                self._rejected += n
                raise AdmissionError(
                    f"tenant {tenant!r} over quota: {tenant_pending} pending "
                    f"+ {n} submitted > max_pending {quota.max_pending}",
                    tenant=tenant,
                )
            submissions = []
            for app, requested in parsed:
                budget = requested if requested is not None else self._budget_w
                if quota.budget_w is not None:
                    budget = min(budget, quota.budget_w)
                record = JobRecord(
                    job_id=f"j-{next(self._ids):06d}",
                    tenant=tenant,
                    app_name=app.name,
                    problem_size=app.problem_size,
                    budget_w=budget,
                    submitted_at=now,
                )
                self._jobs[record.job_id] = record
                submissions.append(Submission(record=record, app=app))
            self._pending_total += n
            self._pending_by_tenant[tenant] = tenant_pending + n
            self._submitted += n
        return submissions

    # -- the burst decision path ---------------------------------------

    def decide_burst(self, batch: list[Submission]) -> None:
        """Decide one coalesced burst (runs in the decision thread).

        Submissions are grouped by effective budget — ``schedule_many``
        decides each group under one budget on the shared caches — and
        every future is completed exactly once, with its decision or
        with the error that stopped its group.
        """
        with self._lock:
            self._bursts += 1
            self._burst_jobs += len(batch)
            self._max_burst_seen = max(self._max_burst_seen, len(batch))
        groups: dict[float, list[Submission]] = {}
        for sub in batch:
            groups.setdefault(sub.record.budget_w, []).append(sub)
        for budget, subs in groups.items():
            try:
                decisions = self._clip.schedule_many(
                    [s.app for s in subs], budget
                )
            except Exception as exc:  # noqa: BLE001 — futures carry it
                self._finish_failed(subs, exc)
                continue
            now = time.time()
            with self._lock:
                for sub, decision in zip(subs, decisions):
                    rec = sub.record
                    rec.status = "done"
                    rec.decision = decision
                    rec.decided_at = now
                    self._decided += 1
                    self._retire_locked(rec)
            for sub, decision in zip(subs, decisions):
                _complete(sub.future, result=decision)

    def fail_pending(self, batch: list[Submission], reason: str) -> None:
        """Fail queued submissions that will never be decided
        (daemon shutdown with jobs still in the coalescer queue)."""
        self._finish_failed(batch, ServeError(reason))

    def _finish_failed(self, subs: list[Submission], exc: Exception) -> None:
        now = time.time()
        with self._lock:
            for sub in subs:
                rec = sub.record
                rec.status = "failed"
                rec.error = str(exc)
                rec.decided_at = now
                self._failed += 1
                self._retire_locked(rec)
        for sub in subs:
            _complete(sub.future, error=exc)

    def _retire_locked(self, rec: JobRecord) -> None:
        """Move a record out of the pending counts; evict old history."""
        self._pending_total -= 1
        tenant = rec.tenant
        left = self._pending_by_tenant.get(tenant, 1) - 1
        if left:
            self._pending_by_tenant[tenant] = left
        else:
            self._pending_by_tenant.pop(tenant, None)
        self._done_order.append(rec.job_id)
        while len(self._done_order) > self._history_limit:
            self._jobs.pop(self._done_order.popleft(), None)

    # -- closed-loop outcomes ------------------------------------------

    def record_outcome(self, job_id: str, payload: dict) -> JobRecord:
        """Report a daemon-submitted job's measured outcome.

        The payload carries ``performance`` (cluster iterations/s) or
        ``measured_time_s`` (seconds per iteration), plus optional
        ``measured_power_w`` and ``flags``.  The observation flows
        through the pipeline's
        :meth:`~repro.core.pipeline.DecisionPipeline.record_outcome`
        choke point against the decision the daemon issued, and is
        echoed on the job record for later queries.  404 for unknown
        jobs, 409 for undecided jobs or double reports.
        """
        if not isinstance(payload, dict):
            raise ServeError("outcome payload must be an object")
        perf = payload.get("performance")
        time_s = payload.get("measured_time_s")
        if perf is None and time_s is None:
            raise ServeError(
                "outcome needs 'performance' or 'measured_time_s'"
            )
        # validate every number before the outcome slot is claimed, so
        # a rejected report leaves the job reportable
        if perf is None:
            perf = 1.0 / _checked_budget(time_s, "measured_time_s")
        perf = _checked_budget(perf, "performance")
        power = payload.get("measured_power_w")
        if power is not None:
            power = _checked_budget(power, "measured_power_w")
        flags = payload.get("flags", ())
        if isinstance(flags, str):
            flags = (flags,)
        with self._lock:
            rec = self._jobs.get(job_id)
            if rec is None:
                raise ServeError(f"no such job {job_id!r}", status=404)
            if rec.decision is None:
                raise ServeError(
                    f"job {job_id!r} has no decision to report against "
                    f"(status {rec.status!r})",
                    status=409,
                )
            if rec.outcome is not None:
                raise ServeError(
                    f"job {job_id!r} already has a recorded outcome",
                    status=409,
                )
            # claim the slot under the lock so a concurrent duplicate
            # report 409s instead of double-feeding the learner
            rec.outcome = {"performance": perf, "recorded": False}
        obs = self._clip.pipeline.record_outcome(
            get_app(rec.app_name),
            decision=rec.decision,
            measured_perf=perf,
            measured_power_w=power,
            source="serve",
            flags=tuple(str(f) for f in flags),
        )
        with self._lock:
            rec.outcome = {
                "performance": perf,
                "measured_power_w": power,
                "recorded": obs is not None,
            }
            self._outcomes += 1
        return rec

    # -- queries -------------------------------------------------------

    def job(self, job_id: str) -> JobRecord | None:
        """Look a job up by id (None once evicted / never submitted)."""
        with self._lock:
            return self._jobs.get(job_id)

    def stats(self) -> dict:
        """One consistent JSON-safe snapshot of the service state."""
        pipeline = self._clip.pipeline
        monitor = self._clip.monitor
        with self._lock:
            elapsed = time.time() - self._started_at
            decided = self._decided
            return {
                "uptime_s": elapsed,
                "budget_w": self._budget_w,
                "max_pending": self._max_pending,
                "submitted": self._submitted,
                "decided": decided,
                "failed": self._failed,
                "rejected": self._rejected,
                "pending": self._pending_total,
                "pending_by_tenant": dict(self._pending_by_tenant),
                "decisions_per_s": decided / elapsed if elapsed > 0 else 0.0,
                "bursts": self._bursts,
                "mean_burst": (
                    self._burst_jobs / self._bursts if self._bursts else 0.0
                ),
                "max_burst": self._max_burst_seen,
                "quotas": {
                    t: {"budget_w": q.budget_w, "max_pending": q.max_pending}
                    for t, q in sorted(self._quotas.items())
                },
                "bundle_cache": pipeline.bundle_cache.stats(),
                "knowledge_entries": len(pipeline.knowledge),
                "audits": monitor.n_audits,
                "audit_violations": monitor.n_violations,
                "outcomes": self._outcomes,
                "learning": pipeline.learning_stats(),
            }
