"""Exception hierarchy for the CLIP reproduction.

All library-raised errors derive from :class:`ClipError` so callers can
catch a single base class.  Subclasses are grouped by the subsystem that
raises them: hardware model, workload model, simulation engine, and the
CLIP scheduler itself.
"""

from __future__ import annotations

__all__ = [
    "ClipError",
    "SpecError",
    "PowerDomainError",
    "AffinityError",
    "WorkloadError",
    "ProfilingError",
    "ModelNotFittedError",
    "InfeasibleBudgetError",
    "SchedulingError",
    "NodeFailureError",
    "BudgetInvariantError",
    "KnowledgeBaseError",
    "KnowledgeError",
    "ActuationError",
    "JournalError",
    "RuntimeCrashError",
    "ServeError",
    "AdmissionError",
]


class ClipError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class SpecError(ClipError):
    """A hardware specification is inconsistent (e.g. zero cores per socket)."""


class PowerDomainError(ClipError):
    """A RAPL power domain was misused (unknown domain, negative cap, ...)."""


class AffinityError(ClipError):
    """A thread-to-core mapping is invalid (overcommit, unknown core, ...)."""


class WorkloadError(ClipError):
    """A workload definition is inconsistent (negative intensity, ...)."""


class ProfilingError(ClipError):
    """Smart profiling could not produce a usable profile."""


class ModelNotFittedError(ClipError):
    """A prediction model was queried before :meth:`fit` was called."""


class InfeasibleBudgetError(ClipError):
    """No configuration satisfies the requested power budget.

    Raised when the cluster budget is below the minimum acceptable power
    for even a single node (the paper's lower bound of the acceptable
    power range, :math:`P_{cpu,L2} + P_{mem,L2}`).
    """


class SchedulingError(ClipError):
    """The scheduler reached an internally inconsistent state."""


class NodeFailureError(ClipError):
    """A node failed under a job whose decomposition cannot absorb it.

    Raised when a running job touches a failed node and the runtime may
    not re-split its work (the decomposition is pinned and shrinking was
    not allowed at launch), or when an execution request names a node
    that is currently marked failed.
    """


class BudgetInvariantError(ClipError):
    """An issued cap set violated a cluster power invariant.

    Raised by :class:`~repro.core.monitor.BudgetInvariantMonitor` when a
    caller demands a clean audit trail (``assert_clean``) and at least
    one recorded cap set either summed above its cluster budget or put
    a node outside the application's acceptable power range.
    """


class KnowledgeBaseError(ClipError):
    """The knowledge database rejected an operation (missing entry, ...).

    When raised by the persistence layer for an unreadable, corrupt, or
    schema-incompatible file, ``path`` carries the offending location so
    callers can report (and fall back) without string-parsing the
    message.
    """

    def __init__(self, message: str, path: "str | None" = None) -> None:
        super().__init__(message)
        self.path = path


class ActuationError(ClipError):
    """A power-cap write did not take effect on the hardware.

    Raised by :meth:`~repro.hw.rapl.RaplInterface.set_cap_verified` after
    readback verification kept failing through the bounded retry/backoff
    schedule.  ``domain`` names the register, ``requested_w`` the cap
    that would not stick.
    """

    def __init__(
        self,
        message: str,
        domain: "str | None" = None,
        requested_w: "float | None" = None,
    ) -> None:
        super().__init__(message)
        self.domain = domain
        self.requested_w = requested_w


class JournalError(ClipError):
    """The runtime write-ahead journal is unusable (bad record, bad path)."""

    def __init__(self, message: str, path: "str | None" = None) -> None:
        super().__init__(message)
        self.path = path


class RuntimeCrashError(ClipError):
    """A scripted ``crash`` fault killed the runtime process.

    The simulation analogue of SIGKILL: fault scripts raise it to prove
    that :meth:`~repro.core.runtime.PowerBoundedRuntime.restore` can
    rebuild the exact pre-crash state from the journal alone.
    """


class ServeError(ClipError):
    """The scheduling service rejected a request or call.

    Raised by the ``clip-sched serve`` daemon's service layer for
    malformed submissions and by :class:`~repro.serve.client.ServeClient`
    when the daemon answers with an error status (carried as
    ``status``, ``None`` for client-side failures).
    """

    def __init__(self, message: str, status: "int | None" = None) -> None:
        super().__init__(message)
        self.status = status


class AdmissionError(ServeError):
    """Admission control turned a submission away (HTTP 429).

    ``tenant`` names the quota that was exhausted — ``None`` means the
    service-wide pending bound, not a per-tenant one.
    """

    def __init__(self, message: str, tenant: "str | None" = None) -> None:
        super().__init__(message, status=429)
        self.tenant = tenant


#: Preferred alias for :class:`KnowledgeBaseError` (the persistence layer
#: raises it for unreadable files and schema-version mismatches too).
KnowledgeError = KnowledgeBaseError
