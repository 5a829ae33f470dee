"""Scripted fault injection for the power-bounded runtime and queue.

Power-bounded systems earn their robustness claims under *churn*: nodes
fail and come back, parts degrade, and the facility budget swings
mid-run.  This module turns the simulator into a testbed for exactly
those claims.  A :class:`FaultInjector` holds a script of timed
:class:`FaultEvent`\\ s and applies every event whose timestamp has
passed as simulated time advances:

* node churn — failure, recovery, degradation — and budget swings, as
  before (against a runtime, failures route through
  :meth:`~repro.core.runtime.PowerBoundedRuntime.fail_node` so running
  jobs shrink or park transactionally);
* **actuation faults** — ``cap_write_fail`` installs a seeded
  :class:`~repro.hw.actuation.FaultyActuation` dropping/mangling cap
  writes on one node (or the whole cluster), ``cap_drift`` makes
  writes read back clean while the silicon enforces a drifted limit;
* **telemetry faults** — ``sensor_noise`` and ``sensor_stale`` corrupt
  the watchdog-facing meter read path via
  :class:`~repro.hw.meter.TelemetryFault`;
* **crash** — raises :class:`~repro.errors.RuntimeCrashError`, the
  simulation analogue of the runtime process dying, so scenarios can
  prove :meth:`~repro.core.runtime.PowerBoundedRuntime.restore`
  rebuilds the exact pre-crash state from the journal.

Events sharing a timestamp fire in *script order* (the sort is stable
with an explicit sequence tiebreak), so "node 2 dies and the budget
drops at the same instant" behaves identically however the sort is
implemented.  Every cap set issued along the way lands on the shared
:class:`~repro.core.monitor.BudgetInvariantMonitor`, which is how a
scenario proves it never exceeded the cluster budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import NodeFailureError, RuntimeCrashError, SchedulingError
from repro.hw.actuation import FaultyActuation
from repro.hw.cluster import SimulatedCluster
from repro.hw.meter import TelemetryFault
from repro.units import check_positive

__all__ = ["FAULT_ACTIONS", "FaultEvent", "FaultInjector", "run_scripted"]

#: The event kinds a fault script may contain.
FAULT_ACTIONS = (
    "fail_node",
    "recover_node",
    "degrade_node",
    "set_budget",
    "cap_write_fail",
    "cap_drift",
    "sensor_noise",
    "sensor_stale",
    "crash",
)

#: Actions that target one node — or, with ``node_id=None``, every node.
_NODE_SCOPED = ("cap_write_fail", "cap_drift", "sensor_noise", "sensor_stale")


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault, fired when simulated time reaches ``at_s``.

    ``factor`` is overloaded per action: degradation multiplier for
    ``degrade_node``, drop probability for ``cap_write_fail``, relative
    drift for ``cap_drift`` (positive = node draws *above* its cap),
    relative noise sigma for ``sensor_noise``, and the number of frozen
    reads for ``sensor_stale``.  ``seed`` makes the injected fault's
    RNG stream reproducible.  The actuation/telemetry actions accept
    ``node_id=None`` meaning *every* node.
    """

    at_s: float
    action: str
    node_id: int | None = None
    factor: float | None = None
    budget_w: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise SchedulingError(f"event time must be >= 0, got {self.at_s}")
        if self.action not in FAULT_ACTIONS:
            raise SchedulingError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}"
            )
        if self.action in ("fail_node", "recover_node", "degrade_node"):
            if self.node_id is None:
                raise SchedulingError(f"{self.action} requires node_id")
        if self.action == "degrade_node" and (
            self.factor is None or self.factor <= 0
        ):
            raise SchedulingError("degrade_node requires factor > 0")
        if self.action == "set_budget":
            if self.budget_w is None:
                raise SchedulingError("set_budget requires budget_w")
            check_positive(self.budget_w, "set_budget budget_w", SchedulingError)
        if self.action == "cap_write_fail" and (
            self.factor is None or not 0.0 < self.factor <= 1.0
        ):
            raise SchedulingError(
                "cap_write_fail requires factor in (0, 1] (drop probability)"
            )
        if self.action == "cap_drift" and (
            self.factor is None or self.factor == 0.0
        ):
            raise SchedulingError(
                "cap_drift requires a non-zero factor (relative drift)"
            )
        if self.action == "sensor_noise" and (
            self.factor is None or self.factor <= 0.0
        ):
            raise SchedulingError(
                "sensor_noise requires factor > 0 (relative sigma)"
            )
        if self.action == "sensor_stale" and (
            self.factor is None or self.factor < 1.0
        ):
            raise SchedulingError(
                "sensor_stale requires factor >= 1 (reads to freeze)"
            )

    def describe(self) -> str:
        """Human-readable one-liner for logs and demo output."""
        where = "all nodes" if self.node_id is None else f"node {self.node_id}"
        if self.action == "fail_node":
            detail = f"node {self.node_id} fails"
        elif self.action == "recover_node":
            detail = f"node {self.node_id} recovers"
        elif self.action == "degrade_node":
            detail = f"node {self.node_id} degrades x{self.factor:g}"
        elif self.action == "set_budget":
            detail = f"budget -> {self.budget_w:.0f} W"
        elif self.action == "cap_write_fail":
            detail = f"{where}: cap writes drop with p={self.factor:g}"
        elif self.action == "cap_drift":
            detail = f"{where}: cap enforcement drifts {self.factor:+.0%}"
        elif self.action == "sensor_noise":
            detail = f"{where}: sensor noise sigma={self.factor:g}"
        elif self.action == "sensor_stale":
            detail = f"{where}: sensor freezes for {self.factor:g} reads"
        else:  # crash
            detail = "runtime crashes"
        return f"t={self.at_s:.1f}s: {detail}"


class FaultInjector:
    """Applies a fault script against a cluster as time advances.

    The injector owns the *current* cluster budget (seeded with
    ``budget_w``, changed by ``set_budget`` events) and mutates the
    cluster directly for failure/recovery/degradation — unless a
    runtime is passed to :meth:`advance_to`, in which case node events
    route through the runtime so its jobs shrink or park.  Actuation
    and telemetry events install seeded fault models on the target
    nodes' RAPL interfaces and meters; a ``crash`` event raises
    :class:`~repro.errors.RuntimeCrashError` *after* recording itself
    as fired, so a restored runtime can resume the same script.
    """

    def __init__(
        self,
        cluster: SimulatedCluster,
        events: list[FaultEvent] | tuple[FaultEvent, ...],
        budget_w: float | None = None,
    ):
        self._cluster = cluster
        # Stable order: equal-timestamp events must fire exactly as
        # scripted.  Python's sort is stable, but the script-position
        # tiebreak makes the contract explicit rather than incidental.
        self._events = [
            e
            for _, _, e in sorted(
                (e.at_s, i, e) for i, e in enumerate(events)
            )
        ]
        self._cursor = 0
        self._budget = budget_w
        self.fired: list[FaultEvent] = []
        # one mutable FaultyActuation / TelemetryFault per touched node,
        # so repeated events compose instead of resetting RNG streams
        self._actuation: dict[int, FaultyActuation] = {}
        self._telemetry: dict[int, TelemetryFault] = {}

    @property
    def cluster(self) -> SimulatedCluster:
        """The cluster this script mutates."""
        return self._cluster

    @property
    def budget_w(self) -> float | None:
        """The current cluster budget (``None`` until one is known)."""
        return self._budget

    @property
    def pending(self) -> tuple[FaultEvent, ...]:
        """Events not yet fired, in schedule order."""
        return tuple(self._events[self._cursor :])

    @property
    def exhausted(self) -> bool:
        """Whether every scripted event has fired."""
        return self._cursor >= len(self._events)

    # ------------------------------------------------------------------

    def _target_ids(self, event: FaultEvent) -> tuple[int, ...]:
        if event.node_id is not None:
            return (event.node_id,)
        return tuple(range(self._cluster.n_nodes))

    def _node_actuation(self, node_id: int, seed: int) -> FaultyActuation:
        policy = self._actuation.get(node_id)
        if policy is None:
            policy = FaultyActuation(seed=seed + node_id)
            self._actuation[node_id] = policy
            self._cluster.node(node_id).rapl.actuation = policy
        return policy

    def _node_telemetry(self, node_id: int, seed: int) -> TelemetryFault:
        fault = self._telemetry.get(node_id)
        if fault is None:
            fault = TelemetryFault(seed=seed + node_id)
            self._telemetry[node_id] = fault
            self._cluster.node(node_id).meter.telemetry = fault
        return fault

    def _apply(self, event: FaultEvent, runtime) -> None:
        if event.action == "fail_node":
            if runtime is not None:
                runtime.fail_node(event.node_id)
            else:
                self._cluster.fail_node(event.node_id)
        elif event.action == "recover_node":
            if runtime is not None:
                runtime.recover_node(event.node_id)
            else:
                self._cluster.recover_node(event.node_id)
        elif event.action == "degrade_node":
            self._cluster.degrade_node(event.node_id, event.factor)
            if runtime is not None:
                runtime.recalibrate()
        elif event.action == "set_budget":
            self._budget = event.budget_w
        elif event.action == "cap_write_fail":
            for nid in self._target_ids(event):
                self._node_actuation(nid, event.seed).drop_prob = event.factor
        elif event.action == "cap_drift":
            for nid in self._target_ids(event):
                policy = self._node_actuation(nid, event.seed)
                policy.drift_prob = 1.0
                policy.drift_frac = event.factor
        elif event.action == "sensor_noise":
            for nid in self._target_ids(event):
                self._node_telemetry(nid, event.seed).noise_frac = event.factor
        elif event.action == "sensor_stale":
            for nid in self._target_ids(event):
                self._node_telemetry(nid, event.seed).make_stale(
                    int(event.factor)
                )
        else:  # crash — recorded first so a restored runtime resumes after it
            self.fired.append(event)
            raise RuntimeCrashError(
                f"scripted crash at t={event.at_s:.1f}s"
            )
        self.fired.append(event)

    def advance_to(self, now_s: float, runtime=None) -> list[FaultEvent]:
        """Fire every event scheduled at or before *now_s*.

        Returns the events fired by this call, in order.  Pass the
        :class:`~repro.core.runtime.PowerBoundedRuntime` owning the
        affected jobs so failures shrink/park them transactionally.
        """
        out: list[FaultEvent] = []
        while (
            self._cursor < len(self._events)
            and self._events[self._cursor].at_s <= now_s
        ):
            event = self._events[self._cursor]
            self._cursor += 1
            self._apply(event, runtime)
            out.append(event)
        return out

    def fire_next(self, runtime=None) -> FaultEvent:
        """Fire the next pending event regardless of its timestamp.

        Models waiting for the machine room: a parked job makes no
        simulated progress, so the clock only moves because the next
        scripted event (typically the recovery) eventually happens.
        """
        if self.exhausted:
            raise SchedulingError("fault script is exhausted")
        event = self._events[self._cursor]
        self._cursor += 1
        self._apply(event, runtime)
        return event


def run_scripted(
    runtime,
    job,
    injector: FaultInjector,
    segment_iterations: int = 20,
):
    """Drive one runtime job to completion under a fault script.

    Between segments, fires every event due at the job's elapsed
    simulated time; budget events re-coordinate the job, and if a
    failure parks it, the loop fast-forwards the script (the job waits
    in place) until a recovery un-parks it.  Raises
    :class:`~repro.errors.NodeFailureError` if the job is parked and no
    scripted event remains to rescue it.  A scripted ``crash``
    propagates :class:`~repro.errors.RuntimeCrashError` to the caller —
    restore from the journal and call :func:`run_scripted` again with
    the restored job and the *same* injector to finish the script.
    """
    while not job.done:
        injector.advance_to(job.elapsed_s, runtime=runtime)
        while job.parked:
            if injector.exhausted:
                raise NodeFailureError(
                    f"job parked with no rescue left in the script: "
                    f"{job.park_reason}"
                )
            injector.fire_next(runtime=runtime)
        if (
            injector.budget_w is not None
            and injector.budget_w != job.budget_w
        ):
            runtime.update_budget(job, injector.budget_w)
        runtime.advance(job, segment_iterations)
    return job
