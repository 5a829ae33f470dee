"""Breach detection and self-healing enforcement.

The coordination stack *plans* caps that respect the cluster budget;
this module checks the plan against physical reality.  FastCap-style
systems (PAPERS.md) react when *measured* power violates the bound —
because cap writes get dropped, firmware drifts, and models err — and
the :class:`PowerEnforcementWatchdog` does the same for the
power-bounded runtime:

* after every segment it gathers the participating nodes' meter
  readings from the cluster's bank in one pass (the fallible, possibly
  lying sensor path: each node's telemetry fault still corrupts its own
  reading), sums them in rank order and compares the total against
  the job's facility budget plus a configurable **guard band**;
* on a breach it climbs an escalation ladder of *transactional*
  corrections — (1) re-issue the committed caps through the verified
  write path (repairs dropped/partial writes), (2) re-coordinate at a
  derated budget proportional to the overshoot (absorbs silent drift),
  (3) force an **emergency uniform throttle** to the floor of the
  acceptable range, out-of-band, when re-coordination itself fails;
* every corrective cap set is audited by the shared
  :class:`~repro.core.monitor.BudgetInvariantMonitor`, so the ledger
  shows the correction as well as the breach that motivated it.

The job queue drains every job through the runtime, so queued jobs are
watched the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ActuationError, InfeasibleBudgetError

__all__ = [
    "WatchdogObservation",
    "PowerEnforcementWatchdog",
]

#: Guard band: measured draw may exceed the job's budget by this
#: fraction before it counts as a breach.  Wide
#: enough to ignore honest sensor jitter, narrow enough to catch real
#: drift.
DEFAULT_GUARD_BAND_FRAC = 0.05

#: Derate clamps: one corrective re-coordination never cuts the budget
#: below ``MIN_DERATE`` of its current value (a wild sensor reading must
#: not collapse the job), nor above ``MAX_DERATE`` (every correction
#: makes real progress).
MIN_DERATE = 0.4
MAX_DERATE = 0.95


@dataclass(frozen=True)
class WatchdogObservation:
    """One post-segment enforcement check.

    ``action`` is ``none`` (within band), ``blind`` (every sensor
    reading lost — nothing to compare), ``reissue`` / ``recoordinate`` /
    ``emergency`` (the correction taken), or ``emergency.hold`` (the
    job is already at the emergency floor and is held there).
    """

    job_index: int
    segment_index: int
    measured_w: float | None
    allowed_w: float
    guard_band_w: float
    breach: bool
    action: str

    def to_dict(self) -> dict:
        """JSON-ready form for reports."""
        return {
            "job_index": self.job_index,
            "segment_index": self.segment_index,
            "measured_w": self.measured_w,
            "allowed_w": self.allowed_w,
            "guard_band_w": self.guard_band_w,
            "breach": self.breach,
            "action": self.action,
        }


class PowerEnforcementWatchdog:
    """Samples measured draw against committed caps after each segment.

    Attach to a runtime (done by the constructor) and it is consulted
    automatically from :meth:`~repro.core.runtime.PowerBoundedRuntime.
    advance`; call :meth:`observe` directly to check a job on demand.

    Parameters
    ----------
    runtime:
        The :class:`~repro.core.runtime.PowerBoundedRuntime` to guard.
    """

    def __init__(self, runtime):
        self._runtime = runtime
        self._observations: list[WatchdogObservation] = []
        self._strikes: dict[int, int] = {}
        self._emergency: set[int] = set()
        runtime.attach_watchdog(self)

    @property
    def observations(self) -> tuple[WatchdogObservation, ...]:
        """Every enforcement check, in observation order."""
        return tuple(self._observations)

    # ------------------------------------------------------------------

    def _measure(self, job) -> float | None:
        """Sum the job's nodes' sensor readings (``None`` = all lost).

        A node whose reading was dropped is assumed to honour its
        committed cap total — the conservative assumption in the
        no-false-breach direction; a breach is still detected as long
        as *some* sensor sees the overdraw.
        """
        bank = self._runtime.scheduler.engine.cluster.cap_bank
        total = 0.0
        seen = False
        readings = bank.read_capped_w(job.node_ids)
        for caps, reading in zip(job.per_node_caps, readings):
            if reading is None:
                total += float(sum(caps))
            else:
                total += float(reading)
                seen = True
        return total if seen else None

    def observe(self, job) -> WatchdogObservation:
        """Check one job's last segment; correct if it breached.

        The bound compared against is the job's *facility budget* —
        the invariant CLIP promises — not the (possibly already
        derated) cap total: a corrective derate plans caps below the
        budget precisely so the drifted enforcement lands back under
        it.  Returns the observation describing what was measured and
        which corrective action (if any) was taken.
        """
        key = self._job_key(job)
        allowed_w = float(job.budget_w)
        band_w = DEFAULT_GUARD_BAND_FRAC * allowed_w
        measured_w = self._measure(job)
        if measured_w is None:
            action, breach = "blind", False
        elif measured_w <= allowed_w + band_w:
            action, breach = "none", False
            self._strikes[key] = 0
            self._emergency.discard(key)
        else:
            breach = True
            action = self._correct(job, key, measured_w, allowed_w)
        obs = WatchdogObservation(
            job_index=key,
            segment_index=len(job.segments) - 1,
            measured_w=measured_w,
            allowed_w=allowed_w,
            guard_band_w=band_w,
            breach=breach,
            action=action,
        )
        self._observations.append(obs)
        return obs

    def _job_key(self, job) -> int:
        for i, j in enumerate(self._runtime.jobs):
            if j is job:
                return i
        return -1

    def _correct(self, job, key: int, measured_w: float, allowed_w: float) -> str:
        strikes = self._strikes.get(key, 0) + 1
        self._strikes[key] = strikes
        if key in self._emergency:
            # already at the floor: hold it there, out-of-band
            self._runtime.emergency_throttle(job)
            return "emergency.hold"
        if strikes == 1:
            # first strike: assume a lost/partial write and repair it
            try:
                self._runtime.reissue_caps(job)
                return "reissue"
            except ActuationError:
                pass  # write path is wedged; fall through to re-plan
        # persistent overdraw: silent drift — re-plan below the current
        # cap total by the observed overshoot so enforced power lands
        # back under the bound; job.budget_w (the facility bound) stays
        caps_total_w = float(sum(sum(cap) for cap in job.per_node_caps))
        derate = min(MAX_DERATE, max(MIN_DERATE, allowed_w / measured_w))
        try:
            self._runtime.recoordinate(
                job, budget_w=derate * caps_total_w, source="watchdog"
            )
            return "recoordinate"
        except (InfeasibleBudgetError, ActuationError):
            self._runtime.emergency_throttle(job)
            self._emergency.add(key)
            return "emergency"

    # ------------------------------------------------------------------

    def report(self) -> dict:
        """Summary counts plus breach-to-correction latency in segments.

        An *episode* is a maximal run of consecutive breach
        observations of one job; its length is how many segments the
        job ran out of band before a correction brought it back (or
        the trace ended).
        """
        actions: dict[str, int] = {}
        for obs in self._observations:
            actions[obs.action] = actions.get(obs.action, 0) + 1
        episodes: list[int] = []
        open_runs: dict[int, int] = {}
        for obs in self._observations:
            if obs.breach:
                open_runs[obs.job_index] = open_runs.get(obs.job_index, 0) + 1
            elif obs.job_index in open_runs:
                episodes.append(open_runs.pop(obs.job_index))
        episodes.extend(open_runs.values())
        return {
            "observations": len(self._observations),
            "breaches": sum(1 for o in self._observations if o.breach),
            "actions": actions,
            "guard_band_frac": DEFAULT_GUARD_BAND_FRAC,
            "episodes": len(episodes),
            "max_breach_segments": max(episodes) if episodes else 0,
            "mean_breach_segments": (
                sum(episodes) / len(episodes) if episodes else 0.0
            ),
        }
