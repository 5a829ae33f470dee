"""The knowledge database (§IV-B.3), now outcome-fed.

The Application Execution Module "takes a program and checks whether
the program has been recorded in our knowledge database"; on a miss it
triggers smart profiling and stores the result.  Entries are keyed by
(application name, problem size) — the paper shows the same code with
different inputs (CloverLeaf) can need different coordination.

Entries hold the profile plus the derived artifacts (inflection point)
and can be persisted to / restored from JSON, standing in for the
on-disk database of the real helper tools.

Schema v2 turns the store from write-once into a learning substrate:
each entry additionally carries an append-capped history of
:class:`ObservationRecord`\\ s (predicted vs. measured time and power
for every completed job, with the configuration, budget, testbed
fingerprint, and outcome flags), a monotone ``model_version`` bumped on
every refit, and the learned :class:`~repro.core.perfmodel.TimeCalibration`.
Decision quality is a *derived* per-(app, budget-band, testbed) score
— :meth:`KnowledgeEntry.quality_cells` computes it from the capped
window, so it can never drift out of sync with the history it summarizes.
v1 files load transparently (entries migrate to empty histories);
unknown future versions are still rejected.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from repro.core.perfmodel import TimeCalibration
from repro.core.profile import AppProfile, SampleRun
from repro.errors import KnowledgeBaseError, KnowledgeError
from repro.hw.counters import EventCounters
from repro.hw.numa import AffinityKind

__all__ = [
    "KnowledgeEntry",
    "KnowledgeDB",
    "ObservationRecord",
    "DecisionQuality",
    "budget_band",
    "SCHEMA_VERSION",
    "MAX_OBSERVATIONS",
    "BUDGET_BAND_W",
]

#: On-disk schema version written by :meth:`KnowledgeDB.save`.
SCHEMA_VERSION = 2

#: Schema versions :meth:`KnowledgeDB.load` can read (older ones are
#: migrated forward in memory; the next save writes ``SCHEMA_VERSION``).
READABLE_VERSIONS = (1, 2)

#: Per-entry observation-history cap: the learning window is the most
#: recent observations, so a long-running deployment's entries stay
#: bounded and stale evidence ages out.
MAX_OBSERVATIONS = 256

#: Width of the budget bands decision quality is bucketed by.
BUDGET_BAND_W = 250.0


def budget_band(budget_w: float) -> float:
    """The quality-cell band a cluster budget falls into (its floor)."""
    if budget_w <= 0:
        return 0.0
    return float(int(budget_w // BUDGET_BAND_W) * BUDGET_BAND_W)


@dataclass(frozen=True)
class ObservationRecord:
    """One completed job's predicted-vs-measured outcome.

    Times are per cluster iteration (the reciprocal of throughput), so
    predictions and measurements from any consumer — the segment
    runtime (queue drains included), the serve daemon — compare on one
    axis.  ``flags`` carry outcome annotations ("concurrency_change",
    "budget_change", ...) and
    ``source`` names the reporting choke-point caller.
    """

    predicted_time_s: float
    measured_time_s: float
    predicted_power_w: float
    measured_power_w: float
    budget_w: float
    n_nodes: int
    n_threads: int
    testbed: str
    model_version: int = 1
    source: str = "unknown"
    flags: tuple[str, ...] = ()

    @property
    def predicted_perf(self) -> float:
        """Predicted throughput (1 / predicted time)."""
        return 1.0 / self.predicted_time_s if self.predicted_time_s > 0 else 0.0

    @property
    def measured_perf(self) -> float:
        """Measured throughput (1 / measured time)."""
        return 1.0 / self.measured_time_s if self.measured_time_s > 0 else 0.0

    @property
    def rel_time_error(self) -> float:
        """Signed relative misprediction ((measured - predicted) / predicted)."""
        if self.predicted_time_s <= 0:
            return 0.0
        return (self.measured_time_s - self.predicted_time_s) / self.predicted_time_s

    @property
    def band_w(self) -> float:
        """The budget band this observation's quality cell lives in."""
        return budget_band(self.budget_w)

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "predicted_time_s": self.predicted_time_s,
            "measured_time_s": self.measured_time_s,
            "predicted_power_w": self.predicted_power_w,
            "measured_power_w": self.measured_power_w,
            "budget_w": self.budget_w,
            "n_nodes": self.n_nodes,
            "n_threads": self.n_threads,
            "testbed": self.testbed,
            "model_version": self.model_version,
            "source": self.source,
            "flags": list(self.flags),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ObservationRecord":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            predicted_time_s=float(raw["predicted_time_s"]),
            measured_time_s=float(raw["measured_time_s"]),
            predicted_power_w=float(raw["predicted_power_w"]),
            measured_power_w=float(raw["measured_power_w"]),
            budget_w=float(raw["budget_w"]),
            n_nodes=int(raw["n_nodes"]),
            n_threads=int(raw["n_threads"]),
            testbed=str(raw["testbed"]),
            model_version=int(raw.get("model_version", 1)),
            source=str(raw.get("source", "unknown")),
            flags=tuple(str(f) for f in raw.get("flags", ())),
        )


@dataclass(frozen=True)
class DecisionQuality:
    """Decision-quality summary of one (app, budget-band, testbed) cell."""

    app_name: str
    problem_size: str
    band_w: float
    testbed: str
    n: int
    mean_abs_time_error: float
    mean_abs_power_error: float

    @property
    def score(self) -> float:
        """Quality in (0, 1]: 1 when predictions match measurements."""
        return 1.0 / (1.0 + self.mean_abs_time_error)

    def to_dict(self) -> dict:
        """JSON-safe representation (score included for reports)."""
        return {
            "app_name": self.app_name,
            "problem_size": self.problem_size,
            "band_w": self.band_w,
            "testbed": self.testbed,
            "n": self.n,
            "mean_abs_time_error": self.mean_abs_time_error,
            "mean_abs_power_error": self.mean_abs_power_error,
            "score": self.score,
        }


@dataclass(frozen=True)
class KnowledgeEntry:
    """One application's recorded knowledge.

    The fit-once core (profile + inflection point) is unchanged; the
    learning fields default to "never observed", so entries built by
    code that predates the learning layer behave exactly as before.
    ``observed_total`` counts every observation ever recorded (the
    history itself is capped at :data:`MAX_OBSERVATIONS`);
    ``refit_at`` remembers the count at the last refit so
    :func:`~repro.core.learning.should_refit` can reason about
    staleness.
    """

    profile: AppProfile
    inflection_point: int | None = None
    observations: tuple[ObservationRecord, ...] = ()
    calibration: TimeCalibration | None = None
    model_version: int = 1
    observed_total: int = 0
    refit_at: int = 0

    @property
    def key(self) -> tuple[str, str]:
        """Database key of this entry."""
        return (self.profile.app_name, self.profile.problem_size)

    def same_models(self, other: "KnowledgeEntry") -> bool:
        """Whether fitted models built from *other* would be identical.

        The model inputs are the profile, the inflection point, the
        calibration, and the model version — observation appends leave
        all four untouched, which is what keeps the bundle cache warm
        while outcomes stream in.
        """
        return (
            self.profile == other.profile
            and self.inflection_point == other.inflection_point
            and self.calibration == other.calibration
            and self.model_version == other.model_version
        )

    def with_observation(self, obs: ObservationRecord) -> "KnowledgeEntry":
        """A new entry with *obs* appended (history capped, total bumped)."""
        history = (*self.observations, obs)[-MAX_OBSERVATIONS:]
        return replace(
            self,
            observations=history,
            observed_total=self.observed_total + 1,
        )

    def with_refit(self, calibration: TimeCalibration) -> "KnowledgeEntry":
        """A new entry carrying a refitted calibration (version bumped)."""
        return replace(
            self,
            calibration=calibration,
            model_version=self.model_version + 1,
            refit_at=self.observed_total,
        )

    # -- decision quality ----------------------------------------------

    def quality_cells(self) -> tuple[DecisionQuality, ...]:
        """Every populated quality cell, ordered by (band, testbed)."""
        cells = sorted({(o.band_w, o.testbed) for o in self.observations})
        return tuple(self._cell_quality(band, tb) for band, tb in cells)

    def _cell_quality(self, band_w: float, testbed: str) -> DecisionQuality:
        obs = [
            o
            for o in self.observations
            if o.band_w == band_w and o.testbed == testbed
        ]
        n = len(obs)
        if n:
            time_err = sum(abs(o.rel_time_error) for o in obs) / n
            power_err = sum(
                abs(o.measured_power_w - o.predicted_power_w)
                / o.predicted_power_w
                for o in obs
                if o.predicted_power_w > 0
            ) / n
        else:
            time_err = power_err = 0.0
        return DecisionQuality(
            app_name=self.profile.app_name,
            problem_size=self.profile.problem_size,
            band_w=band_w,
            testbed=testbed,
            n=n,
            mean_abs_time_error=time_err,
            mean_abs_power_error=power_err,
        )


class KnowledgeDB:
    """In-memory knowledge database with JSON persistence.

    The database is shared mutable state — the serve daemon's request
    handlers, the coalescer's decision thread, and periodic
    persistence all touch it concurrently — so every entry-map access
    goes through an internal :class:`threading.RLock`.  Reads on the
    warm path cost one uncontended acquisition; :meth:`save` snapshots
    the entries under the lock and serializes *outside* it, so a save
    can never observe a half-applied :meth:`put` or die with
    "dictionary changed size during iteration".
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._entries: dict[tuple[str, str], KnowledgeEntry] = {}
        self._load_error: KnowledgeBaseError | None = None
        self._migrated_from: int | None = None

    @property
    def load_error(self) -> KnowledgeBaseError | None:
        """Why :meth:`load_or_fresh` fell back to an empty database."""
        return self._load_error

    @property
    def migrated_from(self) -> int | None:
        """Schema version :meth:`load` migrated from (None if current)."""
        return self._migrated_from

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple[str, str]) -> bool:
        with self._lock:
            return key in self._entries

    def has(self, app_name: str, problem_size: str) -> bool:
        """Whether the application+input has been profiled before."""
        with self._lock:
            return (app_name, problem_size) in self._entries

    def put(self, entry: KnowledgeEntry) -> None:
        """Insert or replace an entry."""
        with self._lock:
            self._entries[entry.key] = entry

    def get(self, app_name: str, problem_size: str) -> KnowledgeEntry:
        """Fetch an entry; raises on a miss."""
        try:
            with self._lock:
                return self._entries[(app_name, problem_size)]
        except KeyError:
            raise KnowledgeBaseError(
                f"no knowledge for {app_name!r} / {problem_size!r}"
            ) from None

    def keys(self) -> tuple[tuple[str, str], ...]:
        """All recorded (name, size) keys."""
        with self._lock:
            return tuple(sorted(self._entries))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the database to a JSON file, atomically.

        The payload is written to a temporary file in the target
        directory and moved into place with :func:`os.replace`, so a
        crash mid-save leaves either the old database or the new one —
        never a truncated file.  Safe to call while other threads keep
        profiling: the entry list is snapshotted under the lock and the
        (slow) JSON serialization runs outside it.
        """
        path = Path(path)
        with self._lock:
            entries = list(self._entries.values())
        payload = {
            "version": SCHEMA_VERSION,
            "entries": [_entry_to_dict(e) for e in entries],
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f, indent=2)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: str | Path) -> "KnowledgeDB":
        """Read a database previously written by :meth:`save`.

        Schema-v1 files (the pre-learning format) migrate forward in
        memory: their entries come back with empty observation
        histories and identity models, and the next :meth:`save`
        rewrites the file at the current version.  Unknown (newer)
        versions still raise — a database written by an incompatible
        release must not be half-parsed — as do unreadable or truncated
        files and entries whose fields no longer deserialize, all via a
        clear :class:`~repro.errors.KnowledgeError` carrying the
        offending path.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise KnowledgeError(
                f"cannot load knowledge DB: {exc}", path=str(path)
            ) from exc
        version = payload.get("version") if isinstance(payload, dict) else None
        if version not in READABLE_VERSIONS:
            raise KnowledgeError(
                f"knowledge DB schema version {version!r} is not supported "
                f"(this release reads versions "
                f"{'/'.join(str(v) for v in READABLE_VERSIONS)}); re-profile "
                f"or convert the database",
                path=str(path),
            )
        db = cls()
        if version != SCHEMA_VERSION:
            db._migrated_from = version
        try:
            for raw in payload["entries"]:
                db.put(_entry_from_dict(raw))
        except (KeyError, TypeError, ValueError) as exc:
            raise KnowledgeError(
                f"corrupt knowledge DB entry: {exc!r}", path=str(path)
            ) from exc
        return db

    @classmethod
    def load_or_fresh(cls, path: str | Path) -> "KnowledgeDB":
        """Load a database, degrading to an empty one on corruption.

        The graceful-degradation entry point for long-running drains: a
        missing, truncated, or corrupt database costs re-profiling (the
        scheduler falls back to profiling each application from
        scratch) instead of crashing the queue.  The corrupt file is
        left untouched for post-mortem; the error is recorded on the
        returned database as :attr:`load_error`.
        """
        db: KnowledgeDB
        try:
            db = cls.load(path)
        except KnowledgeError as exc:
            db = cls()
            db._load_error = exc
        return db


def _entry_to_dict(e: KnowledgeEntry) -> dict:
    d = {
        "inflection_point": e.inflection_point,
        "profile": _profile_to_dict(e.profile),
        "observations": [o.to_dict() for o in e.observations],
        "calibration": (
            e.calibration.to_dict() if e.calibration is not None else None
        ),
        "model_version": e.model_version,
        "observed_total": e.observed_total,
        "refit_at": e.refit_at,
    }
    return d


def _entry_from_dict(raw: dict) -> KnowledgeEntry:
    calibration = raw.get("calibration")
    return KnowledgeEntry(
        profile=_profile_from_dict(raw["profile"]),
        inflection_point=raw["inflection_point"],
        observations=tuple(
            ObservationRecord.from_dict(o) for o in raw.get("observations", ())
        ),
        calibration=(
            TimeCalibration.from_dict(calibration)
            if calibration is not None
            else None
        ),
        model_version=int(raw.get("model_version", 1)),
        observed_total=int(raw.get("observed_total", 0)),
        refit_at=int(raw.get("refit_at", 0)),
    )


def _profile_to_dict(profile: AppProfile) -> dict:
    d = asdict(profile)
    for key in ("all_run", "half_run", "confirm_run"):
        run = d[key]
        if run is not None:
            run["affinity"] = run["affinity"].value
    return d


def _run_from_dict(raw: dict | None) -> SampleRun | None:
    if raw is None:
        return None
    raw = dict(raw)
    raw["affinity"] = AffinityKind(raw["affinity"])
    raw["events"] = EventCounters(**raw["events"])
    raw["phase_times"] = tuple(
        (name, t) for name, t in raw.get("phase_times", ())
    )
    return SampleRun(**raw)


def _profile_from_dict(raw: dict) -> AppProfile:
    return AppProfile(
        app_name=raw["app_name"],
        problem_size=raw["problem_size"],
        n_cores=raw["n_cores"],
        peak_node_bandwidth=raw["peak_node_bandwidth"],
        all_run=_run_from_dict(raw["all_run"]),
        half_run=_run_from_dict(raw["half_run"]),
        confirm_run=_run_from_dict(raw["confirm_run"]),
    )
