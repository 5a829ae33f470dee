"""The closed-loop learning layer (ISSUE 10).

Property suites (hypothesis) for the refit math and the observation
history, the v1 -> v2 schema migration round-trip, the learning-off
bit-identity guarantee, the agreement of every decision entry point
once refits have acted, and the misprediction-feedback regression: a
knowledge entry seeded with a uniformly mistimed profile must be
corrected by the calibration refit within a handful of observations.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import build_trained_inflection
from repro.core.knowledge import (
    MAX_OBSERVATIONS,
    SCHEMA_VERSION,
    KnowledgeDB,
    KnowledgeEntry,
    ObservationRecord,
    budget_band,
)
from repro.core.learning import (
    MIN_OBSERVATIONS,
    LearningConfig,
    fit_calibration,
    should_refit,
)
from repro.core.pipeline import SchedulingDecision
from repro.core.profile import SmartProfiler
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app

DATA_DIR = Path(__file__).parent.parent / "data"

_SHARED: dict = {}


def _shared_entry() -> KnowledgeEntry:
    """One profiled entry, module-cached (hypothesis forbids
    function-scoped fixtures; profiling per example would dominate)."""
    if "entry" not in _SHARED:
        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        clip = ClipScheduler(
            engine, inflection=build_trained_inflection(engine)
        )
        _SHARED["entry"] = clip.ensure_knowledge(get_app("comd"))
    return _SHARED["entry"]


def _obs(
    predicted: float,
    measured: float,
    n_threads: int = 8,
    n_nodes: int = 4,
    budget_w: float = 1000.0,
    testbed: str = "8xhaswell",
    model_version: int = 1,
    flags: tuple[str, ...] = (),
) -> ObservationRecord:
    return ObservationRecord(
        predicted_time_s=predicted,
        measured_time_s=measured,
        predicted_power_w=900.0,
        measured_power_w=880.0,
        budget_w=budget_w,
        n_nodes=n_nodes,
        n_threads=n_threads,
        testbed=testbed,
        model_version=model_version,
        flags=flags,
    )


# ----------------------------------------------------------------------
# hypothesis properties
# ----------------------------------------------------------------------

time_st = st.floats(
    min_value=1e-3, max_value=100.0, allow_nan=False, allow_infinity=False
)


class TestCalibrationProperty:
    @given(
        rows=st.lists(
            st.tuples(time_st, time_st, st.integers(1, 24)),
            min_size=1,
            max_size=40,
        ),
        np_=st.one_of(st.none(), st.integers(2, 16)),
    )
    @settings(max_examples=200, deadline=None)
    def test_refit_never_increases_training_error(self, rows, np_):
        """The fitted scale family contains the identity, so the
        calibrated model's squared error on its own training set can
        never exceed the uncalibrated model's."""
        obs = [_obs(p, m, n_threads=t) for p, m, t in rows]
        cal = fit_calibration(obs, np_)

        def sse(scaled: bool) -> float:
            return sum(
                (
                    (cal.scale_for(o.n_threads, np_) if scaled else 1.0)
                    * o.predicted_time_s
                    - o.measured_time_s
                )
                ** 2
                for o in obs
            )

        base = sse(scaled=False)
        fitted = sse(scaled=True)
        assert fitted <= base * (1 + 1e-12) + 1e-9

    @given(
        rows=st.lists(
            st.tuples(time_st, time_st, st.integers(1, 24)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_scales_stay_clamped(self, rows):
        cal = fit_calibration([_obs(p, m, t) for p, m, t in rows], 8)
        assert 0.1 <= cal.seg1_scale <= 10.0
        assert 0.1 <= cal.seg2_scale <= 10.0


class TestObservationHistoryProperty:
    @given(n=st.integers(min_value=1, max_value=MAX_OBSERVATIONS + 60))
    @settings(max_examples=30, deadline=None)
    def test_history_is_capped_and_counts_everything(self, n):
        entry = _shared_entry()
        for i in range(n):
            entry = entry.with_observation(_obs(1.0, 1.0 + i * 1e-3))
        assert len(entry.observations) == min(n, MAX_OBSERVATIONS)
        assert entry.observed_total == n
        # the window keeps the *most recent* observations
        assert entry.observations[-1].measured_time_s == pytest.approx(
            1.0 + (n - 1) * 1e-3
        )

    @given(
        budgets=st.lists(
            st.floats(min_value=1.0, max_value=5000.0), min_size=1, max_size=8
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_quality_cells_partition_the_history(self, budgets):
        entry = _shared_entry()
        for b in budgets:
            entry = entry.with_observation(_obs(1.0, 1.1, budget_w=b))
        cells = entry.quality_cells()
        assert sum(c.n for c in cells) == len(budgets)
        assert {c.band_w for c in cells} == {budget_band(b) for b in budgets}


# ----------------------------------------------------------------------
# refit policy
# ----------------------------------------------------------------------

class TestRefitPolicy:
    def test_waits_for_staleness_and_evidence(self):
        entry = _shared_entry()
        assert not should_refit(entry)
        for _ in range(MIN_OBSERVATIONS - 1):
            entry = entry.with_observation(_obs(1.0, 2.0))
        assert not should_refit(entry)  # too few
        entry = entry.with_observation(_obs(1.0, 2.0))
        assert should_refit(entry)  # a full window, 100% error

    def test_accurate_models_never_refit(self):
        entry = _shared_entry()
        for _ in range(10):
            entry = entry.with_observation(_obs(1.0, 1.01))
        assert not should_refit(entry)

    def test_refit_bumps_version_and_resets_staleness(self):
        entry = _shared_entry()
        for _ in range(4):
            entry = entry.with_observation(_obs(1.0, 2.0))
        refitted = entry.with_refit(
            fit_calibration(entry.observations, entry.inflection_point)
        )
        assert refitted.model_version == entry.model_version + 1
        assert refitted.refit_at == refitted.observed_total
        assert not entry.same_models(refitted)

    def test_late_outcomes_for_an_old_model_never_refit(self):
        """Outcomes of pre-refit decisions can arrive after the refit
        (e.g. a late ``POST /v1/jobs/<id>/outcome``); they carry the
        old model version, so they are no evidence against the new
        models — the policy waits for a full window of new-model ones."""
        entry = replace(_shared_entry(), model_version=2)
        for _ in range(2 * MIN_OBSERVATIONS):
            entry = entry.with_observation(_obs(1.0, 2.0, model_version=1))
        assert not should_refit(entry)
        for _ in range(MIN_OBSERVATIONS):
            entry = entry.with_observation(_obs(1.0, 2.0, model_version=2))
        assert should_refit(entry)


# ----------------------------------------------------------------------
# schema v1 -> v2 migration
# ----------------------------------------------------------------------

class TestSchemaMigration:
    def test_v1_fixture_round_trips(self, tmp_path):
        db = KnowledgeDB.load(DATA_DIR / "knowledge_v1.json")
        assert db.migrated_from == 1
        assert len(db) == 2
        for key in db.keys():
            entry = db.get(*key)
            # migrated entries carry the "never observed" defaults
            assert entry.observations == ()
            assert entry.calibration is None
            assert entry.model_version == 1
            assert entry.observed_total == 0

        out = tmp_path / "kb.json"
        db.save(out)
        payload = json.loads(out.read_text())
        assert payload["version"] == SCHEMA_VERSION

        back = KnowledgeDB.load(out)
        assert back.migrated_from is None
        assert back.keys() == db.keys()
        for key in db.keys():
            assert back.get(*key) == db.get(*key)

    def test_v2_observations_survive_round_trip(self, tmp_path):
        db = KnowledgeDB()
        entry = _shared_entry().with_observation(
            _obs(1.0, 1.4, budget_w=1400.0)
        )
        entry = entry.with_refit(
            fit_calibration(entry.observations, entry.inflection_point)
        )
        db.put(entry)
        out = tmp_path / "kb.json"
        db.save(out)
        back = KnowledgeDB.load(out).get(*entry.key)
        assert back == entry
        assert back.calibration == entry.calibration
        assert back.observations == entry.observations

    def test_legacy_explored_flag_still_loads(self, tmp_path):
        """Observations saved by releases with an exploring scheduler
        carry an ``"explored"`` flag; the flag is kept as data."""
        db = KnowledgeDB()
        entry = _shared_entry().with_observation(
            _obs(1.0, 1.2, flags=("explored",))
        )
        db.put(entry)
        out = tmp_path / "kb.json"
        db.save(out)
        back = KnowledgeDB.load(out).get(*entry.key)
        assert back.observations[-1].flags == ("explored",)
        assert back == entry

    def test_legacy_explored_decision_key_is_ignored(self):
        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        clip = ClipScheduler(
            engine, inflection=build_trained_inflection(engine)
        )
        doc = clip.schedule(get_app("comd"), 1400.0).to_dict()
        legacy = {**doc, "explored": True}
        assert SchedulingDecision.from_dict(legacy).to_dict() == doc


# ----------------------------------------------------------------------
# learning off: bit identity
# ----------------------------------------------------------------------

class TestLearningOffIdentity:
    def test_outcome_history_never_moves_a_decision(self):
        """With learning disabled, recorded outcomes are pure
        telemetry: decisions stay byte-identical to the stored golden
        capture even after every combo has executed and reported."""
        golden = json.loads(
            (DATA_DIR / "golden_decisions_testbeds.json").read_text()
        )["testbeds"]["haswell"]
        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        clip = ClipScheduler(
            engine, inflection=build_trained_inflection(engine)
        )
        combos = [("comd", 1000.0), ("sp-mz.C", 1400.0), ("tealeaf", 1800.0)]
        for name, budget in combos:
            clip.run(get_app(name), budget, iterations=2)
        assert clip.pipeline.learning_stats()["outcomes"] == len(combos)
        for name, budget in combos:
            d = clip.schedule(get_app(name), budget)
            assert d.to_dict() == golden[f"{name}@{budget:.0f}"], (
                name,
                budget,
            )


    def test_learning_campaign_leaves_the_shared_predictor_alone(self):
        """A learning-on campaign whose entries refit, on drifted
        hardware, shares the cached trained predictor with a
        learning-off scheduler.  Refits touch only the knowledge
        entries, so the predictor answers as trained and the
        learning-off scheduler still decides as the golden capture."""
        golden = json.loads(
            (DATA_DIR / "golden_decisions_testbeds.json").read_text()
        )["testbeds"]["haswell"]
        clean = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        inflection = build_trained_inflection(clean)
        profiler = SmartProfiler(clean)
        probes = [
            profiler.profile(get_app(name))
            for name in ("sp-mz.C", "bt-mz.C", "tealeaf", "miniaero")
        ]
        before = [inflection.predict_raw(p) for p in probes]

        drifted = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        learner = ClipScheduler(
            drifted,
            inflection=inflection,
            learning=LearningConfig(enabled=True),
        )
        combos = [
            (name, budget)
            for name in ("sp-mz.C", "bt-mz.C", "tealeaf")
            for budget in (1000.0, 1400.0, 1800.0)
        ]
        for rnd in range(4):
            if rnd == 1:
                for node_id in (1, 3, 5):
                    drifted.cluster.degrade_node(node_id, 1.3)
            for name, budget in combos:
                learner.run(get_app(name), budget, iterations=2)
        assert learner.pipeline.learning_stats()["refits"] > 0

        assert [inflection.predict_raw(p) for p in probes] == before
        off = ClipScheduler(clean, inflection=inflection)
        for name, budget in combos:
            decision = off.schedule(get_app(name), budget)
            assert decision.to_dict() == golden[f"{name}@{budget:.0f}"], (
                name,
                budget,
            )


# ----------------------------------------------------------------------
# learning on: every entry point decides alike
# ----------------------------------------------------------------------

class TestEntryPointAgreement:
    def test_refitted_models_decide_alike_on_every_entry_point(self):
        """Learning acts only through refits, so once entries have been
        refitted ``schedule``, ``schedule_traced`` and ``schedule_many``
        still return the same document for every combo."""
        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        clip = ClipScheduler(
            engine,
            inflection=build_trained_inflection(engine),
            learning=LearningConfig(enabled=True),
        )
        combos = [
            (name, budget)
            for name in ("comd", "sp-mz.C", "stream", "bt-mz.C", "tealeaf")
            for budget in (1000.0, 1400.0, 1800.0)
        ]
        for _ in range(2):
            for name, budget in combos:
                clip.run(get_app(name), budget, iterations=2)
        assert clip.pipeline.learning_stats()["refitted_entries"] > 0

        def doc(decision) -> str:
            return json.dumps(decision.to_dict(), sort_keys=True)

        for name, budget in combos:
            app = get_app(name)
            plain = doc(clip.schedule(app, budget))
            traced, _ = clip.schedule_traced(app, budget)
            (batched,) = clip.schedule_many([app], budget)
            assert doc(traced) == plain, (name, budget)
            assert doc(batched) == plain, (name, budget)


# ----------------------------------------------------------------------
# misprediction feedback regression
# ----------------------------------------------------------------------

def _mistimed(entry: KnowledgeEntry, scale: float) -> KnowledgeEntry:
    """Uniformly scale the profile's sample times (class-preserving).

    Every sample's iteration time is multiplied by *scale* (and its
    throughput divided), so the classification ratio and the power
    levels are untouched but every time prediction is off by exactly
    that factor — the shape of a systematically mistimed profile."""

    def stretch(run):
        if run is None:
            return None
        return replace(
            run,
            perf=run.perf / scale,
            t_iter_s=run.t_iter_s * scale,
            t_iter_lo_s=run.t_iter_lo_s * scale,
        )

    profile = replace(
        entry.profile,
        all_run=stretch(entry.profile.all_run),
        half_run=stretch(entry.profile.half_run),
        confirm_run=stretch(entry.profile.confirm_run),
    )
    return replace(entry, profile=profile)


class TestMispredictionFeedback:
    def test_bad_profile_corrected_within_a_handful_of_outcomes(self):
        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        inflection = build_trained_inflection(engine)
        seed_clip = ClipScheduler(engine, inflection=inflection)
        good = seed_clip.ensure_knowledge(get_app("comd"))

        kb = KnowledgeDB()
        kb.put(_mistimed(good, 2.0))
        clip = ClipScheduler(
            engine,
            inflection=inflection,
            knowledge=kb,
            learning=LearningConfig(enabled=True),
        )
        app = get_app("comd")

        # first outcome: the model predicts ~2x the measured time
        clip.run(app, 1400.0, iterations=2)
        entry = kb.get(app.name, app.problem_size)
        first = entry.observations[0]
        assert abs(first.rel_time_error) > 0.3, first

        # a handful more outcomes and the refit policy fires: the
        # calibration absorbs the x2 and predictions land on target
        for _ in range(7):
            clip.run(app, 1400.0, iterations=2)
        entry = kb.get(app.name, app.problem_size)
        assert entry.model_version > 1
        assert entry.calibration is not None
        assert not entry.calibration.is_identity
        corrected = [
            o
            for o in entry.observations
            if o.model_version == entry.model_version
        ]
        assert corrected, entry.observations
        last = corrected[-1]
        assert abs(last.rel_time_error) < 0.15, last
        assert abs(last.rel_time_error) < abs(first.rel_time_error)
