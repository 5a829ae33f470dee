"""Tests for the knowledge DB, Algorithm-1 scheduler, and launch script."""

import numpy as np
import pytest

from repro.core.classify import ScalabilityClass
from repro.core.execution import render_script
from repro.core.knowledge import KnowledgeDB, KnowledgeEntry
from repro.core.scheduler import ClipScheduler
from repro.errors import KnowledgeBaseError, SchedulingError
from repro.workloads.apps import get_app


@pytest.fixture()
def clip(engine, trained_inflection):
    return ClipScheduler(engine, inflection=trained_inflection)


class TestKnowledgeDB:
    def test_roundtrip_persistence(self, tmp_path, profiler):
        db = KnowledgeDB()
        profile = profiler.profile(get_app("comd"))
        db.put(KnowledgeEntry(profile=profile, inflection_point=None))
        path = tmp_path / "kb.json"
        db.save(path)
        loaded = KnowledgeDB.load(path)
        assert len(loaded) == 1
        entry = loaded.get("comd", "-n 240 240 240")
        assert entry.profile.all_run.perf == pytest.approx(profile.all_run.perf)
        assert entry.profile.affinity is profile.affinity
        np.testing.assert_allclose(
            entry.profile.feature_vector(), profile.feature_vector()
        )

    def test_confirm_run_persists(self, tmp_path, profiler, trained_inflection):
        app = get_app("sp-mz.C")
        profile = profiler.profile(app)
        np_pred = trained_inflection.predict(profile)
        profile = profiler.confirm(app, profile, np_pred)
        db = KnowledgeDB()
        db.put(KnowledgeEntry(profile=profile, inflection_point=np_pred))
        path = tmp_path / "kb.json"
        db.save(path)
        entry = KnowledgeDB.load(path).get("sp-mz.C", "C")
        assert entry.inflection_point == np_pred
        assert entry.profile.confirm_run is not None

    def test_miss_raises(self):
        with pytest.raises(KnowledgeBaseError):
            KnowledgeDB().get("nope", "C")

    def test_contains_and_keys(self, profiler):
        db = KnowledgeDB()
        profile = profiler.profile(get_app("comd"))
        db.put(KnowledgeEntry(profile=profile))
        assert db.has("comd", "-n 240 240 240")
        assert ("comd", "-n 240 240 240") in db
        assert db.keys() == (("comd", "-n 240 240 240"),)

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(KnowledgeBaseError):
            KnowledgeDB.load(bad)

    def test_load_rejects_wrong_version(self, tmp_path):
        bad = tmp_path / "v2.json"
        bad.write_text('{"version": 99, "entries": []}')
        with pytest.raises(KnowledgeBaseError, match="schema version 99"):
            KnowledgeDB.load(bad)

    def test_load_rejects_non_object_payload(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2, 3]")
        with pytest.raises(KnowledgeBaseError, match="schema version"):
            KnowledgeDB.load(bad)

    def test_save_is_atomic_replace(self, tmp_path, profiler):
        """Save replaces the target in one step and leaves no temp files."""
        db = KnowledgeDB()
        db.put(KnowledgeEntry(profile=profiler.profile(get_app("comd"))))
        path = tmp_path / "kb.json"
        path.write_text("PREVIOUS CONTENTS")
        db.save(path)
        assert len(KnowledgeDB.load(path)) == 1
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []

    def test_failed_save_preserves_old_file(self, tmp_path, profiler, monkeypatch):
        """A crash mid-serialization must not corrupt the existing DB."""
        import json as json_module

        db = KnowledgeDB()
        db.put(KnowledgeEntry(profile=profiler.profile(get_app("comd"))))
        path = tmp_path / "kb.json"
        db.save(path)
        good = path.read_text()

        def boom(*args, **kwargs):
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(json_module, "dump", boom)
        with pytest.raises(RuntimeError):
            db.save(path)
        assert path.read_text() == good
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []


class TestClipScheduler:
    def test_decision_fields(self, clip):
        d = clip.schedule(get_app("sp-mz.C"), 1400.0)
        assert d.scalability_class is ScalabilityClass.PARABOLIC
        assert d.inflection_point is not None
        assert 1 <= d.n_nodes <= 8
        assert d.n_threads <= d.inflection_point
        assert d.total_capped_w <= 1400.0 * (1 + 1e-9)
        assert len(d.node_configs) == d.n_nodes

    def test_budget_monotone_nodes(self, clip):
        app = get_app("comd")
        counts = [clip.schedule(app, b).n_nodes for b in (800.0, 1400.0, 2400.0)]
        assert counts == sorted(counts)

    def test_knowledge_reused(self, clip):
        app = get_app("comd")
        clip.schedule(app, 1400.0)
        assert clip.knowledge.has(app.name, app.problem_size)
        before = len(clip.knowledge)
        clip.schedule(app, 900.0)
        assert len(clip.knowledge) == before

    def test_linear_app_skips_confirmation(self, clip):
        app = get_app("minimd")
        entry = clip.ensure_knowledge(app)
        assert entry.inflection_point is None
        assert entry.profile.n_samples == 2

    def test_nonlinear_app_gets_three_samples(self, clip):
        app = get_app("tealeaf")
        entry = clip.ensure_knowledge(app)
        assert entry.inflection_point is not None
        assert entry.profile.n_samples == 3

    def test_rejects_nonpositive_budget(self, clip):
        with pytest.raises(SchedulingError):
            clip.schedule(get_app("comd"), 0.0)

    def test_run_executes_decision(self, clip):
        d, r = clip.run(get_app("sp-mz.C"), 1400.0, iterations=3)
        assert r.n_nodes == d.n_nodes
        assert r.n_threads_per_node == d.n_threads
        assert r.performance > 0

    def test_execution_respects_budget(self, clip):
        _, r = clip.run(get_app("bt-mz.C"), 1200.0, iterations=3)
        drawn = sum(
            n.operating_point.pkg_power_w + n.operating_point.dram_power_w
            for n in r.nodes
        )
        assert drawn <= 1200.0 * (1 + 1e-6)

    def test_node_factors_exposed(self, clip):
        factors = clip.node_factors
        assert factors.shape == (8,)
        assert factors.mean() == pytest.approx(1.0)

    def test_predefined_node_counts(self, clip):
        d = clip.schedule(
            get_app("comd"), 2400.0, predefined_node_counts=(1, 2, 4, 8)
        )
        assert d.n_nodes in (1, 2, 4, 8)


class TestExecutionModule:
    def test_prepare_renders_script(self, clip):
        decision = clip.schedule(get_app("sp-mz.C"), 1400.0)
        script = render_script(get_app("sp-mz.C"), decision)
        assert "mpirun" in script
        assert "clip-rapl" in script
        assert f"-np {decision.n_nodes}" in script
        assert f"OMP_NUM_THREADS={decision.n_threads}" in script

    def test_script_bind_matches_affinity(self, clip):
        decision = clip.schedule(get_app("tealeaf"), 1400.0)
        script = render_script(get_app("tealeaf"), decision)
        cfg = decision.node_configs[0]
        expected = "spread" if cfg.affinity.value == "scatter" else "close"
        assert f"OMP_PROC_BIND={expected}" in script

    def test_script_lists_every_node_cap(self, clip):
        d = clip.schedule(get_app("comd"), 1400.0)
        script = render_script(get_app("comd"), d)
        assert script.count("clip-rapl") == d.n_nodes
