"""Tests for the Table-II calibrations, generators, and suites.

The central assertion: each Table-II application *emerges* with the
scalability class the paper measured (Fig. 6), with an inflection point
in the plausible range the paper's Fig. 7 reports.
"""

import pytest

from repro.errors import WorkloadError
from repro.hw.specs import haswell_node
from repro.workloads.apps import TABLE2_APPS, all_apps, get_app
from repro.workloads.generator import SyntheticAppGenerator
from repro.workloads.model import true_inflection_point, true_scalability_class
from repro.workloads.suites import N_SYNTHETIC, NAMED_TRAINING_APPS, training_corpus

NODE = haswell_node()

#: Table II "Scalability Type" column (ground truth per the paper).
PAPER_CLASSES = {
    "bt-mz.C": "logarithmic",
    "lu-mz.C": "logarithmic",
    "sp-mz.C": "parabolic",
    "comd": "linear",
    "amg": "linear",
    "miniaero": "parabolic",
    "minimd": "linear",
    "tealeaf": "parabolic",
    "cloverleaf.128": "logarithmic",
    "cloverleaf.16": "logarithmic",
}


class TestTable2Calibration:
    def test_ten_benchmarks(self):
        assert len(TABLE2_APPS) == 10

    def test_unique_names(self):
        names = [a.name for a in all_apps()]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("app", TABLE2_APPS, ids=lambda a: a.name)
    def test_emergent_class_matches_paper(self, app):
        assert true_scalability_class(app, NODE) == PAPER_CLASSES[app.name]

    @pytest.mark.parametrize(
        "app",
        [a for a in TABLE2_APPS if PAPER_CLASSES[a.name] != "linear"],
        ids=lambda a: a.name,
    )
    def test_nonlinear_apps_have_interior_knee(self, app):
        np_ = true_inflection_point(app, NODE)
        assert 8 <= np_ <= 20, f"{app.name}: NP={np_} outside Fig.-7 range"

    def test_extra_apps_classes(self):
        assert true_scalability_class(get_app("ep.C"), NODE) == "linear"
        assert true_scalability_class(get_app("stream"), NODE) == "logarithmic"
        assert true_scalability_class(get_app("sp.C"), NODE) == "parabolic"

    def test_cloverleaf_inputs_share_code_differ_in_size(self):
        big = get_app("cloverleaf.128")
        small = get_app("cloverleaf.16")
        assert big.instructions_per_iter > small.instructions_per_iter

    def test_bt_mz_has_exchange_phase(self):
        bt = get_app("bt-mz.C")
        names = [p.name for p in bt.phases]
        assert "exch_qbc" in names
        exch = next(p for p in bt.phases if p.name == "exch_qbc")
        assert exch.max_useful_threads is not None

    def test_get_app_unknown_raises_with_names(self):
        with pytest.raises(WorkloadError, match="bt-mz.C"):
            get_app("nonexistent")


class TestGenerator:
    def test_deterministic(self):
        a = SyntheticAppGenerator(NODE, seed=3).draw()
        b = SyntheticAppGenerator(NODE, seed=3).draw()
        assert a.instructions_per_iter == b.instructions_per_iter
        assert a.bytes_per_instruction == b.bytes_per_instruction

    def test_unique_names(self):
        gen = SyntheticAppGenerator(NODE, seed=3)
        names = {gen.draw().name for _ in range(10)}
        assert len(names) == 10

    def test_draw_class_delivers(self):
        gen = SyntheticAppGenerator(NODE, seed=3)
        for want in ("linear", "logarithmic", "parabolic"):
            app = gen.draw_class(want)
            assert true_scalability_class(app, NODE) == want

    def test_draw_class_rejects_unknown(self):
        with pytest.raises(WorkloadError):
            SyntheticAppGenerator(NODE, seed=3).draw_class("quadratic")

    def test_corpus_counts(self):
        gen = SyntheticAppGenerator(NODE, seed=3)
        corpus = gen.corpus(2, 3, 2)
        assert len(corpus) == 7
        classes = [true_scalability_class(a, NODE) for a in corpus]
        assert classes.count("linear") == 2
        assert classes.count("logarithmic") == 3
        assert classes.count("parabolic") == 2


class TestSuites:
    def test_named_members_cover_all_classes(self):
        classes = {
            true_scalability_class(a, NODE) for a in NAMED_TRAINING_APPS
        }
        assert classes == {"linear", "logarithmic", "parabolic"}

    def test_training_corpus_size(self):
        corpus = training_corpus(NODE)
        assert len(corpus) == len(NAMED_TRAINING_APPS) + N_SYNTHETIC

    def test_training_corpus_deterministic(self):
        a = training_corpus(NODE)
        b = training_corpus(NODE)
        assert [x.name for x in a] == [y.name for y in b]

    def test_ep_and_stream_archetypes_present(self):
        names = {a.name for a in NAMED_TRAINING_APPS}
        assert "npb.ep.train" in names
        assert "stream.triad.train" in names


class TestSuiteStability:
    """The named training members' classes are calibration contracts."""


    EXPECTED = {
        "npb.ep.train": "linear",
        "npb.sp.train": "logarithmic",
        "hpcc.dgemm.train": "linear",
        "stream.triad.train": "logarithmic",
        "poly.gemver.train": "parabolic",
        "poly.correlation.train": "linear",
        "npb.cg.train": "logarithmic",
    }

    @pytest.mark.parametrize("name,expected", sorted(EXPECTED.items()))
    def test_named_member_class(self, name, expected):
        app = next(a for a in NAMED_TRAINING_APPS if a.name == name)
        assert true_scalability_class(app, NODE) == expected
