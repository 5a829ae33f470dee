"""Tests for metrics, table rendering, and the experiment harness."""

import pytest

from repro.analysis.experiments import (
    ClipSchedulerAdapter,
    compare_methods,
    make_schedulers,
)
from repro.analysis.metrics import (
    geometric_mean,
    improvement_over,
)
from repro.analysis.tables import render_table
from repro.errors import ClipError
from repro.workloads.apps import get_app


class TestMetrics:
    def test_improvement_over(self):
        assert improvement_over(1.2, 1.0) == pytest.approx(0.2)
        assert improvement_over(0.8, 1.0) == pytest.approx(-0.2)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_empty(self):
        with pytest.raises(ClipError):
            geometric_mean([])

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ClipError):
            geometric_mean([1.0, 0.0])


class TestRenderTable:
    def test_basic_shape(self):
        out = render_table(
            ["app", "perf"], [["comd", 1.234567], ["amg", 0.5]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "app" in lines[1]
        assert "1.235" in out
        assert "0.500" in out

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])

    def test_custom_float_format(self):
        out = render_table(["x"], [[0.123456]], float_fmt="{:.1f}")
        assert "0.1" in out

    def test_non_float_cells_stringified(self):
        out = render_table(["n", "name"], [[3, "x"]])
        assert "3" in out and "x" in out


class TestHarness:
    def test_make_schedulers_order(self, engine):
        scheds = make_schedulers(engine)
        assert list(scheds) == ["All-In", "Lower-Limit", "Coordinated", "CLIP"]
        assert isinstance(scheds["CLIP"], ClipSchedulerAdapter)

    def test_compare_methods_structure(self, engine):
        apps = [get_app("comd"), get_app("sp-mz.C")]
        comp = compare_methods(engine, apps, [1400.0], iterations=2)
        assert len(comp.cells) == 2 * 1 * 4
        cell = comp.cell("CLIP", "sp-mz.C", 1400.0)
        assert cell.feasible
        assert cell.relative > 0
        assert comp.reference_perf["comd"] > 0

    def test_compare_methods_flags_infeasible(self, engine):
        # 200 W cannot feed All-In: below the 8 x 30 W memory grants
        apps = [get_app("comd")]
        comp = compare_methods(engine, apps, [200.0], iterations=2)
        allin = comp.cell("All-In", "comd", 200.0)
        assert not allin.feasible
        assert allin.performance == 0.0

    def test_cell_lookup_miss_raises(self, engine):
        comp = compare_methods(engine, [get_app("comd")], [1400.0], iterations=2)
        with pytest.raises(ClipError):
            comp.cell("CLIP", "comd", 999.0)

    def test_by_method_filters_feasible(self, engine):
        comp = compare_methods(
            engine, [get_app("comd")], [200.0, 1400.0], iterations=2
        )
        cells = comp.by_method("All-In")
        assert all(c.feasible for c in cells)
        assert len(cells) == 1


class TestReport:
    def test_assemble_with_missing_artifacts(self, tmp_path):
        from repro.analysis.report import REPORT_SECTIONS, assemble_report

        out = assemble_report(tmp_path)
        assert "Reproduction report" in out
        assert out.count("not yet regenerated") == len(REPORT_SECTIONS)
        assert "0/" in out

    def test_assemble_picks_up_artifacts(self, tmp_path):
        from repro.analysis.report import assemble_report

        (tmp_path / "fig1.txt").write_text("FIG1 CONTENT\n")
        out = assemble_report(tmp_path)
        assert "FIG1 CONTENT" in out
        assert "1/" in out

    def test_sections_cover_every_paper_artifact(self):
        from repro.analysis.report import REPORT_SECTIONS

        ids = {s.exp_id for s in REPORT_SECTIONS}
        for required in ("fig1", "fig2", "fig3", "table1", "table2",
                         "fig6", "fig7", "fig8", "fig9", "headline"):
            assert required in ids
