"""Tests for trace export and run audits."""

import pytest

from repro.analysis.traces import (
    audit_cap_violations,
    cluster_trace_csv,
    samples_to_csv,
    summarize_run,
)
from repro.sim.engine import ExecutionConfig
from repro.workloads.apps import get_app


@pytest.fixture()
def run(engine):
    return engine.run(
        get_app("comd"),
        ExecutionConfig(
            n_nodes=2, n_threads=24, pkg_cap_w=150.0, dram_cap_w=25.0, iterations=3
        ),
    )


class TestCsv:
    def test_samples_csv_shape(self, engine, run):
        csv = samples_to_csv(engine.cluster.node(0).meter.samples())
        lines = csv.strip().splitlines()
        assert lines[0] == "t_s,pkg_w,dram_w,other_w,total_w"
        assert len(lines) > 1
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_cluster_csv_covers_participants(self, engine, run):
        csv = cluster_trace_csv(engine.cluster)
        node_ids = {line.split(",")[0] for line in csv.strip().splitlines()[1:]}
        assert node_ids == {"0", "1"}

    def test_empty_meter_header_only(self, engine):
        csv = samples_to_csv(engine.cluster.node(5).meter.samples())
        assert csv.strip().splitlines() == ["t_s,pkg_w,dram_w,other_w,total_w"]


class TestAudit:
    def test_clean_run_has_no_violations(self, run):
        assert audit_cap_violations(run) == []

    def test_starved_cap_is_flagged(self, engine):
        result = engine.run(
            get_app("comd"),
            ExecutionConfig(
                n_nodes=1, n_threads=24, pkg_cap_w=40.0, dram_cap_w=25.0,
                iterations=2,
            ),
        )
        violations = audit_cap_violations(result)
        assert len(violations) == 1
        assert violations[0].domain == "pkg"
        assert violations[0].steady_power_w > 40.0


class TestSummary:
    def test_summary_fields(self, run):
        s = summarize_run(run)
        assert s["app"] == "comd"
        assert s["n_nodes"] == 2
        assert s["performance"] == pytest.approx(run.performance)
        assert s["energy_j"] == pytest.approx(run.energy_j)
        assert s["cap_violations"] == 0
        assert s["min_frequency_ghz"] <= s["max_frequency_ghz"]

    def test_duty_cycling_flagged(self, engine):
        result = engine.run(
            get_app("comd"),
            ExecutionConfig(
                n_nodes=1, n_threads=24, pkg_cap_w=65.0, dram_cap_w=20.0,
                iterations=2,
            ),
        )
        assert summarize_run(result)["any_duty_cycling"] is True
