"""Tests for the run cap-violation audit."""

import pytest

from repro.analysis.traces import audit_cap_violations
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
