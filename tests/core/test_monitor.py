"""Tests for the cluster-wide budget-invariant monitor."""

import json

import pytest

from repro.core.monitor import BudgetInvariantMonitor
from repro.errors import BudgetInvariantError


@pytest.fixture()
def monitor():
    return BudgetInvariantMonitor()


class TestAudit:
    def test_clean_cap_set_passes(self, monitor):
        audit = monitor.audit(
            "test", "app", 400.0, ((150.0, 40.0), (150.0, 40.0)),
            node_lo_w=100.0, node_hi_w=250.0,
        )
        assert audit.ok
        assert audit.total_capped_w == pytest.approx(380.0)
        assert monitor.n_audits == 1
        assert monitor.n_violations == 0

    def test_ledger_packs_caps_and_unpacks_them_exactly(self, monitor):
        import numpy as np

        caps = ((150.1, 40.2, 210.3), (0.1 + 0.2, np.float64(1 / 3)), (7, 2.5))
        audit = monitor.audit("test", "app", 1e6, caps)
        assert audit.caps == ((150.1, 40.2, 210.3), (0.1 + 0.2, 1 / 3), (7.0, 2.5))
        assert all(type(c) is float for row in audit.caps for c in row)
        # 8 bytes a cap plus one arity byte a node, not tuples of floats
        assert len(audit.packed_caps) == 8 * 7 and audit.cap_arity == bytes((3, 2, 2))
        assert audit.total_capped_w == sum(sum(row) for row in audit.caps)
        assert audit == monitor.audit("test", "app", 1e6, caps)

    def test_packed_caps_audit_as_their_tuples(self, monitor):
        for n in (3, 40):  # the scalar checks and the array pass
            caps = ((-5.0, 40.0),) + tuple(
                (150.0 + i, 40.0, 90.0) if i % 2 else (150.0 + i, 40.0)
                for i in range(1, n)
            )
            want = monitor.audit("test", "app", 4e3, caps, node_lo_w=30.0)
            packed = monitor.audit(
                "test", "app", 4e3, want.packed_caps, node_lo_w=30.0,
                cap_arity=want.cap_arity,
            )
            assert packed == want and not packed.ok
            # the record keeps the caller's buffer as it is
            assert packed.packed_caps is want.packed_caps
        with pytest.raises(ValueError, match="packed caps"):
            monitor.audit("test", "app", 1e3, want.packed_caps, cap_arity=b"\x02")

    def test_sum_over_budget_flagged(self, monitor):
        audit = monitor.audit("test", "app", 300.0, ((150.0, 40.0), (150.0, 40.0)))
        assert not audit.ok
        assert "exceeds cluster budget" in audit.violations[0]
        assert monitor.n_violations == 1

    def test_node_below_floor_flagged(self, monitor):
        audit = monitor.audit(
            "test", "app", 400.0, ((50.0, 10.0), (150.0, 40.0)),
            node_lo_w=100.0, node_hi_w=250.0,
        )
        assert any("below the acceptable floor" in v for v in audit.violations)

    def test_node_above_ceiling_flagged(self, monitor):
        audit = monitor.audit(
            "test", "app", 1000.0, ((200.0, 90.0),),
            node_lo_w=100.0, node_hi_w=250.0,
        )
        assert any("above the acceptable ceiling" in v for v in audit.violations)

    def test_negative_cap_flagged(self, monitor):
        audit = monitor.audit("test", "app", 400.0, ((-5.0, 40.0),))
        assert any("negative cap" in v for v in audit.violations)

    def test_float_roundoff_tolerated(self, monitor):
        total = 400.0 + 1e-10
        audit = monitor.audit("test", "app", 400.0, ((total / 2, total / 2),))
        assert audit.ok

    def test_range_checks_skipped_without_range(self, monitor):
        audit = monitor.audit("test", "app", 400.0, ((10.0, 5.0),))
        assert audit.ok  # only the budget-sum invariant applies


class TestLedger:
    def test_assert_clean_raises_with_context(self, monitor):
        monitor.audit("pipeline", "a", 400.0, ((300.0, 200.0),))
        monitor.audit("runtime", "b", 400.0, ((100.0, 50.0),))
        with pytest.raises(BudgetInvariantError, match="pipeline"):
            monitor.assert_clean()

    def test_assert_clean_passes_when_clean(self, monitor):
        monitor.audit("runtime", "b", 400.0, ((100.0, 50.0),))
        monitor.assert_clean()

    def test_reset_clears_trail(self, monitor):
        monitor.audit("x", "a", 100.0, ((90.0, 20.0),))
        monitor.reset()
        assert monitor.n_audits == 0
        monitor.assert_clean()

    def test_report_is_json_safe(self, monitor):
        monitor.audit("pipeline", "a", 400.0, ((100.0, 50.0),))
        monitor.audit("runtime", "a", 400.0, ((500.0, 50.0),))
        payload = json.loads(json.dumps(monitor.report()))
        assert payload["n_audits"] == 2
        assert payload["n_violations"] == 1
        assert payload["audits_by_source"] == {"pipeline": 1, "runtime": 1}
        assert len(payload["violations"]) == 1
        assert payload["violations"][0]["source"] == "runtime"


class TestPipelineWiring:
    def test_every_decision_is_audited(self, engine, trained_inflection):
        from repro.core.scheduler import ClipScheduler
        from repro.workloads.apps import get_app

        clip = ClipScheduler(engine, inflection=trained_inflection)
        assert clip.monitor.n_audits == 0
        clip.schedule(get_app("comd"), 1400.0)
        clip.schedule(get_app("comd"), 900.0)
        assert clip.monitor.n_audits == 2
        assert clip.monitor.n_violations == 0
        assert clip.monitor.audits[0].source == "pipeline"

    def test_trace_records_audit_event(self, engine, trained_inflection):
        from repro.core.scheduler import ClipScheduler
        from repro.workloads.apps import get_app

        clip = ClipScheduler(engine, inflection=trained_inflection)
        _, trace = clip.schedule_traced(get_app("comd"), 1400.0)
        record = trace.stage("audit")
        assert record.outputs["ok"] is True
        assert record.outputs["violations"] == []
        assert record.outputs["total_capped_w"] <= 1400.0 + 1e-6
