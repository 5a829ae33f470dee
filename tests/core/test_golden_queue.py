"""Queue drains stay bit-identical to the stored capture.

``golden_queue_reports.json`` pins what ``PowerBoundedJobQueue.drain``
reports -- every ``CompletedJob`` field, the makespan, total energy,
the fired fault events and the audit counts by source -- for both
policies drained clean, through the ``clip-sched faults`` script and
through that script plus enforcement chaos on the Haswell testbed, and
for one sequential drain on the mixed GPU/CPU fleet with a GPU slot
failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="module")
def cq():
    sys.path.insert(0, str(DATA_DIR))
    try:
        import capture_golden_queue
    finally:
        sys.path.pop(0)
    return capture_golden_queue


@pytest.fixture(scope="module")
def stored():
    return json.loads((DATA_DIR / "golden_queue_reports.json").read_text())


def _round_trip(cases: dict) -> dict:
    return json.loads(json.dumps(cases))


def test_haswell_drains_match_stored_golden(cq, stored):
    for name, case in _round_trip(cq.haswell_cases()).items():
        assert case == stored[name], f"{name} moved"


def test_mixed_gpu_drain_matches_stored_golden(cq, stored):
    for name, case in _round_trip(cq.mixed_gpu_cases()).items():
        assert case == stored[name], f"{name} moved"


def test_fixture_covers_the_queue_paths(stored):
    """The capture really reaches the scenarios it claims to pin."""
    assert len(stored) == 7
    for name, case in stored.items():
        assert case["n_violations"] == 0, name
        assert case["jobs"], name
        if not name.endswith("/clean"):
            assert case["fired"], name
    by_source = stored["haswell/sequential/chaos"]["audits_by_source"]
    assert any(source.startswith("watchdog") for source in by_source)
    assert "multijob.batch" in stored["haswell/coscheduled/faults"][
        "audits_by_source"
    ]
    mixed = stored["mixed-gpu/sequential/node3-failed"]
    assert all(job["n_nodes"] <= 7 for job in mixed["jobs"])
