"""``clip-sched faults --chaos --json`` stays byte-identical.

``golden_chaos_stdout.json`` holds the command's standard output for
both queue policies: the fired fault timeline, every completed job,
the invariant audit, the watchdog report and the actuation counters.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def cc():
    sys.path.insert(0, str(DATA_DIR))
    try:
        import capture_golden_chaos
    finally:
        sys.path.pop(0)
    return capture_golden_chaos


@pytest.fixture(scope="module")
def stored():
    return json.loads((DATA_DIR / "golden_chaos_stdout.json").read_text())


@pytest.mark.parametrize("policy", ["sequential", "coscheduled"])
def test_chaos_stdout_matches_stored_golden(cc, stored, policy):
    case = cc.run_case(policy)
    assert case["exit_code"] == stored[policy]["exit_code"] == 0
    assert case["stdout"] == stored[policy]["stdout"], f"{policy} moved"


def test_fixture_covers_the_enforcement_paths(stored):
    """Both captures really reach the watchdog and the write path."""
    assert sorted(stored) == ["coscheduled", "sequential"]
    for policy, case in stored.items():
        report = json.loads(case["stdout"])
        assert report["policy"] == policy
        assert report["watchdog"]["observations"] > 0, policy
        assert report["actuation"]["verified"] > 0, policy
