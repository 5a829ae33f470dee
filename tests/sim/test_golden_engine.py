"""The scalar engine and the runtime drain stay bit-identical to the capture.

``golden_engine_runs.json`` pins ``ExecutionEngine.run`` on its own --
every ``RunResult`` field, PMU counters included, and the RAPL/meter
side effects -- on all four testbed kinds, plus three chaos-script
drains of a six-node job (journal hash, per-node RAPL energy, throttle
events and meter energy).  The batch-equivalence suite only proves the
two evaluators agree with each other; this proves neither moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="module")
def cg():
    sys.path.insert(0, str(DATA_DIR))
    try:
        import capture_golden_engine
    finally:
        sys.path.pop(0)
    return capture_golden_engine


@pytest.fixture(scope="module")
def stored():
    return json.loads((DATA_DIR / "golden_engine_runs.json").read_text())


@pytest.mark.parametrize("testbed", ["haswell", "mixed", "gpu", "mixed-gpu"])
def test_engine_runs_match_stored_golden(cg, stored, testbed):
    captured = json.loads(json.dumps(cg._runs(cg.TESTBEDS[testbed])))
    expected = [
        run for i, run in enumerate(stored["runs"][testbed])
        if i not in cg.RETIRED_RUNS
    ]
    assert len(captured) == len(expected)
    for got, want in zip(captured, expected):
        assert got == want, f"{want['app']} on {testbed} moved"


def test_chaos_drains_match_stored_golden(cg, stored):
    captured = json.loads(json.dumps(cg._drains()))
    assert captured == stored["drains"]
    for drain in stored["drains"]:
        assert drain["audit_violations"] == 0


def test_fixture_covers_the_engine_paths(stored):
    """The capture really reaches the paths it claims to pin."""
    points = [
        node["operating_point"]
        for runs in stored["runs"].values()
        for case in runs
        for node in case["result"]["nodes"]
    ]
    assert any(p["duty_cycle"] < 1.0 for p in points)
    assert any(p["mem_cap_violated"] for p in points)
    assert any(
        effect["throttle_events"]["dram"] > 0
        for runs in stored["runs"].values()
        for case in runs
        if not any(n["operating_point"]["mem_cap_violated"]
                   for n in case["result"]["nodes"])
        for effect in case["effects"]
    )
    assert any(p["gpu_throttled"] for p in points)
    assert any(p["gpu_power_w"] > 0 for p in points)
    assert any(
        case["result"]["nodes"][0]["phase_times"]
        and len(case["result"]["nodes"][0]["phase_times"]) > 1
        for runs in stored["runs"].values()
        for case in runs
    )
    drains = stored["drains"]
    assert any(d["watchdog"]["breaches"] > 0 for d in drains)
    assert any("fail_node" in d["fired"] for d in drains)
    assert all(d["journal_sha256"] for d in drains)
