"""Fleet and accelerator decisions stay byte-identical to the capture.

``golden_decisions_fleet.json`` pins what the 8-node CPU capture does
not reach: three-domain GPU splits, per-slot class power models, the
rack hierarchy, and the runtime's re-coordination cap sets over a
seeded budget-swing sequence on 32-node jobs, and (by digest) a
1024-node fleet's decisions, batch and audit ledger.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="module")
def captured():
    sys.path.insert(0, str(DATA_DIR))
    try:
        import capture_golden_fleet as cg
    finally:
        sys.path.pop(0)
    return cg.capture()


@pytest.fixture(scope="module")
def stored():
    return json.loads((DATA_DIR / "golden_decisions_fleet.json").read_text())


@pytest.mark.parametrize("testbed", ["gpu", "mixed-gpu", "haswell-racks4"])
def test_fleet_decisions_match_stored_golden(captured, stored, testbed):
    assert captured["testbeds"][testbed] == stored["testbeds"][testbed]
    assert stored["testbeds"][testbed]["audit_violations"] == 0


@pytest.mark.parametrize("fleet", ["haswell-racks4", "mixed-gpu-racks4"])
def test_swing_cap_sets_match_stored_golden(captured, stored, fleet):
    assert captured["swings"][fleet] == stored["swings"][fleet]
    assert stored["swings"][fleet]["audit_violations"] == 0


@pytest.mark.parametrize("fleet", ["haswell-racks128"])
def test_hashed_fleet_decisions_match_stored_golden(captured, stored, fleet):
    # 1024 nodes: single decisions, a 64-job batch and the ledger they
    # wrote, pinned by sha256
    assert captured["hashed"][fleet] == stored["hashed"][fleet]
    assert stored["hashed"][fleet]["audit_violations"] == 0
    assert stored["hashed"][fleet]["n_audits"] > 0
