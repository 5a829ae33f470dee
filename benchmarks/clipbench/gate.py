"""Correctness checks every run makes, and the fixtures behind them.

* Golden decisions: replays the construction and order of
  ``tests/data/capture_golden_testbeds.py`` on the haswell, broadwell
  and mixed testbeds and requires every decision to serialize to the
  same canonical JSON bytes as the committed capture
  ``tests/data/golden_decisions_testbeds.json``, read as it is.
* Decision quality: CLIP's executed performance over the exhaustive
  oracle's on the haswell golden grid; the oracle's side is the
  committed ``reference_oracle.json``.

``write_reference`` regenerates the oracle fixture from the current
code (``run.py reference``); review the diff as you would a golden
capture.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.experiments import build_trained_inflection
from repro.analysis.metrics import geometric_mean
from repro.baselines import OracleScheduler
from repro.core.knowledge import KnowledgeDB
from repro.core.scheduler import ClipScheduler
from repro.errors import ClipError
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import broadwell_testbed, haswell_testbed, mixed_testbed
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app

from paths import ROOT

HERE = Path(__file__).resolve().parent
GOLDEN = ROOT / "tests" / "data" / "golden_decisions_testbeds.json"
REFERENCE = HERE / "reference_oracle.json"

TESTBEDS = {
    "haswell": haswell_testbed,
    "broadwell": broadwell_testbed,
    "mixed": mixed_testbed,
}
APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "tealeaf")
BUDGETS_W = (1000.0, 1400.0, 1800.0)
QUALITY_ITERATIONS = 3


def _engine(testbed: str) -> ExecutionEngine:
    return ExecutionEngine(SimulatedCluster(TESTBEDS[testbed]()), seed=42)


def canonical(doc: dict) -> str:
    """A decision document's canonical JSON (tuples and lists alike)."""
    return json.dumps(doc, sort_keys=True)


def golden_decisions() -> tuple[dict[str, dict[str, dict]], int]:
    """Every golden-grid decision per testbed, and the audit violations
    the deciding schedulers recorded."""
    out, violations = {}, 0
    for testbed in TESTBEDS:
        engine = _engine(testbed)
        clip = ClipScheduler(engine, inflection=build_trained_inflection(engine))
        decisions = {}
        for app in APPS:
            for budget in BUDGETS_W:
                key = f"{app}@{budget:.0f}"
                try:
                    decisions[key] = clip.schedule(get_app(app), budget).to_dict()
                except ClipError as exc:
                    decisions[key] = {"error": type(exc).__name__}
        out[testbed] = decisions
        violations += clip.monitor.n_violations
    return out, violations


def check_golden() -> tuple[int, list[str]]:
    """``(decisions checked, problems)``; no problems means the gate
    passed."""
    expected = json.loads(GOLDEN.read_text())["testbeds"]
    decisions, violations = golden_decisions()
    problems = [f"{violations} audit violations"] if violations else []
    checked = 0
    for testbed, docs in decisions.items():
        for key, doc in docs.items():
            checked += 1
            want = expected[testbed].get(key)
            if want is None or canonical(doc) != canonical(want):
                problems.append(f"golden {testbed} {key}: decision changed")
    return checked, problems


def oracle_frac() -> float:
    """Geometric mean over the golden grid of CLIP's executed
    performance divided by the exhaustive oracle's."""
    reference = json.loads(REFERENCE.read_text())
    engine = _engine(reference["testbed"])
    clip = ClipScheduler(
        engine, inflection=build_trained_inflection(engine),
        knowledge=KnowledgeDB(),
    )
    return geometric_mean([
        clip.run(get_app(c["app"]), c["budget_w"],
                 iterations=reference["iterations"])[1].performance
        / c["oracle_perf"]
        for c in reference["combos"]
    ])


def write_reference() -> None:
    """Regenerate ``reference_oracle.json``."""
    engine = _engine("haswell")
    oracle = OracleScheduler(engine, thread_step=2)
    combos = [
        {
            "app": app,
            "budget_w": budget,
            "oracle_perf": oracle.run(
                get_app(app), budget, iterations=QUALITY_ITERATIONS
            ).performance,
        }
        for app in APPS
        for budget in BUDGETS_W
    ]
    REFERENCE.write_text(json.dumps(
        {"testbed": "haswell", "thread_step": 2,
         "iterations": QUALITY_ITERATIONS, "combos": combos},
        indent=1,
    ) + "\n")
