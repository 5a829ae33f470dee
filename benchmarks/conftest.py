"""Shared fixtures for the figure/table regeneration benchmarks.

Each benchmark regenerates one table or figure of the paper: it runs
the experiment on the simulated testbed, prints the same rows/series
the paper reports, writes them under ``benchmarks/results/``, and
asserts the paper's qualitative shape (who wins, where the knees fall).
The pytest-benchmark timer wraps the experiment so regressions in the
simulator or scheduler cost are visible too.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.experiments import build_trained_inflection, make_schedulers
from repro.hw.cluster import SimulatedCluster
from repro.sim.engine import ExecutionEngine

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def engine():
    """One shared engine: benchmarks only read aggregate results."""
    return ExecutionEngine(SimulatedCluster.testbed(), seed=42)


@pytest.fixture(scope="session")
def trained_inflection(engine):
    """The MLR predictor trained on the default corpus (cached)."""
    return build_trained_inflection(engine)


@pytest.fixture(scope="session")
def schedulers(engine, trained_inflection):
    """The paper's four methods, sharing one profiled knowledge base."""
    return make_schedulers(engine)


@pytest.fixture(scope="session")
def report():
    """Print a rendered experiment table and persist it to disk."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def emit(exp_id: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{exp_id}.txt").write_text(text + "\n")

    return emit


def run_once(benchmark, fn):
    """Run *fn* exactly once under the benchmark timer and return it.

    The experiments are deterministic and some take seconds; pedantic
    mode avoids pytest-benchmark's default multi-round calibration.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
