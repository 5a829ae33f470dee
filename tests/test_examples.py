"""Smoke tests for the runnable examples.

Each example's ``main`` must run to completion on the default testbed
and print its headline artifacts.  These tests keep the examples from
rotting as the library evolves (the quickstart in particular is the
first thing a new user runs).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "CLIP decision for sp-mz.C" in out
        assert "mpirun" in out
        assert "improvement over All-In" in out

    def test_power_budget_sweep(self, capsys):
        load_example("power_budget_sweep").main([1200.0])
        out = capsys.readouterr().out
        assert "Relative performance at 1200 W" in out
        assert "CLIP average improvement" in out

    def test_variability_study(self, capsys):
        load_example("variability_study").main()
        out = capsys.readouterr().out
        assert "Variability study" in out
        assert "perf coordinated" in out

    def test_multi_job(self, capsys):
        load_example("multi_job").main()
        out = capsys.readouterr().out
        assert "Three concurrent jobs" in out
        assert "Geomean throughput gain" in out

    def test_runtime_budget_changes(self, capsys):
        load_example("runtime_budget_changes").main()
        out = capsys.readouterr().out
        assert "power emergency" in out
        assert "job finished" in out
        assert "Per-node budgets after recalibration" in out
