"""Regenerate ``golden_chaos_stdout.json``.

Pins the standard output of ``clip-sched faults --chaos --json`` for
both queue policies, byte for byte: the fired timeline, every
completed job, the invariant audit, the enforcement watchdog's report
and the actuation counters.  The command is deterministic (fixed seeds
throughout), so any moved byte is a behaviour change.  Run from the
repo root:

    PYTHONPATH=src python tests/data/capture_golden_chaos.py

Re-run (and review the diff consciously) only when a deliberate
behaviour change moves the chaos drain.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
OUT = Path(__file__).resolve().parent / "golden_chaos_stdout.json"
POLICIES = ("sequential", "coscheduled")


def argv(policy: str) -> list[str]:
    """The CLI arguments of one pinned case."""
    return ["faults", "--chaos", "--json", "--policy", policy]


def run_case(policy: str) -> dict:
    """Run one case in a fresh interpreter; its exit code and stdout."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv(policy)],
        cwd=REPO, env=env, capture_output=True, text=True, check=False,
    )
    return {"exit_code": proc.returncode, "stdout": proc.stdout}


def cases() -> dict:
    return {policy: run_case(policy) for policy in POLICIES}


if __name__ == "__main__":
    OUT.write_text(json.dumps(cases(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
