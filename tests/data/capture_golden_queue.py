"""Regenerate ``golden_queue_reports.json``.

Pins what :meth:`PowerBoundedJobQueue.drain` reports, case by case:

* both queue policies on the 8-node Haswell testbed, each drained
  clean, through the canonical fault script (node failure, recovery,
  two budget swings) and through that script plus the enforcement
  faults (drifting caps, dropped writes, noisy and stale sensors) --
  the ``clip-sched faults [--chaos]`` scenarios, calibrated the same
  way on a clean drain of the same queue;
* one sequential drain of the demo queue on the mixed GPU/CPU fleet
  with node 3 (the last GPU slot) failed from the start, so jobs land
  on a pool that mixes hardware classes.

For every case it records each :class:`CompletedJob` field, the
makespan and total energy, the fired fault events, and the budget
monitor's audit counts by source and violation count.  Floats survive
the JSON round trip exactly (``repr`` is shortest round-trip), so
comparing against the stored file is a bit-identity check.  Run from
the repo root:

    PYTHONPATH=src python tests/data/capture_golden_queue.py

Re-run (and review the diff consciously) only when a deliberate
behaviour change moves the queue.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.analysis.experiments import build_trained_inflection
from repro.cli import FAULT_DEMO_APPS, demo_chaos_events, demo_fault_events
from repro.core.jobqueue import PowerBoundedJobQueue
from repro.core.knowledge import KnowledgeDB
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import haswell_testbed, mixed_gpu_testbed
from repro.sim.engine import ExecutionEngine
from repro.sim.faults import FaultEvent, FaultInjector
from repro.workloads.apps import get_app

BUDGET_W = 1600.0
ITERATIONS = 3
POLICIES = ("sequential", "coscheduled")
SCENARIOS = ("clean", "faults", "chaos")
#: The failed slot of the mixed-fleet case: the last GPU node.
MIXED_FAILED_NODE = 3


def _scheduler(factory, inflection) -> ClipScheduler:
    engine = ExecutionEngine(SimulatedCluster(factory()), seed=42)
    return ClipScheduler(engine, inflection=inflection, knowledge=KnowledgeDB())


def _record(report, monitor, injector) -> dict:
    audit = monitor.report()
    return {
        "policy": report.policy,
        "jobs": [dataclasses.asdict(j) for j in report.jobs],
        "makespan_s": report.makespan_s,
        "total_energy_j": report.total_energy_j,
        "fired": [] if injector is None else [
            e.describe() for e in injector.fired
        ],
        "audits_by_source": audit["audits_by_source"],
        "n_violations": audit["n_violations"],
    }


def _apps(policy: str) -> list:
    apps = [get_app(n) for n in FAULT_DEMO_APPS]
    # the CLI doubles the co-scheduled queue so it spans several batches
    return apps * 2 if policy == "coscheduled" else apps


def _haswell_case(inflection, policy: str, scenario: str) -> dict:
    """One ``clip-sched faults`` scenario on a fresh testbed."""
    clip = _scheduler(haswell_testbed, inflection)
    queue = PowerBoundedJobQueue(clip)
    apps = _apps(policy)
    clean = queue.drain(apps, BUDGET_W, policy=policy, iterations=ITERATIONS)
    if scenario == "clean":
        return _record(clean, clip.monitor, None)
    events = demo_fault_events(clean.makespan_s, BUDGET_W)
    if scenario == "chaos":
        events = sorted(
            events + demo_chaos_events(clean.makespan_s), key=lambda e: e.at_s
        )
    injector = FaultInjector(clip.engine.cluster, events, budget_w=BUDGET_W)
    clip.monitor.reset()
    report = queue.drain(
        apps, BUDGET_W, policy=policy, iterations=ITERATIONS, faults=injector
    )
    return _record(report, clip.monitor, injector)


def mixed_gpu_drain(inflection):
    """The faulted mixed-fleet drain: ``(scheduler, report, injector)``."""
    clip = _scheduler(mixed_gpu_testbed, inflection)
    injector = FaultInjector(
        clip.engine.cluster,
        [FaultEvent(at_s=0.0, action="fail_node", node_id=MIXED_FAILED_NODE)],
        budget_w=BUDGET_W,
    )
    report = PowerBoundedJobQueue(clip).drain(
        _apps("sequential"), BUDGET_W, iterations=ITERATIONS, faults=injector
    )
    return clip, report, injector


def haswell_cases() -> dict:
    inflection = build_trained_inflection(
        ExecutionEngine(SimulatedCluster(haswell_testbed()), seed=42)
    )
    return {
        f"haswell/{policy}/{scenario}": _haswell_case(
            inflection, policy, scenario
        )
        for policy in POLICIES
        for scenario in SCENARIOS
    }


def mixed_gpu_cases() -> dict:
    inflection = build_trained_inflection(
        ExecutionEngine(SimulatedCluster(mixed_gpu_testbed()), seed=42)
    )
    clip, report, injector = mixed_gpu_drain(inflection)
    return {
        "mixed-gpu/sequential/node3-failed": _record(
            report, clip.monitor, injector
        )
    }


def capture() -> dict:
    """The fixture's content, normalised through a JSON round trip."""
    return json.loads(json.dumps({**haswell_cases(), **mixed_gpu_cases()}))


if __name__ == "__main__":
    out = Path(__file__).parent / "golden_queue_reports.json"
    out.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
