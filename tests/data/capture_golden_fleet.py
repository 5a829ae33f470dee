"""Regenerate ``golden_decisions_fleet.json``.

Captures CLIP's full serialized decisions on the accelerator testbeds
and on a four-rack Haswell fleet, plus the cap sets a runtime issues
over a seeded ``update_budget`` swing sequence on 32-node jobs.  These
exercise what the 8-node CPU capture (``golden_decisions_testbeds.json``)
never reaches: three-domain GPU splits, per-slot class models, the
rack hierarchy and its audits, and the runtime's re-coordination
splits.  At 1024 nodes (``haswell-racks128``, the fleet clipbench's
decide-fleet workload decides on) the capture keeps sha256 digests
instead of the decisions themselves: one per single decision, one for
a 64-job ``schedule_many`` batch, and one for the monitor ledger those
decisions wrote (every record's source, budget, packed caps, arities,
bounds and violations, in order).  Run from the repo root:

    PYTHONPATH=src python tests/data/capture_golden_fleet.py

Re-run (and review the diff consciously) only when a deliberate
behaviour change moves the decisions.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.analysis.experiments import build_trained_inflection
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.errors import ClipError
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import gpu_testbed, haswell_testbed, mixed_gpu_testbed
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import GPU_APPS, get_app

APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "tealeaf")
GPU_APP_NAMES = tuple(a.name for a in GPU_APPS)
#: The 8-node capture's budgets (1000/1400/1800 W), per node.
PER_NODE_BUDGETS = (125.0, 175.0, 225.0)

TESTBEDS = {
    "gpu": (gpu_testbed, APPS + GPU_APP_NAMES),
    "mixed-gpu": (mixed_gpu_testbed, APPS + GPU_APP_NAMES),
    "haswell-racks4": (lambda: haswell_testbed(racks=4), APPS),
}

#: 32-node jobs driven through seeded budget swings.
SWINGS = {
    "haswell-racks4": (lambda: haswell_testbed(racks=4), "comd"),
    "mixed-gpu-racks4": (lambda: mixed_gpu_testbed(racks=4), "comd"),
}
SWING_SEED = 2017
N_SWINGS = 16

#: 1024-node fleets pinned by digest: decide-fleet's apps and budgets
#: (0.6–1.3x 150 W a node) plus one seeded 64-job batch.
HASHED = {"haswell-racks128": lambda: haswell_testbed(racks=128)}
HASHED_PER_NODE_W = 150.0
HASHED_FACTORS = (0.6, 0.8, 1.0, 1.2, 1.3)
BATCH_SIZE = 64
BATCH_SEED = 2024
BATCH_FACTOR = 0.9


def _scheduler(spec) -> ClipScheduler:
    engine = ExecutionEngine(SimulatedCluster(spec), seed=42)
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))


def _decisions(factory, apps) -> dict:
    clip = _scheduler(factory())
    n_nodes = clip.engine.cluster.n_nodes
    decisions: dict = {}
    for app_name in apps:
        for per_node in PER_NODE_BUDGETS:
            budget = per_node * n_nodes
            key = f"{app_name}@{budget:.0f}"
            try:
                d = clip.schedule(get_app(app_name), budget)
            except ClipError as exc:
                decisions[key] = {"error": type(exc).__name__}
                continue
            decisions[key] = d.to_dict()
    decisions["audit_violations"] = clip.monitor.n_violations
    return decisions


def _swing(factory, app_name: str) -> dict:
    """Cap sets after launch and after each seeded budget swing.

    Budgets span 0.35–1.3x the mid budget, so some swings cross the
    pinned concurrency's floor and re-plan the thread count.
    """
    clip = _scheduler(factory())
    runtime = PowerBoundedRuntime(clip)
    n_nodes = clip.engine.cluster.n_nodes
    base = PER_NODE_BUDGETS[1] * n_nodes
    job = runtime.launch(
        get_app(app_name), base, n_nodes=n_nodes, allow_concurrency_change=True
    )
    rng = random.Random(SWING_SEED)
    steps = [{"budget_w": base, "n_threads": job.n_threads,
              "caps": [list(c) for c in job.per_node_caps]}]
    for _ in range(N_SWINGS):
        budget = round(base * rng.uniform(0.35, 1.3), 1)
        try:
            runtime.update_budget(job, budget)
        except ClipError as exc:
            steps.append({"budget_w": budget, "error": type(exc).__name__})
            continue
        steps.append({"budget_w": budget, "n_threads": job.n_threads,
                      "caps": [list(c) for c in job.per_node_caps]})
    return {
        "app": app_name,
        "n_nodes": n_nodes,
        "steps": steps,
        "audit_violations": runtime.monitor.n_violations,
    }


def _digest(payload) -> str:
    """sha256 of *payload*'s canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _ledger_digest(audits) -> str:
    """sha256 over every ledger record, in the order they were written."""
    h = hashlib.sha256()
    for a in audits:
        record = [a.source, a.app_name, a.cluster_budget_w,
                  a.packed_caps.hex(), a.cap_arity.hex(),
                  list(a.node_lo_w) if isinstance(a.node_lo_w, tuple) else a.node_lo_w,
                  list(a.node_hi_w) if isinstance(a.node_hi_w, tuple) else a.node_hi_w,
                  list(a.violations)]
        h.update(json.dumps(record, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def _hashed(factory) -> dict:
    """Digests of 1024-node decisions, one batch and their ledger."""
    clip = _scheduler(factory())
    n_nodes = clip.engine.cluster.n_nodes
    base = HASHED_PER_NODE_W * n_nodes
    decisions: dict = {}
    for app_name in APPS:
        for f in HASHED_FACTORS:
            budget = round(base * f, 1)
            key = f"{app_name}@{budget:.0f}"
            try:
                d = clip.schedule(get_app(app_name), budget)
            except ClipError as exc:
                decisions[key] = {"error": type(exc).__name__}
                continue
            decisions[key] = _digest(d.to_dict())
    rng = random.Random(BATCH_SEED)
    mix = [APPS[i % len(APPS)] for i in range(BATCH_SIZE)]
    rng.shuffle(mix)
    batch = clip.schedule_many(
        [get_app(a) for a in mix], round(base * BATCH_FACTOR, 1)
    )
    return {
        "n_nodes": n_nodes,
        "decisions": decisions,
        "batch": _digest([d.to_dict() for d in batch]),
        "ledger": _ledger_digest(clip.monitor.audits),
        "n_audits": clip.monitor.n_audits,
        "audit_violations": clip.monitor.n_violations,
    }


def capture() -> dict:
    return {
        "per_node_budgets": list(PER_NODE_BUDGETS),
        "testbeds": {
            name: _decisions(factory, apps)
            for name, (factory, apps) in TESTBEDS.items()
        },
        "swings": {
            name: _swing(factory, app)
            for name, (factory, app) in SWINGS.items()
        },
        "hashed": {name: _hashed(factory) for name, factory in HASHED.items()},
    }


if __name__ == "__main__":
    out = Path(__file__).parent / "golden_decisions_fleet.json"
    out.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
