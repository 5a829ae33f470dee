"""Regenerate ``golden_engine_runs.json``.

Pins the scalar execution engine and the segmented runtime drain bit
for bit, independently of the batch evaluator they are otherwise only
compared against:

* ``runs`` -- every :class:`~repro.sim.trace.RunResult` field (operating
  points and PMU counters included) of ``ExecutionEngine.run`` on the
  haswell, mixed, gpu and mixed-gpu testbeds, over the code paths the
  batch-equivalence suite names (duty-cycle floor, DRAM throttling,
  phase overrides, per-node caps, a pinned frequency)
  plus the accelerator paths, together with the RAPL and meter side
  effects each run leaves on its nodes;
* ``drains`` -- one 6-node job per chaos fault script (actuation and
  sensor faults, node churn, budget swings), drained in 10-iteration
  segments with a journal and a watchdog: the journal's sha256, every
  node's RAPL energy and throttle events, and its meter energy.

Floats survive the JSON round trip exactly (``repr`` is shortest
round-trip), so comparing against the stored file is a bit-identity
check.  Run from the repo root:

    PYTHONPATH=src python tests/data/capture_golden_engine.py

Re-run (and review the diff consciously) only when a deliberate
behaviour change moves the physics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.analysis.experiments import build_trained_inflection
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.core.watchdog import PowerEnforcementWatchdog
from repro.errors import ActuationError
from repro.hw.cluster import SimulatedCluster
from repro.hw.numa import AffinityKind
from repro.hw.rapl import Domain
from repro.hw.specs import (
    gpu_testbed,
    haswell_testbed,
    mixed_gpu_testbed,
    mixed_testbed,
)
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.sim.faults import FaultEvent, FaultInjector
from repro.workloads.apps import get_app

TESTBEDS = {
    "haswell": haswell_testbed,
    "mixed": mixed_testbed,
    "gpu": gpu_testbed,
    "mixed-gpu": mixed_gpu_testbed,
}

#: (app, config) pairs run on every testbed; one per engine code path.
CPU_CASES = (
    ("sp-mz.C", ExecutionConfig(n_nodes=4, n_threads=12, iterations=3)),
    ("stream", ExecutionConfig(
        n_nodes=2, n_threads=24, affinity=AffinityKind.SCATTER,
        pkg_cap_w=100.0, dram_cap_w=30.0, iterations=2,
    )),
    # tight PKG cap: the duty-cycle floor
    ("ep.C", ExecutionConfig(n_nodes=1, n_threads=24, pkg_cap_w=45.0,
                             iterations=2)),
    # tight DRAM cap: bandwidth throttling
    ("comd", ExecutionConfig(n_nodes=3, n_threads=8, dram_cap_w=22.5,
                             iterations=2)),
    # multi-phase app with a per-phase thread override
    ("bt-mz.C", ExecutionConfig(n_nodes=4, n_threads=16, iterations=2,
                                phase_threads={"solve": 8})),
    # pinned frequency + compact packing
    ("tealeaf", ExecutionConfig(
        n_nodes=2, n_threads=6, affinity=AffinityKind.COMPACT,
        frequency_hz=1.2e9, iterations=2,
    )),
    # heterogeneous per-node caps + explicit node choice (crosses the
    # class boundary on the mixed testbeds)
    ("amg", ExecutionConfig(
        n_nodes=2, n_threads=12, per_node_caps=((110.0, 32.0), (90.0, 28.0)),
        node_ids=(5, 2), iterations=2,
    )),
    ("ep.C", ExecutionConfig(n_nodes=1, n_threads=1, iterations=2)),
    # DRAM cap below base power: the lowest memory level, cap violated
    ("stream", ExecutionConfig(n_nodes=2, n_threads=24, dram_cap_w=6.0,
                               iterations=2)),
    # odd concurrency, uncapped, full iteration count
    ("minimd", ExecutionConfig(n_nodes=6, n_threads=23)),
)

#: Positions, in each testbed's stored ``runs``, of records whose case
#: no longer exists: a weak-scaling run (``ExecutionConfig`` has no
#: ``scaling`` knob any more).  The stored fixture keeps the records and
#: the comparison skips them; empty this when the fixture is regenerated.
RETIRED_RUNS = (6,)

#: Extra cases on the accelerator testbeds: offload, GPU caps, and
#: three-domain per-node caps.
GPU_CASES = (
    ("minife-gpu", ExecutionConfig(n_nodes=4, n_threads=12, iterations=3)),
    ("lulesh-gpu", ExecutionConfig(n_nodes=2, n_threads=16, pkg_cap_w=90.0,
                                   dram_cap_w=25.0, gpu_cap_w=150.0,
                                   iterations=2)),
    ("hpgmg-gpu", ExecutionConfig(
        n_nodes=2, n_threads=12,
        per_node_caps=((100.0, 30.0, 400.0), (80.0, 26.0, 90.0)),
        node_ids=(1, 6), iterations=2,
    )),
)

#: Copies of the chaos fault scripts the runtime benchmark drains
#: jobs through: actuation and sensor faults, node churn and budget
#: swings, for a 1050 W six-node job.
BUDGET_W = 1050.0
CHAOS_SCRIPTS = (
    (
        FaultEvent(at_s=0.0, action="cap_drift", factor=0.20, seed=21),
        FaultEvent(at_s=0.0, action="sensor_noise", factor=0.03, seed=22),
    ),
    (
        FaultEvent(at_s=0.0, action="cap_write_fail", factor=0.5, seed=23),
        FaultEvent(at_s=0.3, action="sensor_stale", factor=2, seed=24),
        FaultEvent(at_s=0.6, action="set_budget", budget_w=0.85 * BUDGET_W),
        FaultEvent(at_s=1.2, action="set_budget", budget_w=BUDGET_W),
    ),
    (
        FaultEvent(at_s=0.0, action="cap_drift", factor=0.15, seed=25),
        FaultEvent(at_s=0.3, action="fail_node", node_id=1),
        FaultEvent(at_s=0.6, action="set_budget", budget_w=0.8 * BUDGET_W),
        FaultEvent(at_s=0.9, action="recover_node", node_id=1),
        FaultEvent(at_s=1.2, action="set_budget", budget_w=BUDGET_W),
    ),
)
#: One app per script, drained on the mixed testbed.
DRAIN_APPS = ("comd", "sp-mz.C", "stream")
N_NODES = 6
SEGMENT_ITERS = 10
SWING_EVERY = 2
SWING_RANGE = (0.85, 1.0)
SWING_ATTEMPTS = 20
SWING_SEED = 2017


def _node_effects(node) -> dict:
    """What a run leaves behind on one node's RAPL registers and meter."""
    domains = [Domain.PKG, Domain.DRAM]
    if node.spec.has_gpu:
        domains.append(Domain.GPU)
    return {
        "node_id": node.node_id,
        "rapl_energy_j": {
            d.value: node.rapl.energy_j(d) for d in domains
        },
        "throttle_events": {
            d.value: node.rapl.domain(d).throttle_events for d in domains
        },
        "meter_energy_j": node.meter.energy_j,
    }


def _runs(factory) -> list[dict]:
    cases = list(CPU_CASES)
    if factory().node_specs[0].has_gpu:
        cases += GPU_CASES
    out = []
    for app_name, config in cases:
        cluster = SimulatedCluster(factory())
        engine = ExecutionEngine(cluster, seed=42)
        result = engine.run(get_app(app_name), config)
        out.append({
            "app": app_name,
            "result": dataclasses.asdict(result),
            "effects": [
                _node_effects(cluster.node(rec.node_id))
                for rec in result.nodes
            ],
        })
    return out


def _swing(runtime, job, budget_w: float) -> None:
    for _ in range(SWING_ATTEMPTS):
        try:
            runtime.update_budget(job, budget_w)
            return
        except ActuationError:
            continue
    raise ActuationError(f"budget change to {budget_w:.1f} W refused")


def _drain(clip, script: int, app_name: str, journal: Path) -> dict:
    """Launch one job under a chaos script and drain it in segments."""
    cluster = clip.engine.cluster
    cluster.reset()
    for node_id in cluster.failed_node_ids:
        cluster.recover_node(node_id)
    events = [
        replace(e, seed=e.seed + 1000 * script) if e.seed is not None else e
        for e in CHAOS_SCRIPTS[script]
    ]
    runtime = PowerBoundedRuntime(clip, journal=journal)
    watchdog = PowerEnforcementWatchdog(runtime)
    injector = FaultInjector(cluster, events, budget_w=BUDGET_W)
    rng = random.Random(SWING_SEED + script)
    job = runtime.launch(
        get_app(app_name), BUDGET_W, n_nodes=N_NODES,
        allow_concurrency_change=True, allow_shrink=True,
    )
    segments = 0
    while not job.done:
        injector.advance_to(job.elapsed_s, runtime=runtime)
        while job.parked:
            injector.fire_next(runtime=runtime)
        target = injector.budget_w
        if target != job.budget_w or segments % SWING_EVERY == 1:
            if target == job.budget_w:
                target *= rng.uniform(*SWING_RANGE)
            _swing(runtime, job, target)
        runtime.advance(job, SEGMENT_ITERS)
        segments += 1
    runtime.journal.close()
    return {
        "app": app_name,
        "segments": segments,
        "elapsed_s": job.elapsed_s,
        "energy_j": job.energy_j,
        "n_threads": job.n_threads,
        "caps": [list(c) for c in job.per_node_caps],
        "fired": [e.action for e in injector.fired],
        "watchdog": {
            key: watchdog.report()[key]
            for key in ("observations", "breaches", "actions")
        },
        "journal_sha256": hashlib.sha256(journal.read_bytes()).hexdigest(),
        "nodes": [_node_effects(node) for node in cluster.nodes],
        "audit_violations": runtime.monitor.n_violations,
    }


def _drains() -> list[dict]:
    engine = ExecutionEngine(SimulatedCluster(mixed_testbed()), seed=42)
    clip = ClipScheduler(engine, inflection=build_trained_inflection(engine))
    with tempfile.TemporaryDirectory() as tmp:
        return [
            _drain(clip, script, app, Path(tmp) / f"job-{script}.journal")
            for script, app in enumerate(DRAIN_APPS)
        ]


def capture() -> dict:
    """The fixture's content, normalised through a JSON round trip."""
    data = {
        "runs": {name: _runs(factory) for name, factory in TESTBEDS.items()},
        "drains": _drains(),
    }
    return json.loads(json.dumps(data))


if __name__ == "__main__":
    out = Path(__file__).parent / "golden_engine_runs.json"
    out.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
