"""Perf and invariant gates: every acceptance bar in one module.

Each gate checks one claim the reproduction makes: near-oracle
decisions at low scheduling overhead (the batched oracle search, the
warm decision path), clean budget invariants under faults and chaos,
near-flat per-node cost at fleet scale, a cheap self-healing stack, a
fast scheduling daemon, and a learning loop that never hurts.  Gates
compare ratios and structural facts (counts, byte identity, audit
violations), never one absolute wall-clock time.

Every gate is recorded in ``BENCH_gates.json`` at the repository root
(not committed) with one shape::

    {"name", "value", "bound", "direction", "unit", "samples",
     "quartiles", "passed"}

``direction`` is ``"min"`` when the value must be at least the bound
and ``"max"`` when it must be at most the bound.  ``samples`` is the
number of measurements the value summarizes; a gate measured as the
median of repeated samples also gives their ``[q1, q3]`` quartiles,
otherwise ``quartiles`` is null.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/test_perf_gates.py``
(about a minute on a 2-vCPU host; ``-s`` prints one line per gate).
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from clipbench.stats import machine_stamp, pct
from repro.analysis.experiments import build_trained_inflection
from repro.baselines import OracleScheduler
from repro.cli import FAULT_DEMO_APPS, demo_fault_events
from repro.core.jobqueue import PowerBoundedJobQueue
from repro.core.journal import RuntimeJournal
from repro.core.knowledge import KnowledgeDB, KnowledgeEntry
from repro.core.learning import LearningConfig
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.core.watchdog import PowerEnforcementWatchdog
from repro.hw.actuation import FaultyActuation
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import (
    gpu_testbed,
    haswell_testbed,
    mixed_gpu_testbed,
    mixed_testbed,
)
from repro.serve import SchedulerService, ServeClient, ServeDaemon
from repro.sim.batch import RunCache
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.sim.faults import FaultEvent, FaultInjector, run_scripted
from repro.workloads.apps import GPU_APPS, get_app

ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = ROOT / "BENCH_gates.json"
GOLDEN_PATH = ROOT / "tests" / "data" / "golden_decisions_testbeds.json"

#: Engine seed of every gate except the learning ablation's extra seeds.
SEED = 42

# -- gate bounds --------------------------------------------------------

#: Oracle grid search: scalar time over batched time.
MIN_ORACLE_SPEEDUP = 5.0
#: Cold per-decision time over warm (knowledge hit + cached bundle).
MIN_WARM_SPEEDUP = 1.5
#: Per-node warm decision cost at the largest fleet over the smallest;
#: a flat-cluster scan would read ~128x.
MAX_PER_NODE_RATIO = 3.0
#: Journal + watchdog wall time over a bare runtime, minus one.
MAX_RESILIENCE_OVERHEAD = 0.10
#: Segments a drift breach episode may last before it is corrected.
MAX_BREACH_SEGMENTS = 6
#: Saturated decisions per second through the HTTP daemon.
MIN_SERVE_RATE = 500.0
#: Daemon per-decision cost over bare ``schedule_many``.
MAX_SERVICE_OVERHEAD = 3.0
#: Length of the headline learning campaign.
MIN_CAMPAIGN_DECISIONS = 60
#: Converged learning-on decision cost over warm learning-off.
MAX_LEARNING_OVERHEAD = 1.10


# -- shared helpers -----------------------------------------------------


class GateLog:
    """The gate records of one session, written as ``BENCH_gates.json``."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def check(
        self,
        name: str,
        value: float,
        bound: float,
        direction: str,
        unit: str,
        samples: list[float] | None = None,
    ) -> None:
        """Record one gate and fail the test when it does not hold.

        *samples* are the repeated measurements whose median is
        *value*; without them the value is one measurement or a count.
        """
        passed = value >= bound if direction == "min" else value <= bound
        self.records.append(
            {
                "name": name,
                "value": value,
                "bound": bound,
                "direction": direction,
                "unit": unit,
                "samples": len(samples) if samples else 1,
                "quartiles": (
                    [pct(samples, 25), pct(samples, 75)] if samples else None
                ),
                "passed": passed,
            }
        )
        relation = ">=" if direction == "min" else "<="
        print(f"{name}: {value:.4g} {unit} ({relation} {bound:g})")
        assert passed, self.records[-1]

    def write(self) -> None:
        payload = {"machine": machine_stamp(ROOT), "gates": self.records}
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="module")
def gates():
    """The session's gate log; written when the module's tests finish,
    whether they passed or not."""
    log = GateLog()
    yield log
    log.write()


def _engine(spec=None, seed: int = SEED, cache: RunCache | None = None):
    return ExecutionEngine(
        SimulatedCluster(spec or haswell_testbed()), seed=seed, cache=cache
    )


def _scheduler(engine: ExecutionEngine | None = None, **kwargs) -> ClipScheduler:
    """A scheduler on *engine* (default: a fresh Haswell testbed) with
    the trained inflection predictor, which is cached per node class."""
    engine = engine or _engine()
    return ClipScheduler(
        engine, inflection=build_trained_inflection(engine), **kwargs
    )


def _timed(fn, *args):
    """``fn(*args)`` and the seconds it took."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _cold_warm(clip, apps, cold_budget_w, budgets_w, rounds=3):
    """The first decision per app (profiling plus model fitting), then
    *rounds* budget sweeps over the same apps (knowledge hits and cached
    model bundles).  Returns the cold decisions and the cold and warm
    seconds per decision."""
    cold, cold_s = _timed(
        lambda: [clip.schedule(app, cold_budget_w) for app in apps]
    )
    _, warm_s = _timed(
        lambda: [
            clip.schedule(app, budget)
            for _ in range(rounds)
            for app in apps
            for budget in budgets_w
        ]
    )
    n_warm = rounds * len(apps) * len(budgets_w)
    return cold, cold_s / len(apps), warm_s / n_warm


def _paired_ratios(base, variant, pairs: int) -> list[float]:
    """*pairs* ratios ``variant() / base()`` of two timing callables,
    run interleaved with the side that goes first alternating, so that
    drift in host speed hits both sides alike."""
    ratios = []
    for i in range(pairs):
        if i % 2:
            variant_s = variant()
            base_s = base()
        else:
            base_s = base()
            variant_s = variant()
        ratios.append(variant_s / base_s)
    return ratios


# -- oracle search: batched vs scalar -----------------------------------

ORACLE_APP = "sp-mz.C"
ORACLE_BUDGET_W = 1200.0
#: Interleaved scalar/batched search pairs behind the speedup median.
ORACLE_PAIRS = 3
#: The Fig. 3 concurrency x budget grid, scalar ``run`` vs one
#: ``evaluate_many`` call per app.
FIGURE_APPS = ("ep.C", "stream", "sp.C")
FIGURE_CONFIGS = [
    ExecutionConfig(
        n_nodes=1, n_threads=n, pkg_cap_w=pkg, dram_cap_w=30.0, iterations=3
    )
    for pkg in (70.0, 100.0, 140.0, 180.0, 240.0)
    for n in (6, 12, 18, 24)
]


def test_oracle_batch_speedup(gates):
    """The full oracle grid search on a fresh engine, scalar ``run``
    loop vs batched: the median of paired time ratios."""
    app = get_app(ORACLE_APP)
    plans = []
    seconds: dict[bool, list[float]] = {False: [], True: []}

    def search(use_batch: bool) -> float:
        oracle = OracleScheduler(_engine(), use_batch=use_batch)
        plan, elapsed = _timed(oracle.plan, app, ORACLE_BUDGET_W)
        plans.append(plan)
        seconds[use_batch].append(elapsed)
        return elapsed

    speedups = _paired_ratios(
        lambda: search(True), lambda: search(False), ORACLE_PAIRS
    )
    cached = OracleScheduler(_engine(cache=RunCache()), use_batch=True)
    cached.plan(app, ORACLE_BUDGET_W)  # fill the cache
    cached_plan, cached_s = _timed(cached.plan, app, ORACLE_BUDGET_W)

    # a fast wrong answer is not a speedup
    assert all(plan == cached_plan for plan in plans)
    scalar, batched = _engine(), _engine()
    for name in FIGURE_APPS:
        app = get_app(name)
        runs = [scalar.run(app, cfg) for cfg in FIGURE_CONFIGS]
        assert runs == batched.evaluate_many(app, FIGURE_CONFIGS), name
    # the warm cache makes a repeated search cheaper still
    assert cached_s < statistics.median(seconds[True]), (cached_s, seconds)
    gates.check(
        "oracle.batch_speedup", statistics.median(speedups),
        MIN_ORACLE_SPEEDUP, "min", "x", samples=speedups,
    )


# -- warm vs cold decisions ---------------------------------------------

CPU_APPS = ("comd", "minimd", "sp-mz.C", "bt-mz.C", "tealeaf", "cloverleaf.128")
#: Every GPU port plus host-only classes that land on accelerator
#: slots and pay the idle board draw.
GPU_MIX = tuple(a.name for a in GPU_APPS) + ("comd", "stream")
#: fleet -> (testbed, apps, cold budget, warm budget sweep)
WARM_CASES = {
    "haswell": (
        haswell_testbed, CPU_APPS, 1400.0,
        (900.0, 1200.0, 1500.0, 1800.0, 2100.0, 2400.0),
    ),
    "mixed": (
        mixed_testbed, CPU_APPS, 1600.0,
        (1000.0, 1300.0, 1600.0, 1900.0, 2200.0, 2500.0),
    ),
    "gpu": (gpu_testbed, GPU_MIX, 2200.0, (1400.0, 1800.0, 2200.0, 2600.0, 3000.0)),
}


@pytest.mark.parametrize("fleet", list(WARM_CASES))
def test_warm_decisions_beat_cold(gates, fleet):
    testbed, names, cold_budget_w, budgets_w = WARM_CASES[fleet]
    clip = _scheduler(_engine(testbed()))
    apps = [get_app(name) for name in names]
    cold, cold_s, warm_s = _cold_warm(clip, apps, cold_budget_w, budgets_w)

    # warm decisions fit nothing new: one model bundle per (app, class)
    cache = clip.pipeline.bundle_cache
    n_classes = len(clip.engine.cluster.spec.node_classes)
    assert cache.misses == n_classes * len(apps), (cache.misses, n_classes)
    assert cache.hits > cache.misses
    # the batch entry point plans a queue-like mix exactly as schedule()
    jobs = [apps[i % len(apps)] for i in range(60)]
    expected = [cold[i % len(apps)] for i in range(60)]
    assert clip.schedule_many(jobs, cold_budget_w) == expected
    gates.check(
        f"warm.{fleet}.violations", clip.monitor.n_violations, 0, "max", "count"
    )
    gates.check(
        f"warm.{fleet}.speedup", cold_s / warm_s, MIN_WARM_SPEEDUP, "min", "x"
    )


def test_mixed_gpu_sweep_offloads_cleanly(gates):
    """Every GPU app gets an active device grant on the mixed CPU+GPU
    fleet, and every cap set honours all three power domains."""
    _, names, _, budgets_w = WARM_CASES["gpu"]
    gpu_names = {a.name for a in GPU_APPS}
    clip = _scheduler(_engine(mixed_gpu_testbed()))
    n_offload = 0
    for name in names:
        for budget in budgets_w:
            decision = clip.schedule(get_app(name), budget)
            if name in gpu_names:
                n_offload += 1
                assert decision.node_configs[0].predicted_gpu_clock_hz > 0
    assert n_offload > 0
    gates.check(
        "warm.mixed_gpu.violations", clip.monitor.n_violations, 0, "max", "count"
    )


# -- fault-scenario drains ----------------------------------------------

FAULT_BUDGET_W = 1600.0


@pytest.mark.parametrize("policy", ["sequential", "coscheduled"])
def test_fault_drain_keeps_budget_invariants(gates, policy):
    """The demo queue drained through one node failure, one recovery
    and two budget swings (``clip-sched faults``)."""
    clip = _scheduler()
    queue = PowerBoundedJobQueue(clip)
    apps = [get_app(name) for name in FAULT_DEMO_APPS]
    if policy == "coscheduled":
        # batches are atomic (faults apply at batch boundaries), so
        # double the queue to span several batches
        apps = apps * 2
    clean = queue.drain(apps, FAULT_BUDGET_W, policy=policy, iterations=3)
    injector = FaultInjector(
        clip.engine.cluster,
        demo_fault_events(clean.makespan_s, FAULT_BUDGET_W),
        budget_w=FAULT_BUDGET_W,
    )
    clip.monitor.reset()
    report = queue.drain(
        apps, FAULT_BUDGET_W, policy=policy, iterations=3, faults=injector
    )

    # every job drains despite the faults, which really fired
    assert len(report.jobs) == len(apps)
    assert len(injector.fired) >= 2
    assert clip.monitor.n_audits > 0
    gates.check(
        f"faults.{policy}.violations", clip.monitor.n_violations, 0,
        "max", "count",
    )


# -- fleet scale --------------------------------------------------------

#: Racks of the 8-node Haswell testbed per fleet size (8 to 1024 nodes).
RACK_SCALES = (1, 8, 32, 128)
#: The paper's 1200 W over 8 nodes, held per node at every scale.
BUDGET_PER_NODE_W = 150.0
SCALE_APPS = ("comd", "sp-mz.C", "stream")
BUDGET_FRACTIONS = (0.85, 1.0, 1.15)


def test_per_node_decision_cost_is_flat(gates):
    # one predictor, trained on the paper's 8-node testbed, serves
    # every fleet size (the cache is keyed by node class)
    build_trained_inflection(_engine())
    apps = [get_app(name) for name in SCALE_APPS]
    per_node_s = []
    violations = 0
    for racks in RACK_SCALES:
        spec = haswell_testbed(racks=racks if racks > 1 else None)
        clip = _scheduler(_engine(spec, cache=RunCache()))
        budget_w = BUDGET_PER_NODE_W * spec.n_nodes
        sweep = [budget_w * frac for frac in BUDGET_FRACTIONS]
        _, _, warm_s = _cold_warm(clip, apps, budget_w, sweep)
        per_node_s.append(warm_s / spec.n_nodes)
        # a running job re-budgeted across swings audits clean too
        runtime = PowerBoundedRuntime(clip)
        job = runtime.launch(apps[0], budget_w, n_nodes=spec.n_nodes)
        for _ in range(3):
            runtime.update_budget(job, 0.9 * budget_w)
            runtime.update_budget(job, budget_w)
        print(f"{spec.n_nodes} nodes: warm decision {warm_s * 1e3:.2f} ms")
        violations += clip.monitor.n_violations
    gates.check("scale.violations", violations, 0, "max", "count")
    gates.check(
        "scale.per_node_cost_ratio", per_node_s[-1] / per_node_s[0],
        MAX_PER_NODE_RATIO, "max", "x",
    )


# -- self-healing enforcement -------------------------------------------

RESILIENCE_BUDGET_W = 1200.0
SEGMENT_ITERS = 5
#: Interleaved bare/guarded drain pairs behind the overhead median.
RESILIENCE_PAIRS = 81
CHAOS_BUDGET_W = 1050.0
#: The acceptance sweep's chaos scripts (as in tests/core/test_resilience).
CHAOS_SCRIPTS = {
    "drift+noise": [
        FaultEvent(at_s=0.0, action="cap_drift", factor=0.20, seed=21),
        FaultEvent(at_s=0.0, action="sensor_noise", factor=0.03, seed=22),
    ],
    "drops+stale+swing": [
        FaultEvent(at_s=0.0, action="cap_write_fail", factor=0.5, seed=23),
        FaultEvent(at_s=0.3, action="sensor_stale", factor=2, seed=24),
        FaultEvent(at_s=0.6, action="set_budget", budget_w=0.85 * CHAOS_BUDGET_W),
        FaultEvent(at_s=1.2, action="set_budget", budget_w=CHAOS_BUDGET_W),
    ],
    "churn+drift+swing": [
        FaultEvent(at_s=0.0, action="cap_drift", factor=0.15, seed=25),
        FaultEvent(at_s=0.3, action="fail_node", node_id=1),
        FaultEvent(at_s=0.6, action="set_budget", budget_w=0.8 * CHAOS_BUDGET_W),
        FaultEvent(at_s=0.9, action="recover_node", node_id=1),
        FaultEvent(at_s=1.2, action="set_budget", budget_w=CHAOS_BUDGET_W),
    ],
}


def test_resilience_overhead(gates, tmp_path):
    """A warm no-fault job drained in segments, journal + watchdog vs
    a bare runtime: the median of paired wall-time ratios."""
    clip = _scheduler()
    app = get_app("comd")
    journal_ids = itertools.count()

    def drain(guarded: bool) -> float:
        clip.engine.cluster.reset()
        clip.monitor.reset()
        journal = None
        if guarded:
            journal = RuntimeJournal(tmp_path / f"{next(journal_ids)}.journal")
        runtime = PowerBoundedRuntime(clip, journal=journal)
        if guarded:
            PowerEnforcementWatchdog(runtime)
        start = time.perf_counter()
        job = runtime.launch(
            app, RESILIENCE_BUDGET_W, n_nodes=4, allow_concurrency_change=True
        )
        while not job.done:
            runtime.advance(job, SEGMENT_ITERS)
        elapsed = time.perf_counter() - start
        if journal is not None:
            journal.close()
        return elapsed

    drain(False)  # profiles, knowledge and model bundles built untimed
    overheads = [
        ratio - 1.0
        for ratio in _paired_ratios(
            lambda: drain(False), lambda: drain(True), RESILIENCE_PAIRS
        )
    ]
    gates.check(
        "resilience.overhead", statistics.median(overheads),
        MAX_RESILIENCE_OVERHEAD, "max", "fraction", samples=overheads,
    )


def test_drift_breach_is_corrected_quickly(gates):
    """Segments from breach back into band under +25% silent drift."""
    clip = _scheduler()
    runtime = PowerBoundedRuntime(clip)
    watchdog = PowerEnforcementWatchdog(runtime)
    # 700 W binds comd's caps on the Haswell testbed, so the drift
    # genuinely overdraws and the escalation ladder has work to do
    job = runtime.launch(get_app("comd"), 700.0, n_nodes=4, n_threads=24)
    for node_id in job.node_ids:
        clip.engine.cluster.node(node_id).rapl.actuation = FaultyActuation(
            seed=1, drift_prob=1.0, drift_frac=0.25
        )
    runtime.reissue_caps(job)
    while not job.done:
        runtime.advance(job, SEGMENT_ITERS)
    report = watchdog.report()

    assert report["breaches"] >= 1, report  # the scenario really breached
    gates.check(
        "resilience.drift_violations", clip.monitor.n_violations, 0,
        "max", "count",
    )
    gates.check(
        "resilience.max_breach_segments", report["max_breach_segments"],
        MAX_BREACH_SEGMENTS, "max", "segments",
    )


@pytest.mark.parametrize("script", list(CHAOS_SCRIPTS))
def test_chaos_script_audits_clean(gates, tmp_path, script):
    """Actuation, sensor, churn and budget-swing faults on the mixed
    fleet, with journal and watchdog: every cap set, the watchdog's
    own corrections included, honours the budget."""
    clip = _scheduler(_engine(mixed_testbed()))
    journal = RuntimeJournal(tmp_path / "chaos.journal")
    runtime = PowerBoundedRuntime(clip, journal=journal)
    PowerEnforcementWatchdog(runtime)
    injector = FaultInjector(
        clip.engine.cluster, CHAOS_SCRIPTS[script], budget_w=CHAOS_BUDGET_W
    )
    job = runtime.launch(
        get_app("comd"), CHAOS_BUDGET_W, n_nodes=6,
        allow_concurrency_change=True, allow_shrink=True,
    )
    try:
        run_scripted(runtime, job, injector, segment_iterations=10)
    finally:
        journal.close()

    assert job.done
    assert injector.fired
    assert clip.monitor.n_audits > 0
    gates.check(
        f"chaos.{script}.violations", clip.monitor.n_violations, 0,
        "max", "count",
    )


# -- the scheduling daemon ----------------------------------------------

SERVE_BUDGET_W = 1400.0
#: Load-generator shape: client threads submitting fixed-size bursts
#: back to back, each over its own connection.
THREADS = 4
BATCH_SIZE = 8
BURSTS_PER_THREAD = 15
#: ``schedule_many`` calls per bare sample, and bare/saturated pairs.
BARE_ROUNDS = 20
SERVE_PAIRS = 9


def _burst(i: int) -> list[str]:
    """Client *i*'s job mix: a rotating window over the app set."""
    return [CPU_APPS[(i + k) % len(CPU_APPS)] for k in range(BATCH_SIZE)]


def test_serve_throughput_and_overhead(gates):
    """Saturated HTTP load on a thread-hosted daemon, paired with bare
    ``schedule_many`` on the same warm scheduler: per-decision wall
    time of each, and the median of their paired ratios."""
    clip = _scheduler()
    for name in CPU_APPS:
        clip.schedule(get_app(name), SERVE_BUDGET_W)
    jobs = [get_app(name) for name in _burst(0)]

    def bare() -> float:
        _, elapsed = _timed(
            lambda: [
                clip.schedule_many(jobs, SERVE_BUDGET_W)
                for _ in range(BARE_ROUNDS)
            ]
        )
        return elapsed / (BARE_ROUNDS * BATCH_SIZE)

    def client(i: int) -> None:
        with ServeClient("127.0.0.1", daemon.port) as c:
            for _ in range(BURSTS_PER_THREAD):
                assert all(j["status"] == "done" for j in c.submit(_burst(i)))

    rates = []

    def saturated() -> float:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            for future in [pool.submit(client, i) for i in range(THREADS)]:
                future.result()
        per_decision_s = (time.perf_counter() - start) / (
            THREADS * BURSTS_PER_THREAD * BATCH_SIZE
        )
        rates.append(1.0 / per_decision_s)
        return per_decision_s

    service = SchedulerService(clip, SERVE_BUDGET_W)
    daemon = ServeDaemon(service, port=0).start_in_thread()
    try:
        overheads = _paired_ratios(bare, saturated, SERVE_PAIRS)
        stats = service.stats()
    finally:
        daemon.shutdown()

    decisions = SERVE_PAIRS * THREADS * BURSTS_PER_THREAD * BATCH_SIZE
    # every submission decided, none failed or rejected
    assert stats["submitted"] == stats["decided"] == decisions, stats
    assert stats["failed"] == stats["rejected"] == 0, stats
    # concurrent submissions really coalesced into multi-job bursts
    assert stats["mean_burst"] > 1.0, stats
    gates.check(
        "serve.audit_violations", stats["audit_violations"], 0, "max", "count"
    )
    gates.check(
        "serve.decisions_per_s", statistics.median(rates), MIN_SERVE_RATE,
        "min", "1/s", samples=rates,
    )
    gates.check(
        "serve.overhead_vs_bare", statistics.median(overheads),
        MAX_SERVICE_OVERHEAD, "max", "x", samples=overheads,
    )


# -- closed-loop learning -----------------------------------------------

#: The golden capture grid (tests/data/capture_golden_testbeds.py).
LEARN_APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "tealeaf")
LEARN_BUDGETS_W = (1000.0, 1400.0, 1800.0)
COMBOS = [(name, budget) for name in LEARN_APPS for budget in LEARN_BUDGETS_W]
#: Passes over the 15-combo grid per campaign.
ROUNDS = 6
ITERATIONS = 3
ABLATION_SEEDS = (42, 7, 11)
SCENARIOS = ("clean", "mistimed_x2", "drift")
#: "mistimed_x2": every profile sample's time is scaled by this.
MISTIME_SCALE = 2.0
#: "drift": these nodes degrade by DRIFT_FACTOR before this round.
DRIFT_NODES = (1, 3, 5)
DRIFT_FACTOR = 1.3
DRIFT_AFTER_ROUND = 2
#: Warm-path timing: interleaved off/on pairs, grid passes per side.
OVERHEAD_PAIRS = 41
TIMING_PASSES = 2


def _drift(engine: ExecutionEngine) -> None:
    """Fire the drift scenario's ``degrade_node`` events."""
    events = [
        FaultEvent(at_s=0.0, action="degrade_node", node_id=n, factor=DRIFT_FACTOR)
        for n in DRIFT_NODES
    ]
    FaultInjector(engine.cluster, events).advance_to(0.0)


def _oracle_floor(engine: ExecutionEngine) -> dict[tuple[str, float], float]:
    """Exhaustive-search performance per combo: the gap's denominator."""
    oracle = OracleScheduler(engine, thread_step=2)
    return {
        (name, budget): oracle.run(
            get_app(name), budget, iterations=ITERATIONS
        ).performance
        for name, budget in COMBOS
    }


def _mistimed(entry: KnowledgeEntry) -> KnowledgeEntry:
    """*entry* with every profile sample's time scaled by MISTIME_SCALE
    (class and power levels untouched, so every time prediction is off
    by exactly that factor)."""

    def stretch(run):
        if run is None:
            return None
        return replace(
            run,
            perf=run.perf / MISTIME_SCALE,
            t_iter_s=run.t_iter_s * MISTIME_SCALE,
            t_iter_lo_s=run.t_iter_lo_s * MISTIME_SCALE,
        )

    profile = replace(
        entry.profile,
        all_run=stretch(entry.profile.all_run),
        half_run=stretch(entry.profile.half_run),
        confirm_run=stretch(entry.profile.confirm_run),
    )
    return replace(entry, profile=profile)


def _mistimed_knowledge(engine: ExecutionEngine) -> KnowledgeDB:
    profiler = _scheduler(engine)
    kb = KnowledgeDB()
    for name in LEARN_APPS:
        kb.put(_mistimed(profiler.ensure_knowledge(get_app(name))))
    return kb


def _campaign(engine, floors, learning: bool, scenario: str):
    """ROUNDS passes over the grid, every decision executed and its
    outcome recorded.  *floors* maps "clean" (and "drift") to the
    oracle floor of that hardware.  Returns the scheduler and the
    per-decision oracle gaps in submission order."""
    knowledge = None
    if scenario == "mistimed_x2":
        knowledge = _mistimed_knowledge(engine)
    clip = _scheduler(
        engine, knowledge=knowledge, learning=LearningConfig(enabled=learning)
    )
    floor = floors["clean"]
    gaps = []
    for rnd in range(ROUNDS):
        if scenario == "drift" and rnd == DRIFT_AFTER_ROUND:
            _drift(engine)
            floor = floors["drift"]
        for name, budget in COMBOS:
            _, result = clip.run(get_app(name), budget, iterations=ITERATIONS)
            gaps.append(floor[(name, budget)] / result.performance)
    return clip, gaps


def _final_third(gaps: list[float]) -> float:
    return statistics.fmean(gaps[-(len(gaps) // 3):])


@pytest.fixture(scope="module")
def ablation():
    """Learning off vs refit in every (scenario, seed) cell.

    Returns ``{(scenario, seed): {"off"|"refit": (final-third gap,
    violations)}}`` and the headline campaign, the clean refit one at
    SEED, as ``(scheduler, gaps)``.
    """
    cells: dict[tuple[str, int], dict] = {}
    headline = None
    for seed in ABLATION_SEEDS:
        cache = RunCache()
        floors = {"clean": _oracle_floor(_engine(seed=seed, cache=cache))}
        drifted = _engine(seed=seed, cache=cache)
        _drift(drifted)
        floors["drift"] = _oracle_floor(drifted)
        for scenario in SCENARIOS:
            cell = cells[scenario, seed] = {}
            for label, learning in (("off", False), ("refit", True)):
                clip, gaps = _campaign(
                    _engine(seed=seed, cache=cache), floors, learning, scenario
                )
                cell[label] = (_final_third(gaps), clip.monitor.n_violations)
                if (scenario, seed, learning) == ("clean", SEED, True):
                    headline = clip, gaps
    return cells, headline


def test_learning_campaign_closes_the_gap(gates, ablation):
    clip, gaps = ablation[1]
    stats = clip.pipeline.learning_stats()
    first_third = statistics.fmean(gaps[: len(gaps) // 3])

    # the loop is closed: outcomes flowed back and refits happened
    assert stats["outcomes"] >= len(gaps), stats
    assert stats["refits"] > 0, stats
    gates.check(
        "learning.campaign_decisions", len(gaps), MIN_CAMPAIGN_DECISIONS,
        "min", "decisions",
    )
    gates.check(
        "learning.campaign_violations", clip.monitor.n_violations, 0,
        "max", "count",
    )
    gates.check(
        "learning.final_third_gap", _final_third(gaps), first_third,
        "max", "x oracle",
    )


def test_refit_never_worse_than_learning_off(gates, ablation):
    for (scenario, seed), cell in ablation[0].items():
        (off_gap, off_violations), (refit_gap, refit_violations) = (
            cell["off"], cell["refit"]
        )
        assert off_violations == refit_violations == 0, (scenario, seed)
        gates.check(
            f"learning.ablation.{scenario}.seed{seed}.refit_minus_off",
            refit_gap - off_gap, 0.0, "max", "x oracle",
        )


def test_learning_off_matches_golden(gates):
    """Learning off, with outcomes recorded for every combo, decides
    byte-for-byte as the golden capture: observation history alone
    never moves a decision."""
    golden = json.loads(GOLDEN_PATH.read_text())["testbeds"]["haswell"]
    clip = _scheduler()
    for name, budget in COMBOS:
        clip.run(get_app(name), budget, iterations=ITERATIONS)
    assert clip.pipeline.learning_stats()["outcomes"] >= len(COMBOS)
    mismatches = [
        f"{name}@{budget:.0f}"
        for name, budget in COMBOS
        if clip.schedule(get_app(name), budget).to_dict()
        != golden[f"{name}@{budget:.0f}"]
    ]
    gates.check(
        "learning.golden_mismatches", len(mismatches), 0, "max", "count"
    )


def test_learning_warm_overhead(gates, ablation):
    """The converged headline scheduler vs a warm learning-off one on
    the same grid: the median of paired per-decision time ratios."""
    learned = ablation[1][0]
    off = _scheduler(_engine(cache=RunCache()))
    apps = {name: get_app(name) for name in LEARN_APPS}

    def per_decision_s(clip: ClipScheduler) -> float:
        _, elapsed = _timed(
            lambda: [
                clip.schedule(apps[name], budget)
                for _ in range(TIMING_PASSES)
                for name, budget in COMBOS
            ]
        )
        return elapsed / (TIMING_PASSES * len(COMBOS))

    per_decision_s(off)  # profiles and model bundles built untimed
    per_decision_s(learned)
    ratios = _paired_ratios(
        lambda: per_decision_s(off), lambda: per_decision_s(learned),
        OVERHEAD_PAIRS,
    )
    gates.check(
        "learning.warm_overhead", statistics.median(ratios),
        MAX_LEARNING_OVERHEAD, "max", "x", samples=ratios,
    )
