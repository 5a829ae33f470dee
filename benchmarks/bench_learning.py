"""Closed-loop learning campaign vs. the exhaustive-search oracle.

Drives the outcome-fed learning loop through simulated scheduling
campaigns and writes ``BENCH_learning.json`` at the repository root:

1. **oracle floor** — the exhaustive-search optimum for every
   (app, budget) combo, the denominator of the gap metric;
2. **campaign** — a learning-on scheduler decides and executes
   ``ROUNDS`` passes over the combo grid (decision → execution →
   ``record_outcome`` → refit policy); the per-decision oracle gap is
   recorded in submission order, so the first/final-third comparison
   measures whether feeding outcomes back actually closes the gap;
3. **ablation** — learning off vs. refit over three scenarios (clean
   profiles, profiles mistimed by ``MISTIME_SCALE``, and hardware
   drift from ``degrade_node`` fault events after ``DRIFT_AFTER_ROUND``
   rounds) and the engine seeds ``ABLATION_SEEDS``: campaign and
   final-third gaps per seed plus the paired refit − off difference;
4. **golden identity** — a learning-OFF scheduler replays the same
   combos *with outcomes recorded* and its decisions are compared
   byte-for-byte against ``tests/data/golden_decisions_testbeds.json``:
   observation history alone must never move a decision;
5. **warm overhead** — per-decision cost of a converged learning-on
   scheduler vs. a warm learning-off one on the same mix, the median
   of ``OVERHEAD_PAIRS`` interleaved off/on timing pairs.

Run standalone with ``python benchmarks/bench_learning.py`` or through
``benchmarks/test_perf_learning.py``, which gates the shrinking gap,
the ablation, the bit identity, the audit ledger, and the warm
overhead.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:  # standalone execution
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.experiments import build_trained_inflection
from repro.baselines import OracleScheduler
from repro.core.knowledge import KnowledgeDB, KnowledgeEntry
from repro.core.learning import LearningConfig
from repro.core.scheduler import ClipScheduler
from repro.hw.cluster import SimulatedCluster
from repro.sim.batch import RunCache
from repro.sim.engine import ExecutionEngine
from repro.sim.faults import FaultEvent, FaultInjector
from repro.workloads.apps import get_app

BENCH_PATH = REPO_ROOT / "BENCH_learning.json"
GOLDEN_PATH = REPO_ROOT / "tests" / "data" / "golden_decisions_testbeds.json"

#: The golden capture grid (tests/data/capture_golden_testbeds.py).
APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "tealeaf")
BUDGETS_W = (1000.0, 1400.0, 1800.0)
#: Campaign length: ROUNDS passes over the 15-combo grid (>= 60
#: decisions, the acceptance floor).
ROUNDS = 6
ITERATIONS = 3
#: Engine seed of the headline campaign.
SEED = 42
#: Warm-path timing: interleaved off/on pairs, and passes over the
#: grid per side of one pair.
OVERHEAD_PAIRS = 41
TIMING_PASSES = 2

#: Ablation: engine seeds, and the scenario knobs.
ABLATION_SEEDS = (42, 7, 11)
SCENARIOS = ("clean", "mistimed_x2", "drift")
#: Every profile sample's time is scaled by this in "mistimed_x2".
MISTIME_SCALE = 2.0
#: "drift": these nodes degrade by DRIFT_FACTOR before this round.
DRIFT_NODES = (1, 3, 5)
DRIFT_FACTOR = 1.3
DRIFT_AFTER_ROUND = 2


def _fresh_engine(
    seed: int = SEED, cache: RunCache | None = None
) -> ExecutionEngine:
    return ExecutionEngine(SimulatedCluster.testbed(), seed=seed, cache=cache)


def _drift(engine: ExecutionEngine) -> None:
    """Fire the drift scenario's ``degrade_node`` events."""
    events = [
        FaultEvent(at_s=0.0, action="degrade_node", node_id=n, factor=DRIFT_FACTOR)
        for n in DRIFT_NODES
    ]
    FaultInjector(engine.cluster, events).advance_to(0.0)


def _combos():
    return [(name, budget) for name in APPS for budget in BUDGETS_W]


def _oracle_floor(engine) -> dict[tuple[str, float], float]:
    oracle = OracleScheduler(engine, thread_step=2)
    return {
        (name, budget): oracle.run(
            get_app(name), budget, iterations=ITERATIONS
        ).performance
        for name, budget in _combos()
    }


def _mistimed(entry: KnowledgeEntry, scale: float) -> KnowledgeEntry:
    """The entry with every profile sample's time scaled by *scale*
    (class and power levels untouched, every time prediction off by
    exactly that factor)."""

    def stretch(run):
        if run is None:
            return None
        return replace(
            run,
            perf=run.perf / scale,
            t_iter_s=run.t_iter_s * scale,
            t_iter_lo_s=run.t_iter_lo_s * scale,
        )

    profile = replace(
        entry.profile,
        all_run=stretch(entry.profile.all_run),
        half_run=stretch(entry.profile.half_run),
        confirm_run=stretch(entry.profile.confirm_run),
    )
    return replace(entry, profile=profile)


def _mistimed_knowledge(engine: ExecutionEngine) -> KnowledgeDB:
    profiler = ClipScheduler(engine, inflection=build_trained_inflection(engine))
    kb = KnowledgeDB()
    for name in APPS:
        kb.put(_mistimed(profiler.ensure_knowledge(get_app(name)), MISTIME_SCALE))
    return kb


def _run_campaign(
    engine: ExecutionEngine,
    floors: dict[str, dict[tuple[str, float], float]],
    learning: bool = True,
    scenario: str = "clean",
) -> tuple[ClipScheduler, list[dict]]:
    """ROUNDS passes over the grid; *floors* maps "clean" (and, for
    the drift scenario, "drift") to the oracle floor of that hardware."""
    clip = ClipScheduler(
        engine,
        inflection=build_trained_inflection(engine),
        knowledge=(
            _mistimed_knowledge(engine) if scenario == "mistimed_x2" else None
        ),
        learning=LearningConfig(enabled=learning),
    )
    oracle_perf = floors["clean"]
    records = []
    for rnd in range(ROUNDS):
        if scenario == "drift" and rnd == DRIFT_AFTER_ROUND:
            _drift(engine)
            oracle_perf = floors["drift"]
        for name, budget in _combos():
            decision, result = clip.run(
                get_app(name), budget, iterations=ITERATIONS
            )
            floor = oracle_perf[(name, budget)]
            records.append(
                {
                    "round": rnd + 1,
                    "app": name,
                    "budget_w": budget,
                    "n_nodes": decision.n_nodes,
                    "n_threads": decision.n_threads,
                    "model_version": decision.model_version,
                    "performance": result.performance,
                    "oracle_performance": floor,
                    "gap": floor / result.performance,
                }
            )
    return clip, records


def _check_golden_identity() -> dict:
    """Learning-off decisions, with outcomes recorded, match the golden.

    The scheduler is constructed exactly as the capture script builds
    it, every combo is *executed* (so the knowledge entries accumulate
    observation history through the choke point), and then each combo
    is re-decided and compared byte-for-byte against the stored
    haswell capture.
    """
    golden = json.loads(GOLDEN_PATH.read_text())["testbeds"]["haswell"]
    engine = _fresh_engine()
    clip = ClipScheduler(engine, inflection=build_trained_inflection(engine))
    for name, budget in _combos():
        clip.run(get_app(name), budget, iterations=ITERATIONS)
    mismatches = []
    for name, budget in _combos():
        d = clip.schedule(get_app(name), budget)
        if d.to_dict() != golden[f"{name}@{budget:.0f}"]:
            mismatches.append(f"{name}@{budget:.0f}")
    return {
        "checked": len(_combos()),
        "outcomes_recorded": clip.pipeline.learning_stats()["outcomes"],
        "mismatches": mismatches,
        "identical": not mismatches,
    }


def _time_passes(clip: ClipScheduler) -> float:
    """Warm per-decision wall time over TIMING_PASSES grid passes."""
    apps = {name: get_app(name) for name in APPS}
    combos = _combos()
    start = time.perf_counter()
    for _ in range(TIMING_PASSES):
        for name, budget in combos:
            clip.schedule(apps[name], budget)
    elapsed = time.perf_counter() - start
    return elapsed / (TIMING_PASSES * len(combos))


def _measure_overhead(campaign_clip: ClipScheduler) -> dict:
    """Converged learning-on vs. warm learning-off decision cost.

    Both schedulers first decide every combo once (profiles and model
    bundles built), then OVERHEAD_PAIRS off/on timing pairs run
    interleaved, the side that goes first alternating; the ratio is
    the median of the per-pair on/off ratios.
    """
    engine = _fresh_engine(cache=RunCache())
    off = ClipScheduler(engine, inflection=build_trained_inflection(engine))
    for clip in (off, campaign_clip):
        for name, budget in _combos():
            clip.schedule(get_app(name), budget)
    off_s: list[float] = []
    on_s: list[float] = []
    for i in range(OVERHEAD_PAIRS):
        if i % 2:
            on_s.append(_time_passes(campaign_clip))
            off_s.append(_time_passes(off))
        else:
            off_s.append(_time_passes(off))
            on_s.append(_time_passes(campaign_clip))
    ratios = [on / off for on, off in zip(on_s, off_s)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    return {
        "off_per_decision_s": statistics.median(off_s),
        "on_per_decision_s": statistics.median(on_s),
        "ratio": median,
        "ratio_quartiles": [q1, q3],
        "pairs": OVERHEAD_PAIRS,
        "passes_per_side": TIMING_PASSES,
    }


def _mean_gap(records: list[dict]) -> float:
    return sum(r["gap"] for r in records) / len(records)


def _thirds(records: list[dict]) -> dict:
    n = len(records)
    cut = n // 3
    chunks = {
        "first": records[:cut],
        "middle": records[cut : n - cut],
        "final": records[n - cut :],
    }
    return {
        label: {
            "decisions": len(chunk),
            "mean_gap": _mean_gap(chunk),
        }
        for label, chunk in chunks.items()
    }


def _ablation() -> tuple[dict, ClipScheduler, list[dict]]:
    """Learning off vs. refit over every (scenario, seed) cell.

    Returns the ablation section plus the headline campaign (the clean
    refit campaign at ``SEED``) so it is not run twice.
    """
    rows = []
    headline = None
    for seed in ABLATION_SEEDS:
        cache = RunCache()
        print(f"  seed {seed}: oracle floors...", file=sys.stderr)
        floors = {"clean": _oracle_floor(_fresh_engine(seed, cache))}
        drifted = _fresh_engine(seed, cache)
        _drift(drifted)
        floors["drift"] = _oracle_floor(drifted)
        for scenario in SCENARIOS:
            row: dict = {"scenario": scenario, "seed": seed}
            for label, learning in (("off", False), ("refit", True)):
                clip, records = _run_campaign(
                    _fresh_engine(seed, cache), floors, learning, scenario
                )
                stats = clip.pipeline.learning_stats()
                row[label] = {
                    "campaign_gap": _mean_gap(records),
                    "final_third_gap": _thirds(records)["final"]["mean_gap"],
                    "refits": stats["refits"],
                    "inflection_refits": stats["inflection_refits"],
                    "violations": clip.monitor.n_violations,
                }
                if (scenario, seed, learning) == ("clean", SEED, True):
                    headline = (clip, records)
            row["refit_minus_off"] = {
                key: row["refit"][key] - row["off"][key]
                for key in ("campaign_gap", "final_third_gap")
            }
            rows.append(row)
    section = {
        "seeds": list(ABLATION_SEEDS),
        "scenarios": {
            "clean": "profiles as measured",
            "mistimed_x2": (
                f"every profile sample's time scaled x{MISTIME_SCALE:g} "
                "before the campaign"
            ),
            "drift": (
                f"nodes {list(DRIFT_NODES)} degrade x{DRIFT_FACTOR:g} "
                f"(degrade_node) after round {DRIFT_AFTER_ROUND}; later "
                "rounds gap against the degraded cluster's oracle"
            ),
        },
        "configs": {
            "off": "LearningConfig() - outcomes recorded, never acted on",
            "refit": "LearningConfig(enabled=True) - outcome-driven refits",
        },
        "rows": rows,
    }
    return section, *headline


def run_learning_bench() -> dict:
    print(
        f"ablation ({len(ABLATION_SEEDS)} seeds x {len(SCENARIOS)} "
        f"scenarios x off/refit, {ROUNDS * len(_combos())} decisions "
        "each)...",
        file=sys.stderr,
    )
    ablation, clip, records = _ablation()
    thirds = _thirds(records)
    print("golden identity replay (learning off)...", file=sys.stderr)
    identity = _check_golden_identity()
    print("warm-path overhead...", file=sys.stderr)
    overhead = _measure_overhead(clip)
    monitor = clip.monitor
    payload = {
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "campaign": {
            "apps": list(APPS),
            "budgets_w": list(BUDGETS_W),
            "rounds": ROUNDS,
            "iterations": ITERATIONS,
            "seed": SEED,
            "decisions": len(records),
            "records": records,
        },
        "thirds": thirds,
        "ablation": ablation,
        "learning": clip.pipeline.learning_stats(),
        "golden_identity": identity,
        "audit": {
            "audits": monitor.n_audits,
            "violations": monitor.n_violations,
        },
        "overhead": overhead,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {BENCH_PATH}", file=sys.stderr)
    return payload


if __name__ == "__main__":
    payload = run_learning_bench()
    t = payload["thirds"]
    print(
        f"gap first third {t['first']['mean_gap']:.4f} -> "
        f"final third {t['final']['mean_gap']:.4f}, "
        f"overhead {payload['overhead']['ratio']:.2f}x, "
        f"golden identical: {payload['golden_identity']['identical']}"
    )
    print("final-third gap  off -> refit (refit - off)")
    for row in payload["ablation"]["rows"]:
        print(
            f"  {row['scenario']:<12} seed {row['seed']:>2}: "
            f"{row['off']['final_third_gap']:.4f} -> "
            f"{row['refit']['final_third_gap']:.4f} "
            f"({row['refit_minus_off']['final_third_gap']:+.4f})"
        )
