"""repro — a full reproduction of CLIP (Zou et al., IEEE CLUSTER 2017).

CLIP is a hierarchical, application-aware power coordination framework
for power-bounded clusters: given a cluster-wide power budget it picks
the node count, per-node CPU/DRAM power caps, thread concurrency, and
core affinity from a 2–3-sample application profile.

This package contains both the framework and the testbed it needs:

* :mod:`repro.hw` — a simulated 8-node dual-socket Haswell cluster
  (RAPL domains, DVFS, NUMA, PMU events, manufacturing variability);
* :mod:`repro.workloads` — analytic ground-truth models of the paper's
  Table-II benchmarks plus training corpora;
* :mod:`repro.sim` — the steady-state execution engine;
* :mod:`repro.core` — CLIP itself (profiling, classification, MLR
  inflection prediction, performance/power models, Algorithm 1);
* :mod:`repro.baselines` — All-In, Lower-Limit, Coordinated [15], and
  an exhaustive-search oracle;
* :mod:`repro.analysis` — metrics and the evaluation harness.

Quick start::

    from repro import quickstart_scheduler
    from repro.workloads import get_app

    clip = quickstart_scheduler()
    decision, result = clip.run(get_app("sp-mz.C"), cluster_budget_w=1200.0)
    print(decision.n_nodes, decision.n_threads, result.summary())
"""

from repro.errors import ClipError
from repro.hw import SimulatedCluster, haswell_testbed
from repro.sim import ExecutionConfig, ExecutionEngine, RunResult
from repro.core import (
    AppProfile,
    ClipScheduler,
    InflectionPredictor,
    KnowledgeDB,
    PerformancePredictor,
    ScalabilityClass,
    SchedulingDecision,
    SmartProfiler,
)
from repro.workloads import WorkloadCharacteristics, all_apps, get_app

__version__ = "1.0.0"

__all__ = [
    "ClipError",
    "SimulatedCluster",
    "haswell_testbed",
    "ExecutionConfig",
    "ExecutionEngine",
    "RunResult",
    "AppProfile",
    "ClipScheduler",
    "InflectionPredictor",
    "KnowledgeDB",
    "PerformancePredictor",
    "ScalabilityClass",
    "SchedulingDecision",
    "SmartProfiler",
    "WorkloadCharacteristics",
    "all_apps",
    "get_app",
    "quickstart_scheduler",
    "__version__",
]


def quickstart_scheduler() -> ClipScheduler:
    """A ready-to-use CLIP scheduler on the default simulated testbed.

    Builds the 8-node Haswell testbed, trains the MLR inflection
    predictor on the training corpus, and calibrates node variability —
    everything the examples need in one call.
    """
    from repro.analysis.experiments import build_trained_inflection

    engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))
