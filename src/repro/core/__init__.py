"""CLIP — the paper's contribution.

The modules here implement the framework of Sections III–IV on top of
the simulated substrate, observing only what the real framework could
observe (profiled times, RAPL power, PMU events):

* :mod:`repro.core.classify` — scalability-trend classification,
* :mod:`repro.core.profile` — the Smart Profiling Module,
* :mod:`repro.core.inflection` — MLR inflection-point prediction,
* :mod:`repro.core.perfmodel` — Eq. 1–3 performance predictors,
* :mod:`repro.core.powermodel` — Eq. 4–9 power decomposition and the
  acceptable power range,
* :mod:`repro.core.allocation` — cluster-level node count and per-node
  budgets (Algorithm 1, step 1),
* :mod:`repro.core.coordination` — variability-aware inter-node power
  shifting,
* :mod:`repro.core.recommend` — the Configuration Recommendation
  Module (node-level concurrency, affinity, CPU/DRAM split),
* :mod:`repro.core.knowledge` — the knowledge database,
* :mod:`repro.core.pipeline` — the staged decision pipeline and the
  shared fitted-model bundle cache,
* :mod:`repro.core.scheduler` — Algorithm 1 end to end,
* :mod:`repro.core.execution` — the Application Execution Module.
"""

from repro.core.classify import ScalabilityClass, classify_ratio
from repro.core.profile import AppProfile, SmartProfiler
from repro.core.inflection import InflectionPredictor
from repro.core.perfmodel import PerformancePredictor
from repro.core.powermodel import ClipPowerModel, PowerRange
from repro.core.allocation import ClusterAllocation, ClusterAllocator
from repro.core.coordination import coordinate_power
from repro.core.recommend import NodeConfig, Recommender
from repro.core.knowledge import KnowledgeDB
from repro.core.pipeline import (
    DecisionContext,
    DecisionPipeline,
    DecisionTrace,
    ModelBundle,
    ModelBundleCache,
)
from repro.core.scheduler import ClipScheduler, SchedulingDecision
from repro.core.runtime import PowerBoundedRuntime, RunningJob, SegmentRecord
from repro.core.multijob import JobPlacement, MultiJobCoordinator
from repro.core.jobqueue import CompletedJob, PowerBoundedJobQueue, QueueReport

__all__ = [
    "ScalabilityClass",
    "classify_ratio",
    "AppProfile",
    "SmartProfiler",
    "InflectionPredictor",
    "PerformancePredictor",
    "ClipPowerModel",
    "PowerRange",
    "ClusterAllocation",
    "ClusterAllocator",
    "coordinate_power",
    "NodeConfig",
    "Recommender",
    "KnowledgeDB",
    "DecisionContext",
    "DecisionPipeline",
    "DecisionTrace",
    "ModelBundle",
    "ModelBundleCache",
    "ClipScheduler",
    "SchedulingDecision",
    "PowerBoundedRuntime",
    "RunningJob",
    "SegmentRecord",
    "JobPlacement",
    "MultiJobCoordinator",
    "CompletedJob",
    "PowerBoundedJobQueue",
    "QueueReport",
]
