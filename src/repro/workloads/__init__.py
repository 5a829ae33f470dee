"""Application substrate: workload descriptions and ground truth.

The paper evaluates CLIP on ten hybrid MPI/OpenMP benchmark
configurations (Table II) plus training corpora (NPB, HPCC, STREAM,
PolyBench).  We cannot run those codes on simulated hardware, so each
application is described by a :class:`WorkloadCharacteristics` record —
compute volume, memory intensity, serial fraction, synchronization
cost, NUMA sharing, and communication shape — from which
:mod:`repro.workloads.model` derives ground-truth execution times with
a roofline-style analytic model.  The three scalability classes the
paper observes (linear / logarithmic / parabolic, §II) *emerge* from
those first-principles terms rather than being painted on.

:mod:`repro.workloads.apps` calibrates one record per Table-II row;
:mod:`repro.workloads.generator` draws randomized records for MLR
training.
"""

from repro.workloads.characteristics import (
    CommPattern,
    Phase,
    WorkloadCharacteristics,
)
from repro.workloads.model import (
    GroundTruthModel,
    NodePhaseTiming,
    scalability_curve,
    true_inflection_point,
    true_scalability_class,
)
from repro.workloads.apps import (
    TABLE2_APPS,
    EXTRA_APPS,
    all_apps,
    get_app,
)
from repro.workloads.generator import SyntheticAppGenerator
from repro.workloads.suites import training_corpus

__all__ = [
    "CommPattern",
    "Phase",
    "WorkloadCharacteristics",
    "GroundTruthModel",
    "NodePhaseTiming",
    "scalability_curve",
    "true_inflection_point",
    "true_scalability_class",
    "TABLE2_APPS",
    "EXTRA_APPS",
    "all_apps",
    "get_app",
    "SyntheticAppGenerator",
    "training_corpus",
]
