"""Simulated hardware substrate.

This package models the paper's experimental testbed — an 8-node cluster
of dual-socket Haswell (Xeon E5-2670 v3) machines — at the level of
detail CLIP actually interacts with:

* :mod:`repro.hw.specs` — static machine descriptions and the
  :func:`~repro.hw.specs.haswell_testbed` factory,
* :mod:`repro.hw.dvfs` — the discrete frequency ladder and P-states,
* :mod:`repro.hw.power` — the ground-truth analytic power model,
* :mod:`repro.hw.rapl` — RAPL-like power domains (PKG / DRAM) with
  energy counters and cap enforcement, held for the whole fleet in one
  register bank,
* :mod:`repro.hw.numa` — NUMA topology and remote-access penalties,
* :mod:`repro.hw.counters` — synthesis of the Table-I hardware events,
* :mod:`repro.hw.variability` — manufacturing variability,
* :mod:`repro.hw.meter` — the node power meter and sensor faults,
* :mod:`repro.hw.node` / :mod:`repro.hw.cluster` — composition.

The substrate is *analytic*: instead of cycle-level simulation it
resolves a steady-state operating point (frequency, bandwidth, power)
for a given workload phase, which is the granularity at which RAPL and
the paper's scheduler operate (milliseconds and above).
"""

from repro.hw.specs import (
    CoreSpec,
    SocketSpec,
    MemorySpec,
    NodeSpec,
    NodeGroup,
    ClusterSpec,
    haswell_node,
    haswell_testbed,
    broadwell_node,
    broadwell_testbed,
    mixed_testbed,
)
from repro.hw.dvfs import FrequencyLadder
from repro.hw.power import PowerModel
from repro.hw.rapl import RaplDomain, RaplInterface, Domain
from repro.hw.numa import NumaTopology, AffinityKind
from repro.hw.counters import EventCounters, EVENT_NAMES
from repro.hw.variability import VariabilityModel
from repro.hw.meter import PowerMeter
from repro.hw.node import SimulatedNode
from repro.hw.cluster import SimulatedCluster

__all__ = [
    "CoreSpec",
    "SocketSpec",
    "MemorySpec",
    "NodeSpec",
    "NodeGroup",
    "ClusterSpec",
    "haswell_node",
    "haswell_testbed",
    "broadwell_node",
    "broadwell_testbed",
    "mixed_testbed",
    "FrequencyLadder",
    "PowerModel",
    "RaplDomain",
    "RaplInterface",
    "Domain",
    "NumaTopology",
    "AffinityKind",
    "EventCounters",
    "EVENT_NAMES",
    "VariabilityModel",
    "PowerMeter",
    "SimulatedNode",
    "SimulatedCluster",
]
