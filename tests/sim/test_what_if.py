"""What-if evaluation leaves the testbed alone.

``evaluate``/``evaluate_many`` answer "what would this config
produce?" from the config's own caps.  Whichever path answers (the
engine's float code for small batches and on GPU fleets, the array
kernel for large ones on CPU fleets), no node's programmed or enforced caps, throttle counters,
energy registers, meter or actuation counters may change, and faults
on the nodes (drifted or dropped cap writes, failed nodes) must not
leak into the answer.
"""

import pytest

from repro.hw.cluster import SimulatedCluster
from repro.hw.rapl import Domain
from repro.hw.specs import gpu_testbed, haswell_testbed
from repro.sim.batch import FLOAT_PATH_MAX_CELLS
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.sim.faults import FaultEvent, FaultInjector
from repro.workloads.apps import get_app

from tests.sim.test_batch import assert_identical, in_kernel_domain, kernel


class TestWhatIfIsolation:
    """A what-if evaluation reads and writes no node state."""

    @staticmethod
    def _state(cluster):
        out = []
        for node in cluster.nodes:
            rapl = node.rapl
            domains = [
                d for d in Domain if d is not Domain.GPU or node.spec.has_gpu
            ]
            out.append(
                (
                    rapl.snapshot_caps(),
                    [rapl.domain(d).throttle_events for d in domains],
                    [rapl.domain(d).read_energy_register() for d in domains],
                    [rapl.domain(d).energy_j for d in domains],
                    (node.meter.energy_j, node.meter.elapsed_s),
                    rapl.actuation_stats,
                    cluster.is_available(node.node_id),
                )
            )
        return out

    @pytest.mark.parametrize("testbed", ["haswell", "gpu"])
    @pytest.mark.parametrize(
        "n_nodes",
        [3, FLOAT_PATH_MAX_CELLS + 1],
        ids=["float-path", "kernel-path"],
    )
    def test_faulted_nodes_answer_from_config_caps(self, testbed, n_nodes):
        spec = {"haswell": haswell_testbed, "gpu": gpu_testbed}[testbed]()
        cluster = SimulatedCluster(spec)
        engine = ExecutionEngine(cluster, seed=42)
        app = get_app("lulesh-gpu" if testbed == "gpu" else "comd")
        injector = FaultInjector(
            cluster,
            [
                FaultEvent(0.0, "cap_drift", node_id=0, factor=0.4, seed=3),
                FaultEvent(0.0, "cap_write_fail", node_id=1, factor=1.0, seed=5),
                FaultEvent(0.0, "fail_node", node_id=2),
            ],
        )
        injector.advance_to(0.0)
        # execute once so the nodes carry drifted/stale caps, throttle
        # counts, energy and meter samples of their own
        engine.run(
            app,
            ExecutionConfig(
                n_nodes=2, n_threads=12, pkg_cap_w=80.0, dram_cap_w=20.0,
                gpu_cap_w=90.0, iterations=2,
            ),
        )
        before = self._state(cluster)
        assert cluster.node(0).rapl.domain(Domain.PKG).enforced_w != 80.0
        assert cluster.node(0).rapl.domain(Domain.PKG).throttle_events > 0
        assert not cluster.is_available(2)

        what_if = ExecutionConfig(
            n_nodes=n_nodes, n_threads=12, pkg_cap_w=110.0, dram_cap_w=26.0,
            gpu_cap_w=120.0, iterations=2,
        )
        (answer,) = engine.evaluate_many(app, [what_if])
        assert self._state(cluster) == before
        if in_kernel_domain(engine, what_if):
            assert_identical(answer, kernel(engine, app, what_if))
        assert_identical(answer, engine._what_if(app, [what_if])[0])
        # the answer is the one a clean testbed executes under those caps
        clean = ExecutionEngine(SimulatedCluster(spec), seed=42)
        assert_identical(answer, clean.run(app, what_if))
