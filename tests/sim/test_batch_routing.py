"""Which what-if batches reach the array kernel.

The kernel covers what its callers send: node calibration, one call
per hardware class, and the exhaustive oracle's grid, each on one
CPU-only class.  A class of more than six nodes makes one kernel call;
a GPU fleet's calibration, a small class and a batch that sets
``phase_threads`` make none and still equal ``run`` bit for bit; and
the kernel called directly refuses what it does not cover -- a GPU
class, a batch spanning classes, a phase override -- instead of
ignoring the device, the second class or the override.
"""

import pytest

from repro.baselines.optimal import OracleScheduler
from repro.core.coordination import measure_node_factors
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import (
    gpu_testbed,
    haswell_testbed,
    mixed_gpu_testbed,
    mixed_testbed,
)
from repro.sim.batch import BatchEvaluator
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import get_app
from tests.sim.test_batch import assert_identical


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The batch size of every ``BatchEvaluator._evaluate`` call."""
    calls = []
    original = BatchEvaluator._evaluate

    def counted(self, app, configs):
        calls.append(len(configs))
        return original(self, app, configs)

    monkeypatch.setattr(BatchEvaluator, "_evaluate", counted)
    return calls


@pytest.fixture()
def what_ifs(monkeypatch):
    """Record every float what-if batch an engine answers."""

    def watch(engine):
        seen = []
        original = engine._what_if

        def recorded(app, configs):
            results = original(app, configs)
            seen.append((app, configs, results))
            return results

        monkeypatch.setattr(engine, "_what_if", recorded)
        return seen

    return watch


def _engine(spec):
    return ExecutionEngine(SimulatedCluster(spec), seed=42)


class TestKernelTraffic:
    def test_fleet_calibration_is_one_kernel_call(self, kernel_calls):
        measure_node_factors(_engine(haswell_testbed(racks=128)))
        assert kernel_calls == [1024]

    def test_mixed_fleet_calibration_is_one_kernel_call_per_class(
        self, kernel_calls
    ):
        measure_node_factors(_engine(mixed_testbed(racks=128)))
        assert kernel_calls == [512, 512]

    def test_oracle_grid_is_one_kernel_call(self, kernel_calls):
        oracle = OracleScheduler(_engine(haswell_testbed()))
        oracle.plan(get_app("comd"), 1200.0)
        assert kernel_calls == [oracle.search_stats["evaluated"]]


class TestFloatTraffic:
    @pytest.mark.parametrize("factory", [gpu_testbed, mixed_gpu_testbed])
    def test_gpu_calibration_skips_the_kernel(
        self, factory, kernel_calls, what_ifs
    ):
        engine = _engine(factory())
        seen = what_ifs(engine)
        measure_node_factors(engine)
        assert kernel_calls == []
        # one batch per hardware class: the gpu testbed's one class of
        # 8 nodes, the mixed-gpu testbed's two classes of 4
        spec = engine.cluster.spec
        assert [sum(c.n_nodes for c in configs) for _, configs, _ in seen] == [
            spec.slot_class.count(k) for k in range(len(spec.node_classes))
        ]
        executed = _engine(factory())
        for app, configs, results in seen:
            for cfg, result in zip(configs, results):
                assert_identical(result, executed.run(app, cfg))

    def test_small_class_calibration_skips_the_kernel(
        self, kernel_calls, what_ifs
    ):
        engine = _engine(mixed_testbed())
        seen = what_ifs(engine)
        measure_node_factors(engine)
        assert kernel_calls == []
        # four one-node configs per class, at most FLOAT_PATH_MAX_CELLS
        assert [len(configs) for _, configs, _ in seen] == [4, 4]

    def test_phase_override_batch_skips_the_kernel(self, kernel_calls):
        engine = _engine(haswell_testbed())
        app = get_app("bt-mz.C")
        configs = [
            ExecutionConfig(n_nodes=4, n_threads=16, iterations=2),
            ExecutionConfig(
                n_nodes=4, n_threads=16, iterations=2,
                phase_threads={"solve": 8},
            ),
        ]
        results = engine.evaluate_many(app, configs)
        assert kernel_calls == []
        for cfg, result in zip(configs, results):
            assert_identical(result, engine.run(app, cfg))


class TestKernelRefusesOutsideItsDomain:
    @pytest.mark.parametrize("factory", [gpu_testbed, mixed_gpu_testbed])
    def test_gpu_fleet(self, factory):
        engine = _engine(factory())
        # slots 0-3 carry a GPU on both testbeds
        cfg = ExecutionConfig(n_nodes=4, n_threads=12, iterations=2)
        with pytest.raises(ValueError, match="one CPU-only hardware class"):
            BatchEvaluator(engine)._evaluate(get_app("lulesh-gpu"), [cfg])

    def test_class_spanning_batch(self, kernel_calls):
        engine = _engine(mixed_testbed())
        haswell = ExecutionConfig(n_nodes=4, n_threads=12, iterations=2)
        broadwell = ExecutionConfig(
            n_nodes=4, n_threads=12, node_ids=(4, 5, 6, 7), iterations=2
        )
        with pytest.raises(ValueError, match="one CPU-only hardware class"):
            BatchEvaluator(engine)._evaluate(get_app("comd"), [haswell, broadwell])
        # evaluate_many answers the same batch on the float path
        results = engine.evaluate_many(get_app("comd"), [haswell, broadwell])
        assert kernel_calls == [2]  # the refused direct call only
        for cfg, result in zip((haswell, broadwell), results):
            assert_identical(result, engine.run(get_app("comd"), cfg))

    def test_phase_override(self):
        engine = _engine(haswell_testbed())
        cfg = ExecutionConfig(
            n_nodes=8, n_threads=16, iterations=2, phase_threads={"solve": 8}
        )
        with pytest.raises(ValueError, match="phase_threads"):
            BatchEvaluator(engine)._evaluate(get_app("bt-mz.C"), [cfg])
