"""Batched evaluation: exact equivalence with the scalar path + memoization.

The batch evaluator's contract is *bit-exact* agreement with
``ExecutionEngine.run`` — every ``RunResult`` field, including the
synthesized PMU counters, must match the scalar path exactly (the
ISSUE's 1e-9 tolerance is the ceiling; the implementation achieves
equality).  The cache tests pin the memoization semantics: keys cover
the application, the full configuration, the engine seed, and the
current per-node efficiency factors, so fault injection and reseeding
invalidate naturally.
"""

import dataclasses

import pytest

from repro.errors import NodeFailureError
from repro.hw.cluster import SimulatedCluster
from repro.hw.numa import AffinityKind
from repro.sim.batch import BatchEvaluator, RunCache, config_cache_key
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import get_app


def assert_identical(batch, scalar):
    """Field-by-field exact comparison with a readable failure message."""
    assert batch.app_name == scalar.app_name
    assert batch.n_nodes == scalar.n_nodes
    assert len(batch.nodes) == len(scalar.nodes)
    for b, s in zip(batch.nodes, scalar.nodes):
        for field in dataclasses.fields(s):
            bv = getattr(b, field.name)
            sv = getattr(s, field.name)
            assert bv == sv, (
                f"node {s.node_id}: {field.name} differs: {bv!r} != {sv!r}"
            )
    for field in dataclasses.fields(scalar):
        bv = getattr(batch, field.name)
        sv = getattr(scalar, field.name)
        assert bv == sv, f"{field.name} differs: {bv!r} != {sv!r}"


EQUIVALENCE_CASES = [
    # (app, config) — one per distinct code path in the array program.
    ("sp-mz.C", ExecutionConfig(n_nodes=4, n_threads=12, iterations=3)),
    (
        "stream",
        ExecutionConfig(
            n_nodes=2,
            n_threads=24,
            affinity=AffinityKind.SCATTER,
            pkg_cap_w=100.0,
            dram_cap_w=30.0,
            iterations=2,
        ),
    ),
    (
        "ep.C",  # tight PKG cap: duty-cycle fallback path
        ExecutionConfig(
            n_nodes=1, n_threads=24, pkg_cap_w=45.0, iterations=2
        ),
    ),
    (
        "comd",  # tight DRAM cap: bandwidth throttling path
        ExecutionConfig(
            n_nodes=3, n_threads=8, dram_cap_w=22.5, iterations=2
        ),
    ),
    (
        "bt-mz.C",  # multi-phase app with a per-phase thread override
        ExecutionConfig(
            n_nodes=4,
            n_threads=16,
            iterations=2,
            phase_threads={"solve": 8},
        ),
    ),
    (
        "tealeaf",  # pinned frequency + compact packing
        ExecutionConfig(
            n_nodes=2,
            n_threads=6,
            affinity=AffinityKind.COMPACT,
            frequency_hz=1.2e9,
            iterations=2,
        ),
    ),
    (
        "sp-mz.C",  # weak scaling
        ExecutionConfig(
            n_nodes=8, n_threads=12, scaling="weak", iterations=2
        ),
    ),
    (
        "amg",  # heterogeneous per-node caps + explicit node choice
        ExecutionConfig(
            n_nodes=2,
            n_threads=12,
            per_node_caps=((110.0, 32.0), (90.0, 28.0)),
            node_ids=(5, 2),
            iterations=2,
        ),
    ),
    ("ep.C", ExecutionConfig(n_nodes=1, n_threads=1, iterations=2)),
]


class TestExactEquivalence:
    @pytest.mark.parametrize(
        "app_name,config",
        EQUIVALENCE_CASES,
        ids=[f"{a}-{i}" for i, (a, _) in enumerate(EQUIVALENCE_CASES)],
    )
    def test_batch_matches_scalar(self, engine, app_name, config):
        app = get_app(app_name)
        scalar = engine.run(app, config)
        (batch,) = engine.evaluate_many(app, [config])
        assert_identical(batch, scalar)

    def test_full_candidate_set_in_one_call(self, engine):
        """Many heterogeneous configs in one array program all match."""
        app = get_app("sp-mz.C")
        configs = [cfg for _, cfg in EQUIVALENCE_CASES]
        batch = engine.evaluate_many(app, configs)
        for cfg, b in zip(configs, batch):
            assert_identical(b, engine.run(app, cfg))

    def test_evaluate_single(self, engine):
        app = get_app("comd")
        cfg = ExecutionConfig(n_nodes=2, n_threads=8, iterations=2)
        assert_identical(engine.evaluate(app, cfg), engine.run(app, cfg))

    def test_order_independence(self, engine):
        """Results depend only on the config, not its batch position."""
        app = get_app("stream")
        configs = [
            ExecutionConfig(n_nodes=n, n_threads=12, iterations=2)
            for n in (1, 2, 4, 8)
        ]
        forward = engine.evaluate_many(app, configs)
        backward = engine.evaluate_many(app, configs[::-1])
        for f, b in zip(forward, backward[::-1]):
            assert_identical(f, b)

    def test_degraded_cluster_matches(self):
        """Node-variability factors flow through the batch path too."""
        cluster = SimulatedCluster.testbed()
        cluster.degrade_node(3, 1.08)
        engine = ExecutionEngine(cluster, seed=42)
        app = get_app("sp-mz.C")
        cfg = ExecutionConfig(n_nodes=8, n_threads=12, iterations=2)
        assert_identical(engine.evaluate(app, cfg), engine.run(app, cfg))


#: Configs straddling the Haswell/Broadwell boundary of the mixed fleet
#: (slots 0-3 Haswell, 4-7 Broadwell): cross-class spans, class-pure
#: subsets, pinned frequency quantized on two different ladders, and
#: per-node caps clipped against two different domain maxima.
MIXED_CASES = [
    ("sp-mz.C", ExecutionConfig(n_nodes=8, n_threads=12, iterations=2)),
    ("stream", ExecutionConfig(n_nodes=6, n_threads=24, iterations=2)),
    (
        "comd",  # Broadwell-only span
        ExecutionConfig(
            n_nodes=3, n_threads=16, node_ids=(4, 6, 7), iterations=2
        ),
    ),
    (
        "ep.C",  # cross-class span with interleaved slot order
        ExecutionConfig(
            n_nodes=4, n_threads=8, node_ids=(1, 5, 2, 6), iterations=2
        ),
    ),
    (
        "tealeaf",  # pinned frequency hits both DVFS ladders
        ExecutionConfig(
            n_nodes=8, n_threads=6, frequency_hz=1.9e9, iterations=2
        ),
    ),
    (
        "amg",  # per-node caps across the class boundary
        ExecutionConfig(
            n_nodes=4,
            n_threads=12,
            per_node_caps=((110.0, 32.0), (90.0, 28.0), (120.0, 35.0), (95.0, 30.0)),
            node_ids=(2, 3, 4, 5),
            affinity=AffinityKind.SCATTER,
            iterations=2,
        ),
    ),
]


class TestMixedClusterEquivalence:
    """Bit-exact batch/scalar agreement on the heterogeneous fleet."""

    @pytest.fixture()
    def mixed_engine(self):
        return ExecutionEngine(SimulatedCluster.mixed_testbed(), seed=42)

    @pytest.mark.parametrize(
        "app_name,config",
        MIXED_CASES,
        ids=[f"{a}-{i}" for i, (a, _) in enumerate(MIXED_CASES)],
    )
    def test_batch_matches_scalar(self, mixed_engine, app_name, config):
        app = get_app(app_name)
        scalar = mixed_engine.run(app, config)
        (batch,) = mixed_engine.evaluate_many(app, [config])
        assert_identical(batch, scalar)

    def test_full_mixed_candidate_set_in_one_call(self, mixed_engine):
        app = get_app("sp-mz.C")
        configs = [cfg for _, cfg in MIXED_CASES]
        batch = mixed_engine.evaluate_many(app, configs)
        for cfg, b in zip(configs, batch):
            assert_identical(b, mixed_engine.run(app, cfg))

    def test_thread_count_validated_against_smallest_class(self, mixed_engine):
        from repro.errors import SchedulingError

        app = get_app("comd")
        # 40 threads fit the Broadwell slots but not the Haswell ones
        cfg = ExecutionConfig(
            n_nodes=2, n_threads=40, node_ids=(3, 4), iterations=2
        )
        with pytest.raises(SchedulingError, match="24 cores"):
            mixed_engine.evaluate_many(app, [cfg])
        # a Broadwell-only span accepts the same thread count
        wide = ExecutionConfig(
            n_nodes=2, n_threads=40, node_ids=(4, 5), iterations=2
        )
        assert_identical(
            mixed_engine.evaluate_many(app, [wide])[0],
            mixed_engine.run(app, wide),
        )


class TestConfigCacheKey:
    def test_equal_configs_equal_keys(self):
        a = ExecutionConfig(n_nodes=2, n_threads=8, phase_threads={"x": 4})
        b = ExecutionConfig(n_nodes=2, n_threads=8, phase_threads={"x": 4})
        assert config_cache_key(a) == config_cache_key(b)

    def test_distinct_configs_distinct_keys(self):
        base = ExecutionConfig(n_nodes=2, n_threads=8)
        for other in (
            ExecutionConfig(n_nodes=3, n_threads=8),
            ExecutionConfig(n_nodes=2, n_threads=8, pkg_cap_w=90.0),
            ExecutionConfig(n_nodes=2, n_threads=8, scaling="weak"),
            ExecutionConfig(n_nodes=2, n_threads=8, phase_threads={"x": 4}),
        ):
            assert config_cache_key(base) != config_cache_key(other)

    def test_key_is_hashable(self):
        cfg = ExecutionConfig(n_nodes=2, n_threads=8, phase_threads={"x": 4})
        hash(config_cache_key(cfg))


class TestRunCache:
    def test_run_hits_after_miss(self, cluster):
        cache = RunCache()
        engine = ExecutionEngine(cluster, seed=42, cache=cache)
        app = get_app("comd")
        cfg = ExecutionConfig(n_nodes=2, n_threads=8, iterations=2)
        first = engine.run(app, cfg)
        assert (cache.hits, cache.misses) == (0, 1)
        second = engine.run(app, cfg)
        assert (cache.hits, cache.misses) == (1, 1)
        assert second is first  # the memoized object itself

    def test_cached_equals_uncached_across_apps(self, cluster):
        cached_engine = ExecutionEngine(
            SimulatedCluster.testbed(), seed=42, cache=RunCache()
        )
        plain_engine = ExecutionEngine(cluster, seed=42)
        for name in ("sp-mz.C", "stream"):
            app = get_app(name)
            for cfg in (
                ExecutionConfig(n_nodes=2, n_threads=8, iterations=2),
                ExecutionConfig(
                    n_nodes=4, n_threads=12, dram_cap_w=30.0, iterations=2
                ),
            ):
                cached_engine.run(app, cfg)  # prime
                assert_identical(
                    cached_engine.run(app, cfg), plain_engine.run(app, cfg)
                )

    def test_batch_and_scalar_share_entries(self, cluster):
        cache = RunCache()
        engine = ExecutionEngine(cluster, seed=42, cache=cache)
        app = get_app("ep.C")
        cfg = ExecutionConfig(n_nodes=1, n_threads=12, iterations=2)
        scalar = engine.run(app, cfg)
        (batch,) = engine.evaluate_many(app, [cfg])
        assert batch is scalar  # evaluate_many served from run()'s entry
        assert cache.hits == 1

    def test_seed_invalidates(self):
        cache = RunCache()
        app = get_app("comd")
        cfg = ExecutionConfig(n_nodes=2, n_threads=8, iterations=2)
        a = ExecutionEngine(SimulatedCluster.testbed(), seed=42, cache=cache)
        b = ExecutionEngine(SimulatedCluster.testbed(), seed=43, cache=cache)
        a.run(app, cfg)
        b.run(app, cfg)
        assert cache.misses == 2 and cache.hits == 0
        assert len(cache) == 2

    def test_degrade_invalidates(self, cluster):
        cache = RunCache()
        engine = ExecutionEngine(cluster, seed=42, cache=cache)
        app = get_app("comd")
        cfg = ExecutionConfig(n_nodes=2, n_threads=8, iterations=2)
        before = engine.run(app, cfg)
        cluster.degrade_node(0, 1.10)
        after = engine.run(app, cfg)
        assert cache.misses == 2 and cache.hits == 0
        assert after.energy_j != before.energy_j

    def test_hit_does_not_bypass_validation(self, cluster):
        """A run cached before a node failed must not answer after it.

        The key leaves out the failed set, so the availability check
        has to run before the lookup, as on an uncached engine.
        """
        engine = ExecutionEngine(cluster, seed=42, cache=RunCache())
        plain = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        app = get_app("comd")
        cfg = ExecutionConfig(n_nodes=4, n_threads=12)
        first = engine.run(app, cfg)
        cluster.fail_node(1)
        plain.cluster.fail_node(1)
        with pytest.raises(NodeFailureError):
            plain.run(app, cfg)
        with pytest.raises(NodeFailureError):
            engine.run(app, cfg)
        # what-if evaluation keeps ignoring availability
        assert engine.evaluate(app, cfg) is first
        cluster.recover_node(1)
        assert engine.run(app, cfg) is first

    def test_stats_and_clear(self, cluster):
        cache = RunCache()
        engine = ExecutionEngine(cluster, seed=42, cache=cache)
        app = get_app("stream")
        cfg = ExecutionConfig(n_nodes=1, n_threads=8, iterations=2)
        engine.run(app, cfg)
        engine.run(app, cfg)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hit_rate"] == 0.0

    def test_bounded_eviction(self, cluster):
        cache = RunCache(max_entries=2)
        engine = ExecutionEngine(cluster, seed=42, cache=cache)
        app = get_app("ep.C")
        for n in (1, 2, 3):
            engine.run(
                app, ExecutionConfig(n_nodes=n, n_threads=4, iterations=2)
            )
        assert len(cache) <= 2  # overflow emptied the table

    def test_no_cache_by_default(self, engine):
        assert engine.cache is None
        evaluator = BatchEvaluator(engine)
        app = get_app("ep.C")
        cfg = ExecutionConfig(n_nodes=1, n_threads=4, iterations=2)
        a = evaluator.run_many(app, [cfg])[0]
        b = evaluator.run_many(app, [cfg])[0]
        assert a is not b  # recomputed, not memoized
        assert_identical(a, b)


#: GPU-fleet configs: uncapped offload, a device throttle, three-entry
#: per-node caps, a host-only app paying idle board power, and a pinned
#: frequency alongside an active device.
GPU_CASES = [
    ("lulesh-gpu", ExecutionConfig(n_nodes=4, n_threads=12, iterations=2)),
    (
        "minife-gpu",  # uniform device throttle (low ladder level)
        ExecutionConfig(n_nodes=2, n_threads=12, gpu_cap_w=60.0, iterations=2),
    ),
    (
        "hpgmg-gpu",  # heterogeneous three-domain caps + node choice
        ExecutionConfig(
            n_nodes=2,
            n_threads=12,
            per_node_caps=((110.0, 32.0, 120.0), (95.0, 28.0, 75.0)),
            node_ids=(5, 2),
            iterations=2,
        ),
    ),
    (
        "comd",  # host-only app on GPU nodes: idle board draw path
        ExecutionConfig(n_nodes=2, n_threads=8, iterations=2),
    ),
    (
        "lulesh-gpu",  # pinned host frequency with an active device
        ExecutionConfig(
            n_nodes=2, n_threads=6, frequency_hz=1.9e9, iterations=2
        ),
    ),
]

#: Mixed CPU+GPU fleet (slots 0-3 GPU, 4-7 CPU-only): cross-class
#: spans and mixed-arity per-node caps in one batch.
MIXED_GPU_CASES = [
    ("lulesh-gpu", ExecutionConfig(n_nodes=8, n_threads=12, iterations=2)),
    (
        "minife-gpu",  # cross-class span, interleaved slot order
        ExecutionConfig(
            n_nodes=4, n_threads=8, node_ids=(1, 5, 2, 6), iterations=2
        ),
    ),
    (
        "stream",  # CPU-only span of the mixed fleet
        ExecutionConfig(
            n_nodes=3, n_threads=16, node_ids=(4, 6, 7), iterations=2
        ),
    ),
    (
        "hpgmg-gpu",  # 3-entry caps on GPU slots, 2-entry on CPU slots
        ExecutionConfig(
            n_nodes=4,
            n_threads=12,
            per_node_caps=(
                (110.0, 32.0, 120.0),
                (95.0, 28.0, 80.0),
                (120.0, 35.0),
                (100.0, 30.0),
            ),
            node_ids=(0, 1, 4, 5),
            iterations=2,
        ),
    ),
]


class TestGpuEquivalence:
    """Bit-exact batch/scalar agreement on accelerator fleets."""

    @pytest.fixture(scope="class")
    def gpu_engine(self):
        from repro.hw.specs import gpu_testbed

        return ExecutionEngine(SimulatedCluster(gpu_testbed()), seed=42)

    @pytest.fixture(scope="class")
    def mixed_gpu_engine(self):
        from repro.hw.specs import mixed_gpu_testbed

        return ExecutionEngine(SimulatedCluster(mixed_gpu_testbed()), seed=42)

    @pytest.mark.parametrize(
        "app_name,config",
        GPU_CASES,
        ids=[f"{a}-{i}" for i, (a, _) in enumerate(GPU_CASES)],
    )
    def test_batch_matches_scalar_on_gpu_fleet(
        self, gpu_engine, app_name, config
    ):
        app = get_app(app_name)
        scalar = gpu_engine.run(app, config)
        (batch,) = gpu_engine.evaluate_many(app, [config])
        assert_identical(batch, scalar)

    @pytest.mark.parametrize(
        "app_name,config",
        MIXED_GPU_CASES,
        ids=[f"{a}-{i}" for i, (a, _) in enumerate(MIXED_GPU_CASES)],
    )
    def test_batch_matches_scalar_on_mixed_gpu_fleet(
        self, mixed_gpu_engine, app_name, config
    ):
        app = get_app(app_name)
        scalar = mixed_gpu_engine.run(app, config)
        (batch,) = mixed_gpu_engine.evaluate_many(app, [config])
        assert_identical(batch, scalar)

    def test_full_gpu_candidate_set_in_one_call(self, gpu_engine):
        app = get_app("lulesh-gpu")
        configs = [cfg for _, cfg in GPU_CASES if cfg.per_node_caps is None]
        batch = gpu_engine.evaluate_many(app, configs)
        for cfg, b in zip(configs, batch):
            assert_identical(b, gpu_engine.run(app, cfg))

    def test_gpu_energy_accounted(self, gpu_engine):
        """Offloaded runs draw measurably more than the idle board."""
        cfg = ExecutionConfig(n_nodes=2, n_threads=12, iterations=2)
        busy = gpu_engine.run(get_app("lulesh-gpu"), cfg)
        idle = gpu_engine.run(get_app("comd"), cfg)
        assert busy.nodes[0].avg_gpu_w > idle.nodes[0].avg_gpu_w
        assert busy.nodes[0].gpu_busy_fraction > 0.3
        assert idle.nodes[0].gpu_busy_fraction == 0.0
