"""What-if evaluation: exact equivalence with ``run``.

``evaluate_many`` answers on two paths: large batches of one CPU-only
hardware class run the vectorized array kernel, everything else the
engine's own float code as a what-if.  Both must agree *bit-exactly*
with ``ExecutionEngine.run`` — every ``RunResult`` field, including the
synthesized PMU counters — so the equivalence cases check the public
call and the kernel called directly (which refuses inputs outside its
domain), a property checks the float what-if against the kernel on
one-class configs and against ``run`` on class-spanning ones, error for
error, and another checks it against ``run`` on the GPU fleets.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import SchedulingError
from repro.hw.cluster import SimulatedCluster
from repro.hw.numa import AffinityKind
from repro.hw.specs import (
    gpu_testbed,
    haswell_testbed,
    mixed_gpu_testbed,
    mixed_testbed,
)
from repro.sim.batch import FLOAT_PATH_MAX_CELLS, BatchEvaluator
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.workloads.apps import GPU_APPS, all_apps, get_app


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


def kernel(engine, app, config):
    """One config through the array kernel, bypassing the path choice."""
    return BatchEvaluator(engine)._evaluate(app, [config])[0]


def in_kernel_domain(engine, config):
    """Whether the array kernel covers *config*: every slot it names
    belongs to one hardware class without a GPU, and no phase override.

    Slots outside the cluster are left out: both paths raise on them.
    """
    spec = engine.cluster.spec
    ids = range(config.n_nodes) if config.node_ids is None else config.node_ids
    classes = {spec.slot_class[i] for i in ids if i < spec.n_nodes}
    return (
        len(classes) == 1
        and not spec.node_classes[classes.pop()].has_gpu
        and not config.phase_threads
    )


def assert_all_paths_match_run(engine, app, config):
    """``run``, ``evaluate_many`` and the kernel give the same bits.

    Outside the kernel's domain (a GPU class, a class-spanning config,
    a phase override) the kernel refuses the config instead.
    """
    scalar = engine.run(app, config)
    (batch,) = engine.evaluate_many(app, [config])
    assert_identical(batch, scalar)
    if in_kernel_domain(engine, config):
        assert_identical(kernel(engine, app, config), scalar)
    else:
        with pytest.raises(ValueError, match="array kernel"):
            kernel(engine, app, config)


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
        "sp-mz.C",  # every node of the testbed
        ExecutionConfig(n_nodes=8, n_threads=12, iterations=2),
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
        assert_all_paths_match_run(engine, get_app(app_name), config)

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
        assert_identical(engine.evaluate_many(app, [cfg])[0], engine.run(app, cfg))
        assert_identical(kernel(engine, app, cfg), engine.run(app, cfg))

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
        assert_identical(engine.evaluate_many(app, [cfg])[0], engine.run(app, cfg))
        one = ExecutionConfig(n_nodes=1, n_threads=12, node_ids=(3,))
        assert_all_paths_match_run(engine, app, one)


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
        assert_all_paths_match_run(mixed_engine, get_app(app_name), config)

    def test_full_mixed_candidate_set_in_one_call(self, mixed_engine):
        app = get_app("sp-mz.C")
        configs = [cfg for _, cfg in MIXED_CASES]
        batch = mixed_engine.evaluate_many(app, configs)
        for cfg, b in zip(configs, batch):
            assert_identical(b, mixed_engine.run(app, cfg))

    def test_thread_count_validated_against_smallest_class(self, mixed_engine):
        app = get_app("comd")
        # 40 threads fit the Broadwell slots but not the Haswell ones
        cfg = ExecutionConfig(
            n_nodes=2, n_threads=40, node_ids=(3, 4), iterations=2
        )
        with pytest.raises(SchedulingError, match="24 cores"):
            mixed_engine.evaluate_many(app, [cfg])
        with pytest.raises(SchedulingError, match="24 cores"):
            kernel(mixed_engine, app, cfg)
        # a Broadwell-only span accepts the same thread count
        wide = ExecutionConfig(
            n_nodes=2, n_threads=40, node_ids=(4, 5), iterations=2
        )
        assert_identical(
            mixed_engine.evaluate_many(app, [wide])[0],
            mixed_engine.run(app, wide),
        )


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
        assert_all_paths_match_run(gpu_engine, get_app(app_name), config)

    @pytest.mark.parametrize(
        "app_name,config",
        MIXED_GPU_CASES,
        ids=[f"{a}-{i}" for i, (a, _) in enumerate(MIXED_GPU_CASES)],
    )
    def test_batch_matches_scalar_on_mixed_gpu_fleet(
        self, mixed_gpu_engine, app_name, config
    ):
        assert_all_paths_match_run(mixed_gpu_engine, get_app(app_name), config)

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


class TestPathSelection:
    """Small batches take the float what-if, larger ones the kernel."""

    @pytest.fixture()
    def paths(self, engine, monkeypatch):
        """Record which path each ``evaluate_many`` call took."""
        taken = []
        what_if = engine._what_if
        array = BatchEvaluator._evaluate

        def float_path(app, configs):
            taken.append(("float", sum(c.n_nodes for c in configs)))
            return what_if(app, configs)

        def kernel_path(self, app, configs):
            taken.append(("kernel", sum(c.n_nodes for c in configs)))
            return array(self, app, configs)

        monkeypatch.setattr(engine, "_what_if", float_path)
        monkeypatch.setattr(BatchEvaluator, "_evaluate", kernel_path)
        return taken

    def test_both_sides_of_the_crossover(self, engine, paths):
        app = get_app("comd")
        at_limit = [
            ExecutionConfig(n_nodes=1, n_threads=4 + i, iterations=2)
            for i in range(FLOAT_PATH_MAX_CELLS)
        ]
        over_limit = at_limit + [
            ExecutionConfig(n_nodes=1, n_threads=2, iterations=2)
        ]
        for configs in (at_limit, over_limit):
            results = engine.evaluate_many(app, configs)
            for cfg, result in zip(configs, results):
                assert_identical(result, engine.run(app, cfg))
        assert paths == [
            ("float", FLOAT_PATH_MAX_CELLS),
            ("kernel", FLOAT_PATH_MAX_CELLS + 1),
        ]

    def test_counts_node_cells_not_configs(self, engine, paths):
        app = get_app("sp-mz.C")
        cfg = ExecutionConfig(n_nodes=FLOAT_PATH_MAX_CELLS + 1, n_threads=12)
        assert_identical(engine.evaluate_many(app, [cfg])[0], engine.run(app, cfg))
        assert paths == [("kernel", FLOAT_PATH_MAX_CELLS + 1)]

    def test_errors_match_and_store_nothing(self, engine):
        app = get_app("comd")
        ok = ExecutionConfig(n_nodes=1, n_threads=8)
        too_wide = ExecutionConfig(n_nodes=1, n_threads=25)
        with pytest.raises(SchedulingError, match="25 threads"):
            engine.evaluate_many(app, [ok, too_wide])
        with pytest.raises(SchedulingError, match="25 threads"):
            kernel(engine, app, too_wide)


#: The four testbed kinds, each with one degraded node, for the
#: float-vs-kernel property on the CPU fleets and the float-vs-run one
#: on the GPU fleets (built once: no what-if mutates them, and each
#: ``run`` reprograms every cap it reads).
_PROPERTY_TESTBEDS = {
    "haswell": haswell_testbed,
    "mixed": mixed_testbed,
    "gpu": gpu_testbed,
    "mixed-gpu": mixed_gpu_testbed,
}
_PROPERTY_ENGINES: dict = {}


def _property_engine(name):
    if name not in _PROPERTY_ENGINES:
        cluster = SimulatedCluster(_PROPERTY_TESTBEDS[name]())
        cluster.degrade_node(cluster.n_nodes - 2, 1.09)
        _PROPERTY_ENGINES[name] = ExecutionEngine(cluster, seed=7)
    return _PROPERTY_ENGINES[name]


_APPS = tuple(all_apps()) + tuple(GPU_APPS)
_opt_cap = lambda lo, hi: st.none() | st.floats(lo, hi)  # noqa: E731


@st.composite
def what_if_cases(
    draw,
    testbeds=("haswell", "mixed"),
    phases=False,
    flaws=("nodes", "threads", "node_id", "cap"),
):
    """(engine, app, config) drawn over every knob the kernel handles.

    On a fleet of several hardware classes, about half the draws take
    their nodes from one class, and the rest from the whole fleet.
    About one draw in five carries one of *flaws* on purpose: too many
    nodes or threads, an out-of-range node id, a negative cap, or a
    phase override wider than the node.  The defaults draw no phase
    overrides and only CPU fleets.
    """
    engine = _property_engine(draw(st.sampled_from(testbeds)))
    cluster = engine.cluster
    slot_class = cluster.spec.slot_class
    slots = range(cluster.n_nodes)
    if len(cluster.spec.node_classes) > 1 and draw(st.booleans()):
        k = draw(st.integers(0, len(cluster.spec.node_classes) - 1))
        slots = [i for i in slots if slot_class[i] == k]
    max_cores = max(cluster.spec.node_specs[i].n_cores for i in slots)
    flaw = draw(st.sampled_from((None,) * 16 + tuple(flaws)))
    app = draw(st.sampled_from(_APPS))
    n_nodes = draw(st.integers(1, len(slots)))
    n_threads = draw(st.integers(1, max_cores))
    node_ids = None
    if len(slots) < cluster.n_nodes or draw(st.booleans()):
        node_ids = tuple(draw(st.permutations(slots))[:n_nodes])
    caps = {}
    if draw(st.booleans()):
        caps["per_node_caps"] = tuple(
            (draw(st.floats(15.0, 320.0)), draw(st.floats(2.0, 70.0)))
            + ((draw(st.floats(20.0, 700.0)),) if draw(st.booleans()) else ())
            for _ in range(n_nodes)
        )
    else:
        caps["pkg_cap_w"] = draw(_opt_cap(15.0, 320.0))
        caps["dram_cap_w"] = draw(_opt_cap(2.0, 70.0))
        caps["gpu_cap_w"] = draw(_opt_cap(20.0, 700.0))
    phase_threads = {}
    if phases and len(app.effective_phases()) > 1 and draw(st.booleans()):
        phase = draw(st.sampled_from(app.effective_phases())).name
        phase_threads = {phase: draw(st.integers(1, n_threads))}
    if flaw == "nodes":
        n_nodes, node_ids, caps = cluster.n_nodes + 1, None, {}
    elif flaw == "threads":
        n_threads = max_cores + 1
    elif flaw == "node_id":
        node_ids = (node_ids or tuple(range(n_nodes)))[:-1] + (cluster.n_nodes,)
    elif flaw == "cap":
        caps = {"gpu_cap_w": -1.0}
    elif flaw == "phase":
        phase_threads = {app.effective_phases()[0].name: max_cores + 1}
    config = ExecutionConfig(
        n_nodes=n_nodes,
        n_threads=n_threads,
        affinity=draw(st.none() | st.sampled_from(list(AffinityKind))),
        node_ids=node_ids,
        frequency_hz=draw(st.none() | st.floats(0.8e9, 3.6e9)),
        iterations=draw(st.none() | st.integers(1, 3)),
        phase_threads=phase_threads,
        **caps,
    )
    return engine, app, config


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # compared by type across the two paths
        return type(exc)


class TestFloatWhatIfMatchesKernel:
    """The float what-if and the array kernel: bit for bit, error for
    error, on both CPU testbed kinds with a degraded node.  A config
    that spans the mixed fleet's classes is outside the kernel's
    domain, so there the float what-if is checked against ``run``."""

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=what_if_cases())
    def test_float_what_if_equals_kernel(self, case):
        engine, app, config = case
        floats = _outcome(lambda: engine._what_if(app, [config])[0])
        if in_kernel_domain(engine, config):
            other = _outcome(lambda: kernel(engine, app, config))
        elif config.gpu_cap_w is not None and config.gpu_cap_w < 0:
            # run checks a cap only as it programs one, and a CPU node
            # has no GPU domain to program: the what-if alone refuses it
            other = ValueError
        else:
            other = _outcome(lambda: engine.run(app, config))
        if isinstance(floats, type) or isinstance(other, type):
            assert floats is other
        else:
            assert_identical(floats, other)


class TestFloatWhatIfMatchesRunOnGpuFleets:
    """Off the kernel, GPU what-ifs are still checked against execution:
    the float what-if equals ``run`` bit for bit, error for error, on
    both accelerator testbeds with a degraded node and phase overrides.
    ``run`` checks a GPU cap only on a node that has the domain, so the
    negative-cap flaw stays with the float-vs-kernel property."""

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        case=what_if_cases(
            testbeds=("gpu", "mixed-gpu"),
            phases=True,
            flaws=("nodes", "threads", "node_id", "phase"),
        )
    )
    def test_float_what_if_equals_run(self, case):
        engine, app, config = case
        floats = _outcome(lambda: engine._what_if(app, [config])[0])
        executed = _outcome(lambda: engine.run(app, config))
        if isinstance(floats, type) or isinstance(executed, type):
            assert floats is executed
        else:
            assert_identical(floats, executed)
