"""Tests for the fleet cap bank (:class:`repro.hw.rapl.CapBank`).

Covers the four contracts the bank's array commit must keep:

* arity — a cap tuple whose length is not the node's domain count is
  rejected before any node is written, per node and per cap set;
* equivalence — over thousands of seeded random commits (mixed CPU/GPU
  arities, perfect and faulty rows, ``force``, failures at row *k*) the
  bank leaves exactly the state the per-node commit loop it replaced
  leaves: programmed and enforced caps, ``actuation_stats``, each
  policy's RNG state and the exception text;
* lifecycle — a slot's row is clean after ``degrade_node``,
  ``recover_node`` and ``cluster.reset()`` (the first two also zero the
  energy and throttle counters, the reset keeps them counting), and a
  node built on its own keeps working on a bank of its own;
* types — every view reads back Python ``float`` / ``None``, never a
  NumPy scalar, because journal and JSON bytes depend on it.
"""

import math
import random

import numpy as np
import pytest

from repro.errors import ActuationError, PowerDomainError
from repro.hw.actuation import PERFECT_ACTUATION, FaultyActuation
from repro.hw.cluster import SimulatedCluster
from repro.hw.meter import TelemetryFault
from repro.hw.node import SimulatedNode
from repro.hw.rapl import CapBank, Domain
from repro.hw.specs import ClusterSpec, NodeGroup, gpu_node, haswell_node

#: GPU slots first, then CPU-only slots: both cap arities in one bank.
N_GPU, N_CPU = 5, 7


def fleet() -> SimulatedCluster:
    return SimulatedCluster(
        ClusterSpec(
            "mixed-gpu",
            groups=(NodeGroup(gpu_node(), N_GPU), NodeGroup(haswell_node(), N_CPU)),
        )
    )


def arity(cluster: SimulatedCluster, node_id: int) -> int:
    return 3 if cluster.node(node_id).spec.has_gpu else 2


def reference_commit(cluster, node_ids, caps, force=False) -> None:
    """The per-node commit loop the bank replaced
    (``PowerBoundedRuntime._commit_caps`` before the bank), verbatim."""
    snapshots = []
    try:
        for node_id, cap in zip(node_ids, caps):
            rapl = cluster.node(node_id).rapl
            snapshots.append((rapl, rapl.snapshot_caps()))
            if force:
                rapl.force_caps(cap)
            else:
                rapl.write_caps_verified(cap)
    except ActuationError:
        for rapl, snap in snapshots:
            rapl.restore_caps(snap)
        raise


def state(cluster: SimulatedCluster) -> list:
    """Everything a commit may change, per node, in comparable form."""
    out = []
    for node in cluster.nodes:
        rapl = node.rapl
        policy = rapl.actuation
        out.append((
            rapl.caps(),
            {d: rapl.domain(d).enforced_w for d in rapl.caps()},
            rapl.actuation_stats,
            policy._rng.getstate() if policy is not PERFECT_ACTUATION else None,
        ))
    return out


def outcome(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except (ActuationError, PowerDomainError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return None


def assert_clean_row(
    cluster: SimulatedCluster, node_id: int, counters_zeroed: bool = True
) -> None:
    bank = cluster.cap_bank
    node = cluster.node(node_id)
    rapl = node.rapl
    if counters_zeroed:
        for column in (bank.energy_j, bank.energy_raw, bank.throttles):
            assert not column[node_id].any()
    assert node.meter.energy_j == node.meter.elapsed_s == 0.0
    assert bank.capped_w[node_id] == 0.0
    assert node.meter.telemetry is None
    assert np.isnan(bank.cap_w[node_id]).all()
    assert np.isnan(bank.enforced_w[node_id]).all()
    assert not bank.counts[node_id].any()
    assert bank.backoff_s[node_id] == 0.0
    assert not bank.faulty[node_id]
    assert rapl.actuation is PERFECT_ACTUATION
    assert set(rapl.actuation_stats.values()) == {0}
    assert bank.n_domains[node_id] == arity(cluster, node_id)
    max_w = [rapl.domain(d).clip(None) for d in rapl.caps()]
    assert bank.max_w[node_id, : len(max_w)].tolist() == max_w


class TestArity:
    """A wrong-length cap tuple writes nothing."""

    @pytest.mark.parametrize("caps", [(100.0, 30.0, 50.0), (100.0,)])
    def test_verified_write_rejects_before_writing(self, caps):
        rapl = SimulatedNode(haswell_node()).rapl
        with pytest.raises(PowerDomainError, match="2 power domains"):
            rapl.write_caps_verified(caps)
        assert rapl.caps() == {Domain.PKG: None, Domain.DRAM: None}
        assert rapl.actuation_stats["writes"] == 0

    @pytest.mark.parametrize("caps", [(100.0, 30.0, 50.0), (100.0,)])
    def test_forced_write_rejects_before_writing(self, caps):
        rapl = SimulatedNode(haswell_node()).rapl
        with pytest.raises(PowerDomainError, match="2 power domains"):
            rapl.force_caps(caps)
        assert rapl.caps() == {Domain.PKG: None, Domain.DRAM: None}
        assert rapl.actuation_stats["forced"] == 0

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("bad", [(100.0, 30.0, 50.0), (100.0,)])
    def test_commit_rejects_before_any_node_is_written(self, bad, force):
        cluster = fleet()
        ids = list(range(N_GPU, N_GPU + N_CPU))  # CPU-only slots
        caps = [(100.0, 30.0)] * (len(ids) - 1) + [bad]
        with pytest.raises(PowerDomainError) as err:
            cluster.cap_bank.commit(ids, caps, force=force)
        assert str(err.value).startswith(f"node {ids[-1]}: {len(bad)} cap values")
        for node_id in range(cluster.n_nodes):
            assert_clean_row(cluster, node_id)

    def test_gpu_slot_needs_three_values(self):
        cluster = fleet()
        with pytest.raises(PowerDomainError, match="node 0: 2 cap values for its 3"):
            cluster.cap_bank.commit([0], [(100.0, 30.0)])
        assert_clean_row(cluster, 0)

    def test_runtime_commit_rolls_nothing_forward(self, trained_inflection):
        from repro.core.knowledge import KnowledgeDB
        from repro.core.runtime import PowerBoundedRuntime
        from repro.core.scheduler import ClipScheduler
        from repro.sim.engine import ExecutionEngine

        engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
        runtime = PowerBoundedRuntime(ClipScheduler(
            engine, inflection=trained_inflection, knowledge=KnowledgeDB()
        ))
        for bad in [(100.0, 30.0, 50.0), (100.0,)]:
            with pytest.raises(PowerDomainError):
                runtime._commit_caps((0, 1), ((90.0, 20.0), bad))
            for node in engine.cluster.nodes:
                assert set(node.rapl.caps().values()) == {None}

    @pytest.mark.parametrize(
        "ids, caps",
        [((5, 5), ((1.0, 1.0), (2.0, 2.0))), ((5,), ()), ((-1,), ((1.0, 1.0),)),
         ((12,), ((1.0, 1.0),))],
    )
    def test_commit_needs_one_tuple_per_distinct_row(self, ids, caps):
        with pytest.raises(ValueError):
            fleet().cap_bank.commit(ids, caps)

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, None])
    def test_commit_rejects_bad_values_before_writing(self, value):
        cluster = fleet()
        with pytest.raises(ValueError, match="cap must be finite and >= 0"):
            cluster.cap_bank.commit([5, 6], [(90.0, 20.0), (90.0, value)])
        assert_clean_row(cluster, 5)


class TestEquivalence:
    """Seeded random commits: the bank against the per-node loop."""

    EPISODES = 100
    CASES_PER_EPISODE = 25

    @staticmethod
    def _policy(rng: random.Random) -> dict:
        return {
            "seed": rng.randrange(2**31),
            "drop_prob": rng.choice((0.0, 0.3, 0.9, 1.0)),
            "partial_prob": rng.choice((0.0, 0.0, 0.3)),
            "drift_prob": rng.choice((0.0, 0.0, 0.5)),
            "drift_frac": rng.choice((0.1, -0.2)),
        }

    def test_bank_matches_per_node_loop(self):
        tally = dict.fromkeys(
            ("cases", "force", "failed", "failed_late", "with_faulty",
             "mixed_arity", "all_perfect"), 0)
        for episode in range(self.EPISODES):
            rng = random.Random(episode)
            bank_side, ref_side = fleet(), fleet()
            n = bank_side.n_nodes
            for _ in range(self.CASES_PER_EPISODE):
                # re-script the fault policies on a few nodes
                for node_id in range(n):
                    roll = rng.random()
                    if roll < 0.06:
                        params = self._policy(rng)
                        for side in (bank_side, ref_side):
                            side.node(node_id).rapl.actuation = FaultyActuation(**params)
                    elif roll < 0.12:
                        for side in (bank_side, ref_side):
                            side.node(node_id).rapl.actuation = PERFECT_ACTUATION
                ids = rng.sample(range(n), rng.randint(1, n))
                caps = [
                    tuple(round(rng.uniform(0.0, 320.0), rng.choice((1, 6)))
                          for _ in range(arity(bank_side, i)))
                    for i in ids
                ]
                force = rng.random() < 0.2
                got = outcome(bank_side.cap_bank.commit, ids, caps, force=force)
                want = outcome(reference_commit, ref_side, ids, caps, force=force)
                assert got == want, (episode, ids, caps, force)
                assert state(bank_side) == state(ref_side), (episode, ids, caps, force)

                faulty = [bank_side.cap_bank.faulty[i] for i in ids]
                tally["cases"] += 1
                tally["force"] += force
                tally["failed"] += got is not None
                tally["failed_late"] += got is not None and not faulty[0]
                tally["with_faulty"] += any(faulty)
                tally["all_perfect"] += not any(faulty)
                tally["mixed_arity"] += len({arity(bank_side, i) for i in ids}) > 1
        print("cap bank equivalence:", tally)
        assert tally["cases"] >= 2000
        for key in ("force", "failed", "failed_late", "with_faulty",
                    "all_perfect", "mixed_arity"):
            assert tally[key] >= 100, tally


class TestLifecycle:
    """Rows come back clean; detached and standalone nodes keep working."""

    @staticmethod
    def _dirty(cluster, node_id):
        node = cluster.node(node_id)
        rapl = node.rapl
        caps = (90.0, 20.0, 150.0)[: arity(cluster, node_id)]
        cluster.cap_bank.commit([node_id], [caps])
        rapl.resolve([12, 12], 1.0, [3e10, 3e10])
        rapl.domain(Domain.PKG).accumulate(80.0, 2.0)
        node.meter.record(110.0, 300.0, 2.0)
        node.meter.telemetry = TelemetryFault(seed=3, noise_frac=0.1)
        assert cluster.cap_bank.throttles[node_id].any()
        rapl.actuation = FaultyActuation(seed=3, drop_prob=1.0)
        with pytest.raises(ActuationError):
            cluster.cap_bank.commit([node_id], [tuple(c + 1 for c in caps)])
        assert cluster.cap_bank.faulty[node_id]
        assert cluster.cap_bank.counts[node_id].any()

    @pytest.mark.parametrize("node_id", [0, N_GPU])
    def test_degrade_node_rebinds_a_clean_row(self, node_id):
        cluster = fleet()
        self._dirty(cluster, node_id)
        new = cluster.degrade_node(node_id, 1.2)
        assert cluster.node(node_id) is new
        assert_clean_row(cluster, node_id)
        new.rapl.write_caps_verified((80.0, 20.0, 150.0)[: arity(cluster, node_id)])
        assert cluster.cap_bank.cap_w[node_id, 0] == 80.0

    @pytest.mark.parametrize("node_id", [1, N_GPU + 1])
    def test_recover_node_rebinds_a_clean_row(self, node_id):
        cluster = fleet()
        self._dirty(cluster, node_id)
        cluster.fail_node(node_id)
        cluster.recover_node(node_id)
        assert_clean_row(cluster, node_id)

    def test_reset_cleans_every_row(self):
        cluster = fleet()
        for node_id in (2, N_GPU + 2):
            self._dirty(cluster, node_id)
        counters = [cluster.cap_bank.energy_j.copy(), cluster.cap_bank.throttles.copy()]
        cluster.reset()
        for node_id in range(cluster.n_nodes):
            assert_clean_row(cluster, node_id, counters_zeroed=False)
        # RAPL energy and throttle counters keep counting across a reset
        np.testing.assert_array_equal(cluster.cap_bank.energy_j, counters[0])
        np.testing.assert_array_equal(cluster.cap_bank.throttles, counters[1])

    def test_standalone_node_has_a_bank_of_its_own(self):
        node = SimulatedNode(haswell_node())
        other = SimulatedNode(haswell_node())
        node.set_power_caps(100.0, 25.0)
        assert node.rapl.caps() == {Domain.PKG: 100.0, Domain.DRAM: 25.0}
        assert set(other.rapl.caps().values()) == {None}
        op = node.rapl.resolve([12, 12], 1.0, [3e10, 3e10])
        assert op.pkg_power_w <= 100.0 * (1 + 1e-9)
        # a node built on a caller's bank lives in row node_id of it
        bank = CapBank(3)
        banked = SimulatedNode(haswell_node(), node_id=2, bank=bank)
        banked.set_power_caps(100.0, 25.0)
        assert bank.cap_w[2, 0] == 100.0
        bank.clear(2)
        assert set(banked.rapl.caps().values()) == {None}


class TestTypes:
    """Views read Python floats, never NumPy scalars."""

    @staticmethod
    def _assert_floats(rapl):
        values = list(rapl.caps().values())
        for d in rapl.caps():
            reg = rapl.domain(d)
            values += [reg.cap_w, reg.enforced_w, reg.effective_cap_w]
        for pair in rapl.snapshot_caps().values():
            values += list(pair)
        assert values and all(v is None or type(v) is float for v in values)
        stats = rapl.actuation_stats
        assert type(stats.pop("backoff_s")) is float
        assert all(type(v) is int for v in stats.values())

    def test_every_write_path_reads_back_python_floats(self):
        cluster = fleet()
        bank = cluster.cap_bank
        for i in range(cluster.n_nodes):
            self._assert_floats(cluster.node(i).rapl)  # uncapped
        caps = [np.float64(90.5), np.float64(20.25), np.float64(150.0)]
        bank.commit([0, N_GPU], [tuple(caps), tuple(caps[:2])])
        bank.commit([1, N_GPU + 1], [tuple(caps), tuple(caps[:2])], force=True)
        cluster.node(2).rapl.actuation = FaultyActuation(
            seed=4, drift_prob=1.0, drift_frac=0.1
        )
        bank.commit([2], [tuple(caps)])
        cluster.node(3).rapl.write_caps_verified(tuple(caps))
        cluster.node(N_GPU + 2).rapl.domain(Domain.PKG).program(
            np.float64(70.0), np.float64(75.0)
        )
        for i in range(cluster.n_nodes):
            self._assert_floats(cluster.node(i).rapl)
