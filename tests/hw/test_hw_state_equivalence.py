"""Per-node hardware state held in the cap bank matches the per-object
counters it replaced, bit for bit.

Each node's RAPL energy counters (unwrapped joules and the wrapping
energy-status register), throttle counts and wall meter (energy,
elapsed time, last capped-domain reading) live in columns of the
fleet's :class:`~repro.hw.rapl.CapBank`; the engine adds each run's
energy to the rows, and the watchdog reads the participating rows in
one gather.  Before, every :class:`RaplDomain` and :class:`PowerMeter`
held its own counters, the engine handed each meter a
``PowerBreakdown`` per run, and the watchdog read one meter at a time.
This module keeps verbatim copies of those per-object counters as the
reference and drives both through seeded random sequences on 32-node
haswell, mixed, gpu and mixed-gpu fleets.  A sequence mixes executed
runs, cap commits under faulty actuation, ``degrade_node``,
``fail_node``/``recover_node``, ``cluster.reset()`` and noisy, dropping
and stale telemetry faults; after every step it compares the bits of
every node's energy, register, throttle and meter readings, and every
sensor read and watchdog ``measured_w`` on both sides.

Run with ``-s`` to see the case counts.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.core.watchdog import PowerEnforcementWatchdog
from repro.errors import ActuationError
from repro.hw.actuation import PERFECT_ACTUATION, FaultyActuation
from repro.hw.cluster import SimulatedCluster
from repro.hw.meter import PowerMeter, TelemetryFault
from repro.hw.rapl import ENERGY_UNIT_J, ENERGY_WRAP, Domain, RaplInterface
from repro.hw.specs import (
    gpu_testbed,
    haswell_testbed,
    mixed_gpu_testbed,
    mixed_testbed,
)
from repro.sim.engine import ExecutionConfig, ExecutionEngine
from repro.units import check_non_negative
from repro.workloads.apps import GPU_APPS, get_app

FLEETS = {
    "haswell": haswell_testbed,
    "mixed": mixed_testbed,
    "gpu": gpu_testbed,
    "mixed-gpu": mixed_gpu_testbed,
}
CPU_APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "tealeaf")
APPS = {
    "haswell": CPU_APPS,
    "mixed": CPU_APPS,
    "gpu": tuple(a.name for a in GPU_APPS) + ("comd", "stream"),
    "mixed-gpu": tuple(a.name for a in GPU_APPS) + ("comd", "stream"),
}
SEQUENCES_PER_FLEET = 10
STEPS_PER_SEQUENCE = 80
STEP_WEIGHTS = {
    "run": 8, "measure": 4, "read": 2, "commit": 2, "actuation": 2,
    "telemetry": 4, "degrade": 1, "fail": 1, "recover": 1, "reset": 1,
}


# -- the per-object counters before the bank, verbatim -----------------


class RefDomain:
    """``RaplDomain``'s energy and throttle counters."""

    def __init__(self):
        self._raw_energy = 0  # register value, wraps at ENERGY_WRAP
        self._total_energy_j = 0.0  # unwrapped, for tests/metrics
        self._throttle_events = 0

    def accumulate(self, power_w: float, dt_s: float) -> None:
        check_non_negative(power_w, "power")
        check_non_negative(dt_s, "dt")
        joules = power_w * dt_s
        self._total_energy_j += joules
        ticks = int(round(joules / ENERGY_UNIT_J))
        self._raw_energy = (self._raw_energy + ticks) % ENERGY_WRAP

    def note_throttled(self) -> None:
        self._throttle_events += 1


@dataclass(frozen=True)
class RefBreakdown:
    """``PowerBreakdown``, the engine's per-node meter input."""

    pkg_w: float
    dram_w: float
    other_w: float
    gpu_w: float | None = None

    CAPPED_DOMAIN_FIELDS = ("pkg_w", "dram_w", "gpu_w")

    def present_domains(self) -> tuple[tuple[str, float], ...]:
        return tuple(
            (name, value)
            for name in self.CAPPED_DOMAIN_FIELDS
            if (value := getattr(self, name)) is not None
        )

    @property
    def total_w(self) -> float:
        return self.capped_w + self.other_w

    @property
    def capped_w(self) -> float:
        total = 0.0
        for _, value in self.present_domains():
            total = total + value
        return total


class RefMeter:
    """``PowerMeter`` with its interval list, telemetry and counters."""

    def __init__(self):
        self._t = 0.0
        self._energy_j = 0.0
        self._intervals: list[tuple[float, float, RefBreakdown]] = []
        self.telemetry: TelemetryFault | None = None

    def record(self, breakdown: RefBreakdown, dt_s: float) -> None:
        check_non_negative(dt_s, "dt")
        if dt_s == 0.0:
            return
        self._intervals.append((self._t, self._t + dt_s, breakdown))
        self._t += dt_s
        self._energy_j += breakdown.total_w * dt_s

    def capped_power_w(self) -> float:
        if not self._intervals:
            return 0.0
        return self._intervals[-1][2].capped_w

    def read_capped_power_w(self) -> float | None:
        truth = self.capped_power_w()
        if self.telemetry is None:
            return truth
        return self.telemetry.corrupt(truth)

    def reset(self) -> None:
        self._t = 0.0
        self._energy_j = 0.0
        self._intervals.clear()
        self.telemetry = None


class RefNode:
    """One node's counters; ``accumulate`` is ``RaplInterface``'s and
    ``note`` the throttle side effect of ``resolve``/``resolve_gpu``."""

    def __init__(self, has_gpu: bool):
        domains = (Domain.PKG, Domain.DRAM) + ((Domain.GPU,) if has_gpu else ())
        self.domains = {d: RefDomain() for d in domains}
        self.meter = RefMeter()

    def accumulate(self, point, dt_s: float) -> None:
        self.domains[Domain.PKG].accumulate(point.pkg_power_w, dt_s)
        self.domains[Domain.DRAM].accumulate(point.dram_power_w, dt_s)
        gpu = self.domains.get(Domain.GPU)
        if gpu is not None:
            gpu.accumulate(point.gpu_power_w, dt_s)


def ref_measure(refs, job) -> float | None:
    """``PowerEnforcementWatchdog._measure`` over the reference meters."""
    total = 0.0
    seen = False
    for rank, node_id in enumerate(job.node_ids):
        reading = refs[node_id].meter.read_capped_power_w()
        if reading is None:
            total += float(sum(job.per_node_caps[rank]))
        else:
            total += float(reading)
            seen = True
    return total if seen else None


# -- the comparison ------------------------------------------------------


def bits(value) -> str:
    """A float's exact bits (and ``None``/``int`` as themselves)."""
    return value.hex() if type(value) is float else repr(value)


def readings(cluster: SimulatedCluster, refs: list[RefNode]) -> tuple[list, list]:
    """Every counter and meter reading of both sides, node by node."""
    got, want = [], []
    for node_id, ref in enumerate(refs):
        node = cluster.node(node_id)
        rapl = node.rapl
        for d, ref_reg in ref.domains.items():
            reg = rapl.domain(d)
            got.append((node_id, d.value, bits(rapl.energy_j(d)),
                        bits(reg.read_energy_register()), bits(reg.throttle_events)))
            want.append((node_id, d.value, bits(ref_reg._total_energy_j),
                         bits(ref_reg._raw_energy), bits(ref_reg._throttle_events)))
        got.append((node_id, bits(node.meter.energy_j), bits(node.meter.elapsed_s),
                    bits(float(cluster.cap_bank.capped_w[node_id]))))
        want.append((node_id, bits(ref.meter._energy_j), bits(ref.meter._t),
                     bits(ref.meter.capped_power_w())))
    return got, want


def mirror_throttles(monkeypatch, side: dict) -> None:
    """Feed every cap resolution's throttle flags to the reference node,
    as ``resolve``/``resolve_gpu`` noted them on their domains."""
    resolve, resolve_gpu = RaplInterface.resolve, RaplInterface.resolve_gpu

    def ref_of(rapl):
        cluster, refs = side["cluster"], side["refs"]
        return next(refs[i] for i, n in enumerate(cluster.nodes) if n.rapl is rapl)

    def mirrored_resolve(self, *args, **kwargs):
        op = resolve(self, *args, **kwargs)
        ref = ref_of(self)
        if op.mem_throttled:
            ref.domains[Domain.DRAM].note_throttled()
        if op.cpu_throttled:
            ref.domains[Domain.PKG].note_throttled()
        return op

    def mirrored_resolve_gpu(self):
        clock, throttled, violated = resolve_gpu(self)
        if throttled:
            ref_of(self).domains[Domain.GPU].note_throttled()
        return clock, throttled, violated

    monkeypatch.setattr(RaplInterface, "resolve", mirrored_resolve)
    monkeypatch.setattr(RaplInterface, "resolve_gpu", mirrored_resolve_gpu)


def arity(cluster, node_id: int) -> int:
    return 3 if cluster.node(node_id).spec.has_gpu else 2


def random_caps(rng: random.Random, cluster, node_id: int, allow_none: bool) -> tuple:
    caps = (rng.uniform(60.0, 260.0), rng.uniform(8.0, 60.0), rng.uniform(40.0, 300.0))
    caps = tuple(round(c, rng.choice((1, 6))) for c in caps[: arity(cluster, node_id)])
    if allow_none and rng.random() < 0.15:
        return tuple(None if rng.random() < 0.5 else c for c in caps)
    return caps


class Sequence:
    """One seeded random sequence on a fleet, both sides in step."""

    def __init__(self, fleet: str, seed: int, side: dict, tally: Counter):
        self.fleet = fleet
        self.rng = random.Random(seed)
        self.cluster = SimulatedCluster(FLEETS[fleet](racks=4))
        self.engine = ExecutionEngine(self.cluster, seed=seed)
        self.refs = [RefNode(n.spec.has_gpu) for n in self.cluster.nodes]
        runtime = SimpleNamespace(
            scheduler=SimpleNamespace(engine=self.engine),
            attach_watchdog=lambda dog: None,
        )
        self.dog = PowerEnforcementWatchdog(runtime)
        side.update(cluster=self.cluster, refs=self.refs)
        self.tally = tally

    def step(self) -> None:
        kind = self.rng.choices(list(STEP_WEIGHTS), list(STEP_WEIGHTS.values()))[0]
        getattr(self, f"_{kind}")()
        self.tally[kind] += 1
        got, want = readings(self.cluster, self.refs)
        assert got == want, (self.fleet, kind)

    def _node(self) -> int:
        return self.rng.randrange(self.cluster.n_nodes)

    def _run(self) -> None:
        rng, cluster = self.rng, self.cluster
        available = list(cluster.available_node_ids)
        ids = tuple(rng.sample(available, rng.randint(1, min(8, len(available)))))
        cores = min(cluster.node(i).spec.n_cores for i in ids)
        config = ExecutionConfig(
            n_nodes=len(ids),
            n_threads=rng.randint(1, cores),
            node_ids=ids,
            per_node_caps=tuple(random_caps(rng, cluster, i, True) for i in ids),
            iterations=rng.randint(1, 4),
        )
        result = self.engine.run(get_app(rng.choice(APPS[self.fleet])), config)
        for rec in result.nodes:
            ref, spec = self.refs[rec.node_id], cluster.node(rec.node_id).spec
            ref.accumulate(rec.operating_point, result.iterations * rec.t_iter_s)
            ref.meter.record(
                RefBreakdown(
                    pkg_w=rec.avg_pkg_w,
                    dram_w=rec.avg_dram_w,
                    other_w=spec.p_other_w,
                    gpu_w=rec.avg_gpu_w if spec.has_gpu else None,
                ),
                result.total_time_s,
            )

    def _measure(self) -> None:
        rng, cluster = self.rng, self.cluster
        # now and then a job on sensors that drop every reading
        blind = [i for i, ref in enumerate(self.refs)
                 if ref.meter.telemetry is not None
                 and ref.meter.telemetry.drop_prob == 1.0]
        pool = blind if blind and rng.random() < 0.3 else range(cluster.n_nodes)
        ids = rng.sample(pool, rng.randint(1, min(8, len(pool))))
        job = SimpleNamespace(
            node_ids=tuple(ids),
            per_node_caps=tuple(random_caps(rng, cluster, i, False) for i in ids),
        )
        got, want = self.dog._measure(job), ref_measure(self.refs, job)
        assert bits(got) == bits(want), (self.fleet, ids)
        self.tally["measured_none" if got is None else "measured_w"] += 1

    def _read(self) -> None:
        node_id = self._node()
        got = self.cluster.node(node_id).meter.read_capped_power_w()
        want = self.refs[node_id].meter.read_capped_power_w()
        assert bits(got) == bits(want), (self.fleet, node_id)

    def _commit(self) -> None:
        rng, cluster = self.rng, self.cluster
        ids = rng.sample(range(cluster.n_nodes), rng.randint(1, cluster.n_nodes))
        caps = [random_caps(rng, cluster, i, False) for i in ids]
        try:
            cluster.cap_bank.commit(ids, caps, force=rng.random() < 0.2)
        except ActuationError:
            self.tally["commit_failed"] += 1

    def _actuation(self) -> None:
        rng = self.rng
        rapl = self.cluster.node(self._node()).rapl
        if rng.random() < 0.3:
            rapl.actuation = PERFECT_ACTUATION
        else:
            rapl.actuation = FaultyActuation(
                seed=rng.randrange(2**31),
                drop_prob=rng.choice((0.0, 0.3, 0.95)),
                drift_prob=rng.choice((0.0, 1.0)),
                drift_frac=rng.choice((0.15, -0.2)),
            )

    def _telemetry(self) -> None:
        rng = self.rng
        node_id = self._node()
        meter, ref = self.cluster.node(node_id).meter, self.refs[node_id].meter
        roll = rng.random()
        if roll < 0.15:
            meter.telemetry = ref.telemetry = None
            return
        if roll < 0.6 and ref.telemetry is not None:
            reads = rng.randint(1, 4)
            meter.telemetry.make_stale(reads)
            ref.telemetry.make_stale(reads)
            self.tally["stale"] += 1
            return
        params = dict(
            seed=rng.randrange(2**31),
            noise_frac=rng.choice((0.0, 0.05, 0.2)),
            drop_prob=rng.choice((0.0, 0.3, 1.0)),
        )
        meter.telemetry = TelemetryFault(**params)
        ref.telemetry = TelemetryFault(**params)
        self.tally["noise" if params["noise_frac"] else "drop"] += 1

    def _degrade(self) -> None:
        node_id = self._node()
        self.cluster.degrade_node(node_id, self.rng.uniform(1.0, 1.3))
        self.refs[node_id] = RefNode(self.cluster.node(node_id).spec.has_gpu)

    def _fail(self) -> None:
        available = self.cluster.available_node_ids
        if len(available) > 8:
            self.cluster.fail_node(self.rng.choice(available))

    def _recover(self) -> None:
        failed = self.cluster.failed_node_ids
        if failed:
            node_id = self.rng.choice(failed)
            self.cluster.recover_node(node_id)
            self.refs[node_id] = RefNode(self.cluster.node(node_id).spec.has_gpu)

    def _reset(self) -> None:
        self.cluster.reset()
        for ref in self.refs:
            ref.meter.reset()


def test_bank_state_matches_per_object_counters(monkeypatch):
    side: dict = {}
    mirror_throttles(monkeypatch, side)
    tally: Counter = Counter()
    for f, fleet in enumerate(FLEETS):
        for s in range(SEQUENCES_PER_FLEET):
            seq = Sequence(fleet, 1000 * f + s, side, tally)
            for _ in range(STEPS_PER_SEQUENCE):
                seq.step()
            tally["sequences"] += 1
            tally["throttle_events"] += int(seq.cluster.cap_bank.throttles.sum())
    print("hardware state equivalence:", dict(sorted(tally.items())))
    assert tally["sequences"] == len(FLEETS) * SEQUENCES_PER_FLEET
    for kind in STEP_WEIGHTS:
        assert tally[kind] >= 10, tally
    for key in ("measured_w", "measured_none", "stale", "noise", "drop",
                "commit_failed", "throttle_events"):
        assert tally[key] >= 10, tally


def test_views_hold_no_state_of_their_own():
    """Every ``RaplInterface``, ``RaplDomain`` and ``PowerMeter`` holds
    only references into its bank row: no float at all, and nothing it
    holds changes while runs, writes, faults and resets go through."""
    side: dict = {}
    seq = Sequence("mixed-gpu", 7, side, Counter())
    cluster = seq.cluster

    def views():
        for node in cluster.nodes:
            yield node.rapl
            yield node.meter
            for d in node.rapl.caps():
                yield node.rapl.domain(d)

    before = [(view, dict(vars(view))) for view in views()]
    kinds = {type(view) for view, _ in before}
    assert {RaplInterface, PowerMeter} <= kinds and len(kinds) == 3
    for view, attrs in before:
        assert not any(type(v) is float for v in attrs.values()), (view, attrs)
    with pytest.MonkeyPatch.context() as mp:
        mirror_throttles(mp, side)
        for kind in ("run", "commit", "actuation", "telemetry", "measure",
                     "run", "reset", "run", "measure"):
            getattr(seq, f"_{kind}")()
    assert cluster.cap_bank.wall_j.any() or cluster.cap_bank.energy_j.any()
    for view, attrs in before:
        after = vars(view)
        assert after.keys() == attrs.keys(), view
        assert all(after[k] is attrs[k] for k in attrs), view
