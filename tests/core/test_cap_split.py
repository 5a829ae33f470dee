"""The runtime's per-class array cap split against the per-node split.

:meth:`ClipPowerModel.split_node_budgets` replaced a per-slot call of
the scalar splits in ``PowerBoundedRuntime._plan``.  These tests keep
that per-slot function (verbatim, as ``reference_split``) and check the
array split against it bit for bit on CPU, offloaded-GPU and
host-only-GPU classes (a CPU class splits fewer than
``ARRAY_SPLIT_MIN`` budgets on floats, so both forms are checked), and
that a rejected budget raises the same
:class:`InfeasibleBudgetError` text for the first offending slot —
also in ``_plan`` on a job spanning both classes of a two-rack mixed
fleet, where the slot order interleaves the classes.
"""

import random

import numpy as np
import pytest

from repro.core.knowledge import KnowledgeDB
from repro.core.powermodel import ARRAY_SPLIT_MIN
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.errors import InfeasibleBudgetError
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import mixed_gpu_testbed
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app


def reference_split(power, budget_w: float, n_threads: int) -> tuple[float, ...]:
    """The per-node split ``_plan`` called per slot before the array
    split (``repro.core.runtime._split_caps``), verbatim."""
    lo_w, hi_w = power.gpu_power_range()
    if hi_w <= 0.0:
        return power.split_node_budget(budget_w, n_threads)
    rng = power.power_range(n_threads)
    grant_w = lo_w
    window_hi_w = budget_w - (rng.cpu_lo_w + rng.mem_lo_w)
    for cap_w, _clock_hz in power.gpu_shift_candidates(lo_w, window_hi_w):
        grant_w = max(grant_w, cap_w)
    return power.split_node_budget_gpu(budget_w, n_threads, grant_w)


def reference_error(power, budgets, n_threads: int) -> str | None:
    for b in budgets:
        try:
            reference_split(power, float(b), n_threads)
        except InfeasibleBudgetError as exc:
            return str(exc)
    return None


@pytest.fixture(scope="module")
def mixed_runtime():
    from repro.analysis.experiments import build_trained_inflection

    # per rack: GPU slots 0-3, then CPU-only slots 4-7
    engine = ExecutionEngine(
        SimulatedCluster(mixed_gpu_testbed(racks=2)), seed=42
    )
    clip = ClipScheduler(
        engine, inflection=build_trained_inflection(engine),
        knowledge=KnowledgeDB(),
    )
    return PowerBoundedRuntime(clip)


@pytest.fixture(scope="module")
def models(mixed_runtime):
    """``{kind: ClipPowerModel}`` for the three split shapes."""
    out = {}
    for kind, app, slot in (("gpu-offloaded", "lulesh-gpu", 0),
                            ("gpu-host-only", "comd", 0),
                            ("cpu", "comd", 4)):
        app = get_app(app)
        bundle = mixed_runtime._models(app)
        slot_models, ranks = mixed_runtime._slot_models(bundle, (slot,))
        out[kind] = slot_models[ranks[0]]
    return out


KINDS = ("gpu-offloaded", "gpu-host-only", "cpu")


class TestArraySplit:
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_match_the_per_node_split_bit_for_bit(self, models, kind):
        model = models[kind]
        rng = random.Random(kind)
        checked = 0
        for n_threads in (1, 2, 6, 12, 17, 24):
            floor = model.power_range(n_threads).node_lo_w
            budgets = [floor + rng.uniform(0.0, 600.0) for _ in range(400)]
            budgets += [floor, floor + 1e-9, 5000.0]
            # the ladder levels and their neighbours, where the grant steps
            rng_ = model.power_range(n_threads)
            host_lo = rng_.cpu_lo_w + rng_.mem_lo_w
            for level in model._node.gpu_cap_levels_w:
                budgets += [host_lo + level + d for d in (-1e-9, 0.0, 1e-9)]
            budgets = [b for b in budgets if reference_error(model, [b], n_threads) is None]
            want = [reference_split(model, b, n_threads) for b in budgets]
            assert model.split_node_budgets(np.array(budgets), n_threads) == want
            # short runs too, on each side of ARRAY_SPLIT_MIN
            for size in range(1, ARRAY_SPLIT_MIN + 2):
                chunk = budgets[:size]
                assert model.split_node_budgets(np.array(chunk), n_threads) == want[:size]
            checked += len(budgets)
        assert checked >= 2400

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejection_names_the_first_offending_budget(self, models, kind):
        model = models[kind]
        floor = model.power_range(12).node_lo_w
        budgets = [floor + 50.0, floor - 5.0, floor + 20.0, floor - 40.0]
        want = reference_error(model, budgets, 12)
        assert want is not None
        # short (scalar) and long (array) forms of the same rejection
        for copies in (1, ARRAY_SPLIT_MIN):
            with pytest.raises(InfeasibleBudgetError) as err:
                model.split_node_budgets(np.array(budgets * copies), 12)
            assert str(err.value) == want


class TestPlanRejection:
    """``_plan`` raises for the first rejected slot, whichever class."""

    @pytest.mark.parametrize("bad_slots", [(5, 9), (2, 13)])
    def test_first_offending_slot_across_classes(
        self, mixed_runtime, monkeypatch, bad_slots
    ):
        runtime = PowerBoundedRuntime(mixed_runtime.scheduler)
        app = get_app("comd")
        job = runtime.launch(app, 4800.0, n_nodes=16)
        bundle = runtime._models(app)
        slot_models, ranks = runtime._slot_models(bundle, job.node_ids)
        floors = {
            k: m.power_range(job.n_threads).node_lo_w
            for k, m in slot_models.items()
        }
        budgets = np.array([floors[k] + 30.0 for k in ranks])
        # one rejected slot in each class; the GPU class is split first
        for slot in bad_slots:
            budgets[slot] = floors[ranks[slot]] - 10.0 - slot
        assert len({ranks[slot] for slot in bad_slots}) == 2
        monkeypatch.setattr(
            "repro.core.runtime.coordinate_power", lambda *a, **k: budgets.copy()
        )
        first = min(bad_slots)
        want = reference_error(slot_models[ranks[first]], [budgets[first]],
                               job.n_threads)
        assert f"{budgets[first]:.1f} W" in want
        with pytest.raises(InfeasibleBudgetError) as err:
            runtime._plan(job, bundle, 4800.0, job.node_ids)
        assert str(err.value) == want
