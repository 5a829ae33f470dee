"""Unit tests for workload characteristic records."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.characteristics import (
    CommPattern,
    Phase,
    WorkloadCharacteristics,
)


def make(**kw):
    defaults = dict(
        name="app",
        instructions_per_iter=1e10,
        bytes_per_instruction=0.5,
    )
    defaults.update(kw)
    return WorkloadCharacteristics(**defaults)


class TestValidation:
    def test_minimal_valid(self):
        app = make()
        assert app.instructions_per_iter * app.bytes_per_instruction == pytest.approx(5e9)

    def test_rejects_empty_name(self):
        with pytest.raises(WorkloadError):
            make(name="")

    def test_rejects_zero_instructions(self):
        with pytest.raises(ValueError):
            make(instructions_per_iter=0.0)

    def test_rejects_bad_serial_fraction(self):
        with pytest.raises(ValueError):
            make(serial_fraction=1.5)

    def test_rejects_zero_ipc_fraction(self):
        with pytest.raises(WorkloadError):
            make(ipc_fraction=0.0)

    def test_rejects_negative_sync(self):
        with pytest.raises(ValueError):
            make(sync_cost_s=-1.0)

    def test_rejects_zero_iterations(self):
        with pytest.raises(WorkloadError):
            make(iterations=0)

    def test_rejects_bad_phase_weights(self):
        with pytest.raises(WorkloadError):
            make(phases=(Phase("a", 0.1), Phase("b", 0.1)))

    def test_accepts_unit_phase_weights(self):
        app = make(phases=(Phase("a", 0.5), Phase("b", 0.5)))
        assert len(app.phases) == 2


class TestPhase:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Phase("p", 0.0)

    def test_rejects_bad_max_threads(self):
        with pytest.raises(WorkloadError):
            Phase("p", 0.5, max_useful_threads=0)

    def test_overrides_optional(self):
        p = Phase("p", 0.5, bytes_per_instruction=2.0, sync_cost_s=1e-3)
        assert p.bytes_per_instruction == 2.0
        assert p.sync_cost_s == 1e-3


class TestDerived:
    def test_memory_intensity_flag(self):
        assert make(bytes_per_instruction=2.0).is_memory_intensive
        assert not make(bytes_per_instruction=0.01).is_memory_intensive

    def test_with_iterations(self):
        app = make(iterations=100)
        short = app.with_iterations(3)
        assert short.iterations == 3
        assert short.name == app.name
        assert app.iterations == 100

    def test_effective_phases_default(self):
        phases = make().effective_phases()
        assert len(phases) == 1
        assert phases[0].weight == 1.0

    def test_phase_view_scales_volume(self):
        app = make(
            instructions_per_iter=1e10,
            comm_bytes_per_iter=1e6,
            phases=(Phase("a", 0.25), Phase("b", 0.75)),
        )
        view = app.phase_view(app.phases[0])
        assert view.instructions_per_iter == pytest.approx(2.5e9)
        assert view.comm_bytes_per_iter == pytest.approx(2.5e5)
        assert view.phases == ()
        assert view.name == "app:a"

    def test_phase_view_applies_overrides(self):
        app = make(
            bytes_per_instruction=1.0,
            sync_cost_s=1e-3,
            phases=(Phase("x", 1.0, bytes_per_instruction=3.0, sync_cost_s=2e-3),),
        )
        view = app.phase_view(app.phases[0])
        assert view.bytes_per_instruction == 3.0
        assert view.sync_cost_s == pytest.approx(2e-3)

    def test_phase_view_scales_parent_sync_by_weight(self):
        app = make(sync_cost_s=1e-3, phases=(Phase("x", 0.5), Phase("y", 0.5)))
        view = app.phase_view(app.phases[0])
        assert view.sync_cost_s == pytest.approx(5e-4)

    def test_comm_pattern_default(self):
        assert make().comm_pattern is CommPattern.HALO
