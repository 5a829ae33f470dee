"""Unit tests for the alpha-beta communication model."""

import pytest

from repro.errors import WorkloadError
from repro.hw.specs import haswell_testbed
from repro.sim.mpi import ALLREDUCE_BYTES, CommModel
from repro.workloads.characteristics import CommPattern, WorkloadCharacteristics


def app(pattern, comm_bytes=1e7, msgs=6):
    return WorkloadCharacteristics(
        name="comm-test",
        instructions_per_iter=1e10,
        bytes_per_instruction=0.1,
        comm_pattern=pattern,
        comm_bytes_per_iter=comm_bytes,
        comm_msgs_per_iter=msgs,
    )


@pytest.fixture()
def comm():
    return CommModel(haswell_testbed())


class TestHalo:
    def test_single_node_free(self, comm):
        assert comm.iteration_time(app(CommPattern.HALO), 1) == 0.0

    def test_surface_to_volume_shrinks_per_node_bytes(self, comm):
        a = app(CommPattern.HALO)
        assert comm.halo_bytes(a, 8) < comm.halo_bytes(a, 2)
        assert comm.halo_bytes(a, 1) == pytest.approx(a.comm_bytes_per_iter)

    def test_halo_time_components(self, comm):
        a = app(CommPattern.HALO, comm_bytes=8e6, msgs=6)
        t = comm.iteration_time(a, 8)
        expected = 6 * comm.alpha_s + comm.halo_bytes(a, 8) * comm.beta_s_per_byte
        assert t == pytest.approx(expected)

    def test_zero_bytes_latency_only(self, comm):
        a = app(CommPattern.HALO, comm_bytes=0.0, msgs=4)
        assert comm.iteration_time(a, 4) == pytest.approx(4 * comm.alpha_s)


class TestAllreduce:
    def test_log_depth(self, comm):
        a = app(CommPattern.ALLREDUCE)
        t2 = comm.iteration_time(a, 2)
        t8 = comm.iteration_time(a, 8)
        per_level = comm.alpha_s + ALLREDUCE_BYTES * comm.beta_s_per_byte
        assert t2 == pytest.approx(1 * per_level)
        assert t8 == pytest.approx(3 * per_level)

    def test_nonpow2_rounds_up(self, comm):
        a = app(CommPattern.ALLREDUCE)
        t5 = comm.iteration_time(a, 5)
        t8 = comm.iteration_time(a, 8)
        assert t5 == pytest.approx(t8)


class TestNone:
    def test_embarrassingly_parallel_is_free(self, comm):
        a = app(CommPattern.NONE)
        assert comm.iteration_time(a, 8) == 0.0


class TestValidation:
    def test_rejects_zero_nodes(self, comm):
        with pytest.raises(WorkloadError):
            comm.iteration_time(app(CommPattern.HALO), 0)

    def test_rejects_beyond_cluster(self, comm):
        with pytest.raises(WorkloadError):
            comm.iteration_time(app(CommPattern.HALO), 9)
