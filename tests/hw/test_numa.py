"""Unit and property tests for NUMA topology queries."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AffinityError, SpecError
from repro.hw.numa import NumaTopology
from repro.hw.specs import haswell_node

TOPO = NumaTopology(haswell_node())


class TestTopologyShape:
    def test_dimensions(self):
        assert TOPO.n_sockets == 2
        assert TOPO.cores_per_socket == 12
        assert TOPO.n_cores == 24

    def test_socket_of_boundaries(self):
        assert TOPO.socket_of(0) == 0
        assert TOPO.socket_of(11) == 0
        assert TOPO.socket_of(12) == 1
        assert TOPO.socket_of(23) == 1

    def test_socket_of_rejects_bad_core(self):
        with pytest.raises(AffinityError):
            TOPO.socket_of(24)
        with pytest.raises(AffinityError):
            TOPO.socket_of(-1)


class TestPlacementQueries:
    def test_threads_per_socket(self):
        counts = TOPO.threads_per_socket([0, 1, 12, 13, 14])
        assert list(counts) == [2, 3]

    def test_duplicate_core_rejected(self):
        with pytest.raises(AffinityError):
            TOPO.threads_per_socket([0, 0])

    def test_sockets_used(self):
        assert TOPO.sockets_used([0, 1, 2]) == 1
        assert TOPO.sockets_used([0, 12]) == 2

    def test_remote_fraction_single_socket_zero(self):
        assert TOPO.remote_access_fraction(range(12), 0.5) == pytest.approx(0.0)

    def test_remote_fraction_balanced_two_sockets(self):
        # even split: shared access is remote with probability 1/2
        placement = list(range(6)) + list(range(12, 18))
        frac = TOPO.remote_access_fraction(placement, 1.0)
        assert frac == pytest.approx(0.5)

    def test_remote_fraction_scales_with_sharing(self):
        placement = list(range(6)) + list(range(12, 18))
        f1 = TOPO.remote_access_fraction(placement, 1.0)
        f2 = TOPO.remote_access_fraction(placement, 0.4)
        assert f2 == pytest.approx(0.4 * f1)

    def test_remote_fraction_rejects_bad_share(self):
        with pytest.raises(SpecError):
            TOPO.remote_access_fraction([0], 1.5)

    def test_empty_placement(self):
        assert TOPO.remote_access_fraction([], 0.5) == 0.0

    @given(
        n=st.integers(min_value=1, max_value=24),
        shared=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_remote_fraction_bounded(self, n, shared):
        placement = list(range(n))
        frac = TOPO.remote_access_fraction(placement, shared)
        assert 0.0 <= frac <= shared + 1e-12

    @given(st.integers(min_value=0, max_value=23))
    def test_socket_major_numbering(self, core):
        assert TOPO.socket_of(core) == core // 12
