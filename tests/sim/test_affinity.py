"""Unit and property tests for thread placement."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AffinityError
from repro.hw.numa import AffinityKind, NumaTopology
from repro.hw.specs import haswell_node
from repro.sim.affinity import (
    make_placement,
    placement_cache_clear,
    placement_cache_info,
    placement_for,
)

TOPO = NumaTopology(haswell_node())


class TestCompact:
    def test_fills_first_socket(self):
        p = make_placement(TOPO, 6, AffinityKind.COMPACT, 0.3)
        assert p.threads_per_socket == (6, 0)
        assert p.sockets_used == 1
        assert p.remote_fraction == pytest.approx(0.0)

    def test_spills_to_second_socket(self):
        p = make_placement(TOPO, 15, AffinityKind.COMPACT, 0.3)
        assert p.threads_per_socket == (12, 3)
        assert p.sockets_used == 2

    def test_full_node(self):
        p = make_placement(TOPO, 24, AffinityKind.COMPACT, 0.3)
        assert p.threads_per_socket == (12, 12)


class TestScatter:
    def test_balances_sockets(self):
        p = make_placement(TOPO, 6, AffinityKind.SCATTER, 0.3)
        assert p.threads_per_socket == (3, 3)
        assert p.sockets_used == 2

    def test_odd_count_near_balanced(self):
        p = make_placement(TOPO, 7, AffinityKind.SCATTER, 0.3)
        assert sorted(p.threads_per_socket) == [3, 4]

    def test_scatter_has_remote_traffic(self):
        p = make_placement(TOPO, 8, AffinityKind.SCATTER, 0.4)
        assert p.remote_fraction == pytest.approx(0.4 * 0.5)

    def test_single_thread_no_remote(self):
        p = make_placement(TOPO, 1, AffinityKind.SCATTER, 0.4)
        assert p.remote_fraction == pytest.approx(0.0)


class TestValidationAndProperties:
    def test_rejects_zero_threads(self):
        with pytest.raises(AffinityError):
            make_placement(TOPO, 0, AffinityKind.COMPACT, 0.3)

    def test_rejects_overcommit(self):
        with pytest.raises(AffinityError):
            make_placement(TOPO, 25, AffinityKind.COMPACT, 0.3)

    @given(
        n=st.integers(min_value=1, max_value=24),
        kind=st.sampled_from(list(AffinityKind)),
        shared=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_placement_invariants(self, n, kind, shared):
        p = make_placement(TOPO, n, kind, shared)
        assert p.n_threads == n
        assert len(set(p.cores)) == n  # no core reused
        assert sum(p.threads_per_socket) == n
        assert all(0 <= c < TOPO.n_cores for c in p.cores)
        assert 0.0 <= p.remote_fraction <= shared + 1e-12

    @given(n=st.integers(min_value=1, max_value=24))
    def test_compact_minimizes_sockets(self, n):
        p = make_placement(TOPO, n, AffinityKind.COMPACT, 0.3)
        assert p.sockets_used == (1 if n <= 12 else 2)

    @given(n=st.integers(min_value=2, max_value=24))
    def test_scatter_uses_both_sockets(self, n):
        p = make_placement(TOPO, n, AffinityKind.SCATTER, 0.3)
        assert p.sockets_used == 2


class TestPlacementCache:
    def test_repeat_is_a_hit_and_shares_the_object(self):
        placement_cache_clear()
        first = make_placement(TOPO, 6, AffinityKind.SCATTER, 0.3)
        info = placement_cache_info()
        assert (info["hits"], info["misses"]) == (0, 1)
        second = make_placement(TOPO, 6, AffinityKind.SCATTER, 0.3)
        assert second is first  # frozen, safe to share
        info = placement_cache_info()
        assert (info["hits"], info["misses"]) == (1, 1)

    def test_key_discriminates_all_inputs(self):
        placement_cache_clear()
        make_placement(TOPO, 6, AffinityKind.SCATTER, 0.3)
        make_placement(TOPO, 7, AffinityKind.SCATTER, 0.3)
        make_placement(TOPO, 6, AffinityKind.COMPACT, 0.3)
        make_placement(TOPO, 6, AffinityKind.SCATTER, 0.4)
        info = placement_cache_info()
        assert info["misses"] == 4 and info["size"] == 4

    def test_placement_for_uses_the_cache(self):
        placement_cache_clear()
        direct = make_placement(TOPO, 4, AffinityKind.SCATTER, 0.3)
        via_rule = placement_for(TOPO, 4, 0.3, memory_intensive=True)
        assert via_rule is direct

    def test_clear_resets(self):
        make_placement(TOPO, 6, AffinityKind.SCATTER, 0.3)
        placement_cache_clear()
        info = placement_cache_info()
        assert info == {"hits": 0, "misses": 0, "size": 0}

    def test_validation_still_precedes_cache(self):
        placement_cache_clear()
        with pytest.raises(AffinityError):
            make_placement(TOPO, 0, AffinityKind.COMPACT, 0.3)
        assert placement_cache_info()["size"] == 0


class TestPolicyRules:
    def test_memory_intensive_scatters(self):
        p = placement_for(TOPO, 4, 0.3, memory_intensive=True)
        assert p.kind is AffinityKind.SCATTER

    def test_compute_bound_small_packs(self):
        p = placement_for(TOPO, 4, 0.3, memory_intensive=False)
        assert p.kind is AffinityKind.COMPACT

    def test_large_job_scatters_regardless(self):
        p = placement_for(TOPO, 20, 0.3, memory_intensive=False)
        assert p.kind is AffinityKind.SCATTER
