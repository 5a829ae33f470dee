"""Unit tests for the hardware specifications."""

import pytest

from repro.errors import SpecError
from repro.hw.specs import (
    ClusterSpec,
    CoreSpec,
    MemorySpec,
    NodeGroup,
    NodeSpec,
    SocketSpec,
    broadwell_node,
    haswell_node,
    haswell_testbed,
    mixed_testbed,
)
from repro.units import ghz


class TestCoreSpec:
    def test_defaults_valid(self):
        core = CoreSpec()
        assert core.ipc_peak == 4.0
        assert core.p_dyn_w > 0

    def test_rejects_nonpositive_ipc(self):
        with pytest.raises(SpecError):
            CoreSpec(ipc_peak=0.0)

    def test_rejects_negative_power(self):
        with pytest.raises(SpecError):
            CoreSpec(p_leak_w=-1.0)

    def test_rejects_implausible_exponent(self):
        with pytest.raises(SpecError):
            CoreSpec(dyn_exponent=5.0)
        with pytest.raises(SpecError):
            CoreSpec(dyn_exponent=0.5)


class TestMemorySpec:
    def test_p_max_is_base_plus_load(self):
        mem = MemorySpec(p_base_w=4.0, p_load_max_w=14.0)
        assert mem.p_max_w == pytest.approx(18.0)

    def test_bandwidth_levels_monotone(self):
        mem = MemorySpec()
        bws = [mem.bandwidth_at_level(i) for i in range(mem.n_power_levels)]
        assert bws == sorted(bws)
        assert bws[-1] == pytest.approx(mem.peak_bandwidth)

    def test_lowest_level_retains_floor(self):
        mem = MemorySpec(n_power_levels=8)
        assert mem.bandwidth_at_level(0) == pytest.approx(mem.peak_bandwidth / 8)

    def test_rejects_bad_level(self):
        mem = MemorySpec()
        with pytest.raises(SpecError):
            mem.bandwidth_at_level(-1)
        with pytest.raises(SpecError):
            mem.bandwidth_at_level(mem.n_power_levels)

    def test_rejects_zero_capacity(self):
        with pytest.raises(SpecError):
            MemorySpec(capacity_bytes=0)


class TestSocketSpec:
    def test_haswell_defaults(self):
        s = SocketSpec()
        assert s.n_cores == 12
        assert s.f_nominal == pytest.approx(ghz(2.3))
        assert s.f_min == pytest.approx(ghz(1.2))
        assert s.f_max == pytest.approx(ghz(3.1))
        assert s.tdp_w == pytest.approx(120.0)

    def test_ladder_spans_range(self):
        s = SocketSpec()
        assert s.freq_ladder[0] == pytest.approx(s.f_min)
        assert s.freq_ladder[-1] == pytest.approx(s.f_max)

    def test_pkg_max_exceeds_tdp_with_turbo(self):
        # all-core turbo is opportunistic: the uncapped ceiling is
        # above TDP, and RAPL's default PL1 clips it
        s = SocketSpec()
        assert s.p_pkg_max_w > s.tdp_w

    def test_rejects_bad_frequency_order(self):
        with pytest.raises(SpecError):
            SocketSpec(f_min=ghz(3.0), f_nominal=ghz(2.3), f_max=ghz(3.1))

    def test_rejects_unsorted_ladder(self):
        with pytest.raises(SpecError):
            SocketSpec(freq_ladder=(ghz(2.3), ghz(1.2), ghz(3.1)))

    def test_rejects_zero_cores(self):
        with pytest.raises(SpecError):
            SocketSpec(n_cores=0)


class TestNodeSpec:
    def test_paper_node_has_24_cores(self):
        node = haswell_node()
        assert node.n_sockets == 2
        assert node.n_cores == 24

    def test_power_ceilings_compose(self):
        node = haswell_node()
        assert node.p_node_max_w == pytest.approx(
            node.p_cpu_max_w + node.p_mem_max_w + node.p_other_w
        )

    def test_aggregate_bandwidth(self):
        node = haswell_node()
        assert node.peak_bandwidth == pytest.approx(
            2 * node.socket.memory.peak_bandwidth
        )

    def test_rejects_zero_sockets(self):
        with pytest.raises(SpecError):
            NodeSpec(n_sockets=0)


class TestClusterSpec:
    def test_paper_testbed_shape(self):
        spec = haswell_testbed()
        assert spec.n_nodes == 8
        assert sum(s.n_cores for s in spec.node_specs) == 192

    def test_cluster_peak_power(self):
        spec = haswell_testbed()
        assert spec.p_cluster_max_w == pytest.approx(8 * spec.node.p_node_max_w)

    def test_rejects_excess_variability(self):
        with pytest.raises(SpecError):
            ClusterSpec(
                groups=(NodeGroup(haswell_node(), 8),), variability_sigma=0.6
            )

    def test_rejects_zero_nodes(self):
        with pytest.raises(SpecError):
            haswell_testbed(n_nodes=0)

    def test_needs_a_population(self):
        with pytest.raises(SpecError):
            ClusterSpec()

    def test_custom_node_count(self):
        spec = haswell_testbed(n_nodes=4)
        assert spec.n_nodes == 4


class TestNodeGroups:
    def test_group_rejects_zero_count(self):
        with pytest.raises(SpecError):
            NodeGroup(haswell_node(), 0)

    def test_rejects_empty_groups(self):
        with pytest.raises(SpecError):
            ClusterSpec(groups=())

    def test_rejects_non_group_members(self):
        with pytest.raises(SpecError):
            ClusterSpec(groups=(haswell_node(),))

    def test_legacy_keywords_build_one_group(self):
        spec = haswell_testbed()
        assert spec.is_homogeneous
        assert len(spec.groups) == 1
        assert spec.groups[0].count == 8
        assert spec.node == spec.groups[0].spec
        # the testbed is exactly the one-group population: same
        # identity, hash and run-cache key as an explicit groups= build
        explicit = ClusterSpec(
            name="haswell-testbed",
            groups=(NodeGroup(haswell_node(), 8),),
            variability_seed=2017,
        )
        assert spec == explicit
        assert hash(spec) == hash(explicit)

    def test_node_specs_follow_group_order(self):
        hw, bw = haswell_node(), broadwell_node()
        spec = ClusterSpec(groups=(NodeGroup(hw, 2), NodeGroup(bw, 3)))
        assert spec.node_specs == (hw, hw, bw, bw, bw)

    def test_mixed_cluster_refuses_the_node_accessor(self):
        spec = mixed_testbed()
        with pytest.raises(SpecError, match="heterogeneous"):
            spec.node

    def test_mixed_testbed_shape(self):
        spec = mixed_testbed()
        assert spec.n_nodes == 8
        assert not spec.is_homogeneous
        # 4 x 24 Haswell cores + 4 x 40 Broadwell cores
        assert sum(s.n_cores for s in spec.node_specs) == 256
        names = [s.name for s in spec.node_specs]
        assert names == ["haswell"] * 4 + ["broadwell"] * 4

    def test_mixed_peak_power_sums_per_group(self):
        spec = mixed_testbed()
        expected = 4 * haswell_node().p_node_max_w + 4 * broadwell_node().p_node_max_w
        assert spec.p_cluster_max_w == pytest.approx(expected)

    def test_slot_zero_is_the_smallest_class(self):
        # profiling samples land on slot 0; its thread counts must be
        # valid on every slot, so the min-core class leads
        spec = mixed_testbed()
        assert spec.node_specs[0].n_cores == min(
            s.n_cores for s in spec.node_specs
        )


class TestRackSpecs:
    def test_rack_fleet_shape(self):
        spec = haswell_testbed(racks=8)
        assert spec.n_nodes == 64
        assert spec.n_racks == 8
        assert spec.rack_sizes == (8,) * 8
        assert spec.rack_names == tuple(f"rack{i}" for i in range(8))
        assert spec.rack_of_slot == tuple(i // 8 for i in range(64))

    def test_homogeneous_racks_stay_homogeneous(self):
        # identical racks of identical nodes merge into one group, so
        # the fast homogeneous paths still engage at fleet scale
        spec = haswell_testbed(racks=4)
        assert spec.is_homogeneous
        assert len(spec.groups) == 1

    def test_mixed_racks_keep_class_order(self):
        spec = mixed_testbed(racks=2)
        assert not spec.is_homogeneous
        names = [s.name for s in spec.node_specs]
        assert names == (["haswell"] * 4 + ["broadwell"] * 4) * 2

    def test_class_table_on_non_adjacent_repeats(self):
        # racks (haswell, gpu, haswell): the third rack repeats the
        # first class, so three groups collapse to two classes
        from repro.hw.specs import RackSpec, gpu_node

        hw, gpu = haswell_node(), gpu_node()
        spec = ClusterSpec(
            racks=(
                RackSpec("a", (NodeGroup(hw, 2),)),
                RackSpec("b", (NodeGroup(gpu, 3),)),
                RackSpec("c", (NodeGroup(hw, 1),)),
            )
        )
        assert len(spec.groups) == 3
        assert spec.node_classes == (hw, gpu)
        assert spec.slot_class == (0, 0, 1, 1, 1, 0)
        assert tuple(spec.node_classes[k] for k in spec.slot_class) == (
            spec.node_specs
        )
        assert not spec.is_homogeneous

    def test_class_table_of_a_one_class_fleet(self):
        spec = haswell_testbed(racks=4)
        assert spec.node_classes == (haswell_node(),)
        assert spec.slot_class == (0,) * 32

    def test_flat_spec_reports_one_rack(self):
        spec = haswell_testbed()
        assert spec.n_racks == 1
        assert spec.rack_sizes == (8,)
        assert spec.rack_of_slot == (0,) * 8

    def test_racks_one_is_the_legacy_spec(self):
        assert haswell_testbed(racks=1) == haswell_testbed()
        assert hash(haswell_testbed(racks=1)) == hash(haswell_testbed())

    def test_duplicate_rack_names_rejected(self):
        from repro.hw.specs import RackSpec

        group = (NodeGroup(haswell_node(), 2),)
        with pytest.raises(SpecError):
            ClusterSpec(racks=(RackSpec("r0", group), RackSpec("r0", group)))

    def test_racks_and_groups_are_exclusive(self):
        from repro.hw.specs import RackSpec

        group = (NodeGroup(haswell_node(), 2),)
        with pytest.raises(SpecError):
            ClusterSpec(
                racks=(RackSpec("r0", group),),
                groups=group,
            )

    def test_rack_needs_at_least_one_group(self):
        from repro.hw.specs import RackSpec

        with pytest.raises(SpecError):
            RackSpec("r0", ())


class TestGpuSpecs:
    """The accelerator domain at the spec layer."""

    def test_node_accessor_error_names_the_replacements(self):
        # the legacy single-class accessor must tell callers where to
        # go on a multi-group fleet (regression: the old message only
        # said "heterogeneous")
        from repro.hw.specs import mixed_gpu_testbed

        for spec in (mixed_testbed(), mixed_gpu_testbed()):
            with pytest.raises(SpecError, match="node_specs") as exc:
                spec.node
            assert "groups" in str(exc.value)

    def test_gpu_ladder_monotone(self):
        from repro.hw.specs import GpuSpec

        gpu = GpuSpec()
        assert gpu.clock_ladder_hz == tuple(sorted(gpu.clock_ladder_hz))
        assert gpu.clk_min_hz <= gpu.clk_nominal_hz <= gpu.clk_max_hz
        assert gpu.power_at(gpu.clk_min_hz) == gpu.p_min_w
        assert gpu.power_at(gpu.clk_max_hz) == gpu.p_max_w

    def test_node_level_views_align_with_ladder(self):
        from repro.hw.specs import gpu_node

        node = gpu_node()
        levels = node.gpu_cap_levels_w
        clocks = node.gpu_level_clocks_hz
        assert len(levels) == len(clocks)
        assert list(levels) == sorted(levels)
        assert list(clocks) == sorted(clocks)
        # the idle draw sits strictly under the lowest active level
        assert node.p_gpu_idle_w < node.p_gpu_min_w < node.p_gpu_max_w

    def test_cpu_node_reports_absent_not_zero_ladder(self):
        node = haswell_node()
        assert not node.has_gpu
        assert node.gpu_cap_levels_w == ()
        assert node.gpu_level_clocks_hz == ()
        assert node.p_gpu_max_w == 0.0

    def test_gpu_requires_count_and_count_requires_gpu(self):
        from repro.hw.specs import GpuSpec, gpu_node

        base = gpu_node()
        with pytest.raises(SpecError):
            NodeSpec(name="x", socket=SocketSpec(), gpu=GpuSpec(), n_gpus=0)
        with pytest.raises(SpecError):
            NodeSpec(name="x", socket=SocketSpec(), n_gpus=1)
        assert base.p_node_max_w > haswell_node().p_node_max_w

    def test_gpu_testbed_shape(self):
        from repro.hw.specs import gpu_testbed

        spec = gpu_testbed()
        assert spec.n_nodes == 8
        assert spec.is_homogeneous
        assert all(s.has_gpu for s in spec.node_specs)

    def test_mixed_gpu_testbed_puts_the_gpu_class_first(self):
        # profiling samples land on slot 0, which must be the
        # accelerated class for offload behaviour to be observable
        from repro.hw.specs import mixed_gpu_testbed

        spec = mixed_gpu_testbed()
        assert spec.n_nodes == 8
        assert not spec.is_homogeneous
        flags = [s.has_gpu for s in spec.node_specs]
        assert flags == [True] * 4 + [False] * 4
        # both classes share the Haswell host, so one thread count
        # is valid fleet-wide
        assert len({s.n_cores for s in spec.node_specs}) == 1

    def test_gpu_rack_fleet(self):
        from repro.hw.specs import mixed_gpu_testbed

        spec = mixed_gpu_testbed(racks=2)
        assert spec.n_racks == 2
        flags = [s.has_gpu for s in spec.node_specs]
        assert flags == ([True] * 4 + [False] * 4) * 2
