"""Tests for the comparison schedulers (§V-C)."""

import pytest

from repro.baselines import (
    AllInScheduler,
    CoordinatedScheduler,
    LowerLimitScheduler,
    OracleScheduler,
)
from repro.baselines import lowerlimit
from repro.baselines.allin import ALLIN_MEM_W
from repro.errors import InfeasibleBudgetError
from repro.hw.cluster import SimulatedCluster
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app


class ScalarEngine(ExecutionEngine):
    """An engine whose what-if evaluation loops the scalar ``run``."""

    def evaluate_many(self, app, configs):
        return [self.run(app, cfg) for cfg in configs]


class TestAllIn:
    def test_uses_all_nodes_all_cores(self, engine):
        cfg = AllInScheduler(engine).plan(get_app("comd"), 1600.0)
        assert cfg.n_nodes == 8
        assert cfg.n_threads == 24

    def test_fixed_memory_grant(self, engine):
        cfg = AllInScheduler(engine).plan(get_app("stream"), 1600.0)
        assert cfg.dram_cap_w == pytest.approx(ALLIN_MEM_W)
        assert cfg.pkg_cap_w == pytest.approx(1600.0 / 8 - ALLIN_MEM_W)

    def test_oblivious_to_application(self, engine):
        sched = AllInScheduler(engine)
        a = sched.plan(get_app("comd"), 1600.0)
        b = sched.plan(get_app("stream"), 1600.0)
        assert (a.pkg_cap_w, a.dram_cap_w, a.n_threads) == (
            b.pkg_cap_w,
            b.dram_cap_w,
            b.n_threads,
        )

    def test_absurd_budget_raises(self, engine):
        with pytest.raises(InfeasibleBudgetError):
            AllInScheduler(engine).plan(get_app("comd"), 200.0)

    def test_run_produces_result(self, engine):
        r = AllInScheduler(engine).run(get_app("comd"), 1600.0, iterations=2)
        assert r.n_nodes == 8
        assert r.performance > 0


class TestLowerLimit:
    def test_sheds_nodes_below_floor(self, engine):
        cfg = LowerLimitScheduler(engine).plan(get_app("comd"), 900.0)
        assert cfg.n_nodes == 5  # floor(900 / 180)

    def test_all_nodes_when_budget_allows(self, engine):
        cfg = LowerLimitScheduler(engine).plan(get_app("comd"), 8 * 200.0)
        assert cfg.n_nodes == 8

    def test_budget_below_floor_raises(self, engine):
        with pytest.raises(InfeasibleBudgetError):
            LowerLimitScheduler(engine).plan(get_app("comd"), 150.0)

    def test_custom_floor(self, engine, monkeypatch):
        monkeypatch.setattr(lowerlimit, "NODE_FLOOR_W", 220.0)
        cfg = LowerLimitScheduler(engine).plan(get_app("comd"), 900.0)
        assert cfg.n_nodes == 4

    def test_floor_must_exceed_mem_grant(self):
        # the rest of the floor is the PKG cap, which must stay positive
        assert lowerlimit.NODE_FLOOR_W > ALLIN_MEM_W

    def test_still_all_cores(self, engine):
        cfg = LowerLimitScheduler(engine).plan(get_app("sp-mz.C"), 1100.0)
        assert cfg.n_threads == 24


class TestCoordinated:
    def test_app_specific_floor(self, engine):
        sched = CoordinatedScheduler(engine)
        light = sched.plan(get_app("ep.C"), 900.0)
        heavy = sched.plan(get_app("stream"), 900.0)
        # different applications may keep different node counts
        assert light.n_nodes >= 1 and heavy.n_nodes >= 1

    def test_model_driven_split(self, engine):
        sched = CoordinatedScheduler(engine)
        mem_cfg = sched.plan(get_app("stream"), 1400.0)
        cpu_cfg = sched.plan(get_app("ep.C"), 1400.0)
        assert mem_cfg.dram_cap_w > cpu_cfg.dram_cap_w

    def test_always_max_concurrency(self, engine):
        sched = CoordinatedScheduler(engine)
        for name in ("sp-mz.C", "tealeaf", "comd"):
            assert sched.plan(get_app(name), 1400.0).n_threads == 24

    def test_profiles_cached_in_kb(self, engine):
        from repro.core.knowledge import KnowledgeDB

        kb = KnowledgeDB()
        sched = CoordinatedScheduler(engine, knowledge=kb)
        sched.plan(get_app("comd"), 1400.0)
        assert kb.has("comd", "-n 240 240 240")
        sched.plan(get_app("comd"), 900.0)  # second plan reuses it
        assert len(kb) == 1

    def test_budget_respected(self, engine):
        cfg = CoordinatedScheduler(engine).plan(get_app("bt-mz.C"), 1200.0)
        assert cfg.n_nodes * (cfg.pkg_cap_w + cfg.dram_cap_w) <= 1200.0 * (1 + 1e-9)


class TestOracle:
    def test_finds_budget_respecting_config(self, engine):
        oracle = OracleScheduler(engine, thread_step=6)
        cfg = oracle.plan(get_app("sp-mz.C"), 1400.0)
        r = engine.run(get_app("sp-mz.C"), cfg)
        drawn = sum(
            n.operating_point.pkg_power_w + n.operating_point.dram_power_w
            for n in r.nodes
        )
        assert drawn <= 1400.0 * (1 + 1e-6)

    def test_oracle_beats_or_matches_allin(self, engine):
        app = get_app("sp-mz.C")
        oracle = OracleScheduler(engine, thread_step=6).run(
            app, 1400.0, iterations=2
        )
        allin = AllInScheduler(engine).run(app, 1400.0, iterations=2)
        assert oracle.performance >= allin.performance * (1 - 1e-9)

    def test_oracle_throttles_parabolic_apps(self, engine):
        cfg = OracleScheduler(engine, thread_step=4).plan(
            get_app("sp-mz.C"), 1800.0
        )
        assert cfg.n_threads < 24

    def test_thread_grid_includes_serial_and_full_node(self, engine):
        grid = OracleScheduler(engine).thread_grid
        n_cores = engine.cluster.spec.node.n_cores
        assert grid[0] == 1  # serial execution is swept, not skipped
        assert grid[-1] == n_cores
        assert grid == tuple(sorted(set(grid)))

    def test_dram_grid_starts_at_hardware_floor(self, engine):
        node = engine.cluster.spec.node
        floor = node.n_sockets * node.socket.memory.p_base_w
        grid = OracleScheduler(engine).dram_grid_w
        assert grid[0] == pytest.approx(floor)
        assert grid[-1] == pytest.approx(node.p_mem_max_w)

    def test_batch_and_scalar_paths_agree(self, engine):
        app = get_app("sp-mz.C")
        batch = OracleScheduler(engine, thread_step=6)
        scalar = OracleScheduler(
            ScalarEngine(SimulatedCluster.testbed(), seed=42), thread_step=6
        )
        for budget in (900.0, 1400.0):
            assert batch.plan(app, budget) == scalar.plan(app, budget)
            assert batch.search_stats == scalar.search_stats

    def test_search_stats_bookkeeping(self, engine):
        oracle = OracleScheduler(engine, thread_step=6)
        oracle.plan(get_app("comd"), 1200.0)
        stats = oracle.search_stats
        assert stats["candidates"] == stats["pruned"] + stats["evaluated"]
        assert 0 < stats["feasible"] <= stats["evaluated"]

    def test_pruning_is_sound(self, engine):
        """Every pruned candidate really does overshoot the budget.

        At a budget barely above one node's power floor the analytic
        prune fires; executing a pruned-shape candidate must confirm it
        could never have passed the budget filter.
        """
        from repro.baselines.optimal import BUDGET_TOLERANCE
        from repro.sim.engine import ExecutionConfig

        node = engine.cluster.spec.node
        floor_1x1 = (
            node.n_sockets * node.socket.p_base_w
            + node.n_sockets * node.socket.memory.p_base_w
            + node.socket.core.p_leak_w
        )
        budget = floor_1x1 * 1.5
        oracle = OracleScheduler(engine, thread_step=6)
        try:
            oracle.plan(get_app("ep.C"), budget)
        except InfeasibleBudgetError:
            pass  # fine — stats are still recorded
        stats = oracle.search_stats
        assert stats["pruned"] > 0
        # the largest pruned shape: all nodes, all cores
        cfg = ExecutionConfig(
            n_nodes=engine.cluster.n_nodes,
            n_threads=node.n_cores,
            iterations=2,
        )
        r = engine.run(get_app("ep.C"), cfg)
        drawn = sum(
            n.operating_point.pkg_power_w + n.operating_point.dram_power_w
            for n in r.nodes
        )
        assert drawn > budget * BUDGET_TOLERANCE
