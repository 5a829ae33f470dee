"""What-if candidate evaluation: path choice and array kernel.

The exhaustive oracle, node calibration, the profiler, and every figure
benchmark score :class:`~repro.sim.engine.ExecutionConfig` candidates
without executing them.  The scalar :meth:`ExecutionEngine.run` pays
Python-loop cost per node, per phase, per fixed-point round; the array
kernel here pays a fixed cost per call instead.  So
:meth:`BatchEvaluator.run_many` answers a large one-class CPU batch as
one ``(n_candidates, n_nodes)`` NumPy array program: a vectorized
replication of the engine's damped fixed-point loop (cap resolution ↔
timing), numerically identical to the scalar path.  Every expression
keeps the scalar code's evaluation order, per-socket reductions run in
socket order, and per-element convergence is tracked with a done-mask
so each (candidate, node) cell freezes at exactly the round the scalar
loop would have broken.

The kernel covers what its callers send -- the exhaustive oracle and
the node calibration, which calibrates one hardware class per call:
a batch whose every participant belongs to one hardware class without
an accelerator, and no per-phase thread overrides.  So one call holds
one set of class constants as scalars (tabled per class on first use:
the DVFS ladder and its ``pow`` factors), one placement per candidate,
and one exact scalar ``np.power`` exponent.  Everything else -- a batch
of at most :data:`FLOAT_PATH_MAX_CELLS` node-cells, a batch that spans
hardware classes or reaches a GPU class, a batch that sets
``phase_threads`` -- runs on the engine's own float code as a what-if
(docs/performance.md §8).

Both paths are side-effect-free: they do not program RAPL caps,
count throttle events, accumulate energy counters, or touch power
meters, and they take caps from the config rather than the nodes
(:meth:`ExecutionEngine.run` is the way to *execute* a job when those
side effects matter).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.hw.counters import CACHE_LINE_BYTES, READ_FRACTION, EventCounters
from repro.hw.dvfs import FrequencyLadder
from repro.hw.power import freq_power_factor, ladder_power_factors
from repro.hw.rapl import MIN_DUTY_CYCLE, OperatingPoint
from repro.sim.affinity import make_placement, placement_for
from repro.sim.trace import NodeRunRecord, RunResult
from repro.workloads.characteristics import WorkloadCharacteristics
from repro.workloads.model import (
    ODD_CONCURRENCY_PENALTY,
    PHASE_OVERSUBSCRIPTION_PENALTY,
    REMOTE_EFFICIENCY,
    UNCORE_BW_FLOOR,
    _clip_total_threads,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us lazily)
    from repro.sim.engine import ExecutionConfig, ExecutionEngine

__all__ = ["FLOAT_PATH_MAX_CELLS", "BatchEvaluator"]

#: Largest batch, in participating node-cells (the sum of ``n_nodes``
#: over the configs), that :meth:`BatchEvaluator.run_many`
#: evaluates on the engine's float code instead of the array program.
#: The kernel pays ~0.55 ms per call plus a little per cell, the float
#: path ~0.15 ms per cell; they break even at about 6 cells for
#: one-phase apps (docs/performance.md §8).
FLOAT_PATH_MAX_CELLS = 6

#: Fixed-point iteration control — mirrors repro.sim.engine exactly.
_MAX_ROUNDS = 12
_DAMPING = 0.5
_REL_TOL = 1e-6
_IDLE_ACTIVITY = 0.05


class BatchEvaluator:
    """Scores many execution configurations against one engine at once.

    Results are exactly those :meth:`ExecutionEngine.run` would return
    on a fault-free cluster (the equivalence is pinned by
    ``tests/sim/test_batch.py``), minus the hardware side effects — see
    the module docstring.
    """

    def __init__(self, engine: "ExecutionEngine"):
        self._engine = engine
        self._cluster = engine.cluster
        self._class_list = engine.cluster.spec.node_classes
        self._slot_class = engine.cluster.spec.slot_class
        # per hardware class, built on its first kernel call: the DVFS
        # ladder, its frequencies and their (f / f_nom) ** k from the
        # power model's scalar rule (the vectorized SIMD pow can differ
        # from it by 1 ulp), and that factor at f_min
        self._ladders: dict[int, tuple] = {}

    # ------------------------------------------------------------------

    def run_many(
        self,
        app: WorkloadCharacteristics,
        configs: list["ExecutionConfig"],
    ) -> list[RunResult]:
        """Evaluate *app* under every config.

        Returns one :class:`RunResult` per config, in input order.  The
        configs run on the array kernel when they span more than
        :data:`FLOAT_PATH_MAX_CELLS` node-cells, all of one CPU-only
        hardware class, and set no ``phase_threads``; else on the
        engine's float code.  Both validate every config first, raise
        the same errors, and give the same bits.
        """
        if not configs:
            return []
        if (
            sum(c.n_nodes for c in configs) <= FLOAT_PATH_MAX_CELLS
            or any(c.phase_threads for c in configs)
            or self._cpu_class(configs) is None
        ):
            return self._engine._what_if(app, configs)
        return self._evaluate(app, configs)

    def _cpu_class(self, configs: list["ExecutionConfig"]) -> int | None:
        """The hardware class every participant of *configs* belongs to.

        ``None`` when they span classes, when that class has a GPU, or
        when a config names a slot the cluster lacks (validation then
        raises the error).
        """
        slot_class = self._slot_class
        n = len(slot_class)
        classes = {
            slot_class[i] if 0 <= i < n else None
            for cfg in configs
            for i in (range(cfg.n_nodes) if cfg.node_ids is None else cfg.node_ids)
        }
        if len(classes) != 1:
            return None
        (k,) = classes
        return None if k is None or self._class_list[k].has_gpu else k

    # ------------------------------------------------------------------
    # the vectorized array program
    # ------------------------------------------------------------------

    def _evaluate(
        self,
        app: WorkloadCharacteristics,
        configs: list["ExecutionConfig"],
    ) -> list[RunResult]:
        if any(c.phase_threads for c in configs):
            raise ValueError(
                "the array kernel takes no phase_threads; use "
                "ExecutionEngine.evaluate_many"
            )
        cluster = self._cluster
        C = len(configs)

        # -- validation, shared with the float what-if path -------------
        participants_ids = [
            tuple(n.node_id for n in self._engine._what_if_participants(cfg))
            for cfg in configs
        ]
        k = self._cpu_class(configs)
        if k is None:
            raise ValueError(
                "the array kernel takes one CPU-only hardware class per "
                "call; use ExecutionEngine.evaluate_many"
            )
        spec = self._class_list[k]
        socket = spec.socket
        if k not in self._ladders:
            ladder = FrequencyLadder.from_socket(socket)
            self._ladders[k] = (
                ladder,
                np.asarray(ladder.frequencies, dtype=np.float64),
                np.array(ladder_power_factors(socket)),
                freq_power_factor(socket, socket.f_min),
            )
        ladder, freqs, pow_ladder, relmin = self._ladders[k]
        S = spec.n_sockets
        f_min, f_max, f_nom = socket.f_min, socket.f_max, socket.f_nominal
        p_base_pkg = socket.p_base_w
        p_leak, p_dyn = socket.core.p_leak_w, socket.core.p_dyn_w
        p_base_mem = socket.memory.p_base_w
        p_load_mem = socket.memory.p_load_max_w
        peak_bw = socket.memory.peak_bandwidth
        bw_floor = socket.memory.bandwidth_at_level(0)
        inv_k = 1.0 / socket.core.dyn_exponent
        p_other = spec.p_other_w

        NN = max(len(ids) for ids in participants_ids)
        mask = np.zeros((C, NN), dtype=bool)
        node_index = np.zeros((C, NN), dtype=np.int64)
        for c, ids in enumerate(participants_ids):
            mask[c, : len(ids)] = True
            node_index[c, : len(ids)] = ids
        eff_all = np.array([n.efficiency for n in cluster.nodes])
        eff = eff_all[node_index]  # (C, NN)

        # caps -> effective domain limits, like RaplDomain.effective_cap_w
        pkg_cap = np.full((C, NN), S * socket.tdp_w)
        dram_cap = np.full((C, NN), spec.p_mem_max_w)
        for c, cfg in enumerate(configs):
            for rank in range(len(participants_ids[c])):
                p, d = cfg.caps_for(rank)
                if p is not None:
                    pkg_cap[c, rank] = min(p, pkg_cap[c, rank])
                if d is not None:
                    dram_cap[c, rank] = min(d, dram_cap[c, rank])

        # one placement per config: every node of a class shares it
        placements = []
        for cfg, ids in zip(configs, participants_ids):
            topo = cluster.node(ids[0]).numa
            if cfg.affinity is None:
                placements.append(placement_for(
                    topo, cfg.n_threads, app.shared_fraction,
                    app.is_memory_intensive,
                ))
            else:
                placements.append(make_placement(
                    topo, cfg.n_threads, cfg.affinity, app.shared_fraction
                ))
        tps_full = np.array(
            [p.threads_per_socket for p in placements], dtype=np.int64
        )  # (C, S)
        remote = np.array([p.remote_fraction for p in placements])  # (C,)

        n_threads = np.array([cfg.n_threads for cfg in configs], dtype=np.int64)
        iterations = np.array(
            [cfg.iterations or app.iterations for cfg in configs], dtype=np.int64
        )
        # strong scaling: the global problem divided over the nodes
        work_fraction = np.array([1.0 / cfg.n_nodes for cfg in configs])

        # frequency pins -> quantized demand, like resolve()
        f_demand = np.array([
            f_max if cfg.frequency_hz is None
            else ladder.quantize_down(cfg.frequency_hz)
            for cfg in configs
        ])[:, None]  # (C, 1)

        # -- per-phase structures (phase count P is tiny) ----------------
        phases = app.effective_phases()
        P = len(phases)
        phase_names = [ph.name for ph in phases]
        # per-phase scalar characteristics, exactly as phase_view derives
        base_instr = np.array(
            [app.instructions_per_iter * ph.weight for ph in phases]
        )
        bpi = np.array(
            [
                ph.bytes_per_instruction
                if ph.bytes_per_instruction is not None
                else app.bytes_per_instruction
                for ph in phases
            ]
        )
        sync_cost = np.array(
            [
                (ph.sync_cost_s if ph.sync_cost_s is not None else app.sync_cost_s)
                * ph.weight
                for ph in phases
            ]
        )
        # phase thread histograms after max_useful clipping, with the
        # oversubscription and odd-count penalties their totals imply
        tps_phase = np.zeros((C, P, S), dtype=np.int64)
        oversub = np.ones((C, P))
        n_phase = np.zeros((C, P), dtype=np.int64)
        for c, placement in enumerate(placements):
            for j, ph in enumerate(phases):
                tps = np.asarray(placement.threads_per_socket, dtype=np.int64)
                if ph.max_useful_threads is not None:
                    excess = int(tps.sum()) - ph.max_useful_threads
                    if excess > 0:
                        oversub[c, j] = 1.0 + PHASE_OVERSUBSCRIPTION_PENALTY * (
                            excess / ph.max_useful_threads
                        )
                    tps = _clip_total_threads(tps, ph.max_useful_threads)
                tps_phase[c, j] = tps
                n_phase[c, j] = int(tps.sum())

        odd_phase = (n_phase % 2 == 1) & (n_phase > 1)
        extract = tps_phase * app.per_thread_bw_limit  # (C, P, S)
        bw_penalty = 1.0 - remote * (1.0 - REMOTE_EFFICIENCY)  # (C,)
        instr_phase = base_instr[None, :] * work_fraction[:, None]  # (C, P)
        serial_instr = instr_phase * app.serial_fraction
        par_instr = instr_phase - serial_instr
        dram_bytes_phase = instr_phase * bpi[None, :]
        rate_coeff = app.ipc_fraction * socket.core.ipc_peak
        t_sync_phase = sync_cost[None, :] * np.maximum(n_phase - 1, 0)

        # scalar path accumulates in phase order starting from 0.0;
        # sequential addition keeps the identical FP ordering
        instr_total = np.zeros(C)
        dram_total = np.zeros(C)
        for j in range(P):
            instr_total = instr_total + instr_phase[:, j]
            dram_total = dram_total + dram_bytes_phase[:, j]

        def timing(f_eff: np.ndarray, bw_limit: np.ndarray):
            """Vectorized GroundTruthModel.iteration_time over (C, NN).

            ``f_eff`` is the duty-scaled effective frequency and
            ``bw_limit`` the per-socket RAPL bandwidth ceiling (uniform
            across sockets, as resolve() grants).  Returns the aggregate
            t_iter, activity, per-socket demand, and per-phase times.
            """
            tot_t = np.zeros((C, NN))
            busy_weighted = np.zeros((C, NN))
            demand_acc = np.zeros((C, NN, S))
            phase_t = np.empty((C, NN, P))
            rate1 = rate_coeff * f_eff  # (C, NN)
            uncore = np.minimum(
                1.0,
                UNCORE_BW_FLOOR + (1.0 - UNCORE_BW_FLOOR) * f_eff / f_nom,
            )
            peak_u = peak_bw * uncore  # (C, NN)
            for j in range(P):
                t_serial = serial_instr[:, j, None] / rate1
                t_comp = par_instr[:, j, None] / (n_phase[:, j, None] * rate1)
                bw = (
                    np.minimum(
                        np.minimum(bw_limit[:, :, None], extract[:, None, j, :]),
                        peak_u[:, :, None],
                    )
                    * bw_penalty[:, None, None]
                )  # (C, NN, S)
                total_bw = bw.sum(axis=2)
                with np.errstate(divide="ignore", invalid="ignore"):
                    t_mem = np.where(
                        dram_bytes_phase[:, j, None] > 0,
                        dram_bytes_phase[:, j, None] / total_bw,
                        0.0,
                    )
                t_par = np.maximum(t_comp, t_mem)
                t_iter = t_serial + t_par + t_sync_phase[:, j, None]
                t_iter = np.where(
                    odd_phase[:, j, None],
                    t_iter * (1.0 + ODD_CONCURRENCY_PENALTY),
                    t_iter,
                )
                busy = t_serial + t_comp + 0.5 * t_sync_phase[:, j, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    act = np.clip(
                        np.where(t_iter > 0, busy / t_iter, 1.0), 0.05, 1.0
                    )
                    cond = (
                        (dram_bytes_phase[:, j, None, None] > 0)
                        & (t_iter[:, :, None] > 0)
                        & (total_bw[:, :, None] > 0)
                    )
                    dem = np.where(
                        cond,
                        (bw / total_bw[:, :, None])
                        * dram_bytes_phase[:, j, None, None]
                        / t_iter[:, :, None],
                        0.0,
                    )
                t_scaled = t_iter * oversub[:, j, None]
                phase_t[:, :, j] = t_scaled
                tot_t = tot_t + t_scaled
                busy_weighted = busy_weighted + act * t_scaled
                demand_acc = demand_acc + dem * t_scaled[:, :, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                act_out = np.where(tot_t > 0, busy_weighted / tot_t, 1.0)
                dem_out = np.where(
                    tot_t[:, :, None] > 0,
                    demand_acc / tot_t[:, :, None],
                    demand_acc,
                )
            return tot_t, act_out, dem_out, phase_t

        def resolve(act: np.ndarray, dem: np.ndarray):
            """Vectorized RaplInterface.resolve over (C, NN).

            Mirrors the scalar control flow branch by branch: DRAM cap
            → bandwidth ceiling (with the level-0 floor), PKG cap →
            continuous frequency (with the duty-cycle fallback below
            f_min), ladder quantization, and the per-socket power sums
            in socket order.
            """
            # --- DRAM ---------------------------------------------------
            per_cap = dram_cap / S  # (C, NN)
            budget = per_cap / eff - p_base_mem
            mem_violated = budget < 0
            util = np.minimum(np.maximum(budget, 0.0) / p_load_mem, 1.0)
            limit = np.where(mem_violated, bw_floor, util * peak_bw)
            delivered = np.minimum(dem, limit[:, :, None])
            mem_throttled = mem_violated | (
                dem > (limit * (1 + 1e-9))[:, :, None]
            ).any(axis=2)
            dram_w = np.zeros((C, NN))
            for s in range(S):
                dram_w = dram_w + (
                    p_base_mem
                    + p_load_mem
                    * np.minimum(delivered[:, :, s] / peak_bw, 1.0)
                ) * eff

            # --- PKG ----------------------------------------------------
            # continuous inversion, as max_freq_under_pkg_cap computes it
            base = S * p_base_pkg
            static = (base + n_threads[:, None] * p_leak) * eff
            dyn_budget = pkg_cap - static
            act_mean = act  # np.mean of a scalar is the scalar
            denom = eff * n_threads[:, None] * p_dyn * act_mean
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.maximum(dyn_budget, 0.0) / denom
                rel = np.power(ratio, inv_k)
            f_unc = rel * f_nom
            fallback = (dyn_budget < 0) | (f_unc < f_min)
            f_cont = np.where(fallback, f_min, np.minimum(f_unc, f_max))
            # duty-cycle fallback uses the per-socket static/dynamic sums
            core0 = p_leak  # core_power(f=0): dynamic term vanishes
            core_fmin = p_leak + p_dyn * relmin * act_mean
            static_fb = np.zeros((C, NN))
            pkg_fmin = np.zeros((C, NN))
            for s in range(S):
                tps_s = tps_full[:, s, None]
                static_fb = static_fb + (p_base_pkg + tps_s * core0) * eff
                pkg_fmin = pkg_fmin + (p_base_pkg + tps_s * core_fmin) * eff
            dyn_fmin = pkg_fmin - static_fb
            with np.errstate(divide="ignore", invalid="ignore"):
                duty_fb = np.where(
                    dyn_fmin > 0, (pkg_cap - static_fb) / dyn_fmin, 1.0
                )
            duty_fb = np.clip(duty_fb, MIN_DUTY_CYCLE, 1.0)
            duty = np.where(fallback, duty_fb, 1.0)
            cpu_violated = fallback & (
                pkg_cap < static_fb + MIN_DUTY_CYCLE * np.maximum(dyn_fmin, 0.0)
            )
            # quantize_down: largest ladder frequency <= f + 1e-6
            idx = np.searchsorted(freqs, f_cont + 1e-6, side="right")
            f_allowed = freqs[np.maximum(idx - 1, 0)]
            cpu_throttled = (
                (duty < 1.0) | cpu_violated | (f_allowed < f_demand)
            )
            f = np.minimum(f_demand, f_allowed)
            # f is always a rung of the ladder: look its (f/f_nom)^k up
            # in the scalar-path table instead of re-running vectorized pow
            pow_f = pow_ladder[np.searchsorted(freqs, f)]
            core_f = p_leak + p_dyn * pow_f * act_mean
            pkg_w = np.zeros((C, NN))
            for s in range(S):
                tps_s = tps_full[:, s, None]
                pkg0 = (p_base_pkg + tps_s * core0) * eff
                pkgf = (p_base_pkg + tps_s * core_f) * eff
                pkg_w = pkg_w + (pkg0 + (pkgf - pkg0) * duty)
            return {
                "f": f,
                "f_eff": f * duty,
                "limit": limit,
                "pkg_w": pkg_w,
                "dram_w": dram_w,
                "duty": duty,
                "cpu_throttled": cpu_throttled,
                "mem_throttled": mem_throttled,
                "cpu_violated": cpu_violated,
                "mem_violated": mem_violated,
            }

        # -- damped fixed point with per-element convergence freezing ----
        state_act = np.full((C, NN), 0.9)
        state_dem = np.where(
            tps_full[:, None, :] > 0, peak_bw, np.zeros((C, NN, S))
        )
        done = ~mask  # non-participating slots never iterate
        prev_t = np.zeros((C, NN))
        have_prev = False
        fz_t = np.zeros((C, NN))
        fz_act = np.zeros((C, NN))
        fz_dem = np.zeros((C, NN, S))
        fz_phase = np.zeros((C, NN, P))
        for _ in range(_MAX_ROUNDS):
            op = resolve(state_act, state_dem)
            t_iter, act_t, dem_t, phase_t = timing(op["f_eff"], op["limit"])
            upd = ~done
            fz_t = np.where(upd, t_iter, fz_t)
            fz_act = np.where(upd, act_t, fz_act)
            fz_dem = np.where(upd[:, :, None], dem_t, fz_dem)
            fz_phase = np.where(upd[:, :, None], phase_t, fz_phase)
            state_act = np.where(
                upd, _DAMPING * state_act + (1 - _DAMPING) * act_t, state_act
            )
            state_dem = np.where(
                upd[:, :, None],
                _DAMPING * state_dem + (1 - _DAMPING) * dem_t,
                state_dem,
            )
            if have_prev:
                done = done | (
                    upd & (np.abs(t_iter - prev_t) <= _REL_TOL * prev_t)
                )
            prev_t = np.where(upd, t_iter, prev_t)
            have_prev = True
            if done.all():
                break

        # final consistency pass with the converged activity/demand
        op = resolve(fz_act, fz_dem)

        # -- step time, energy, events (same aggregation order) ----------
        comm_cache: dict[int, float] = {}
        comm = np.empty(C)
        for c, cfg in enumerate(configs):
            if cfg.n_nodes not in comm_cache:
                comm_cache[cfg.n_nodes] = self._engine.comm_model.iteration_time(
                    app, cfg.n_nodes
                )
            comm[c] = comm_cache[cfg.n_nodes]
        t_step = np.where(mask, fz_t, -np.inf).max(axis=1) + comm  # (C,)
        total_time = iterations * t_step

        core_idle = p_leak + p_dyn * relmin * _IDLE_ACTIVITY
        idle_pkg = np.zeros((C, NN))
        for s in range(S):
            idle_pkg = idle_pkg + (
                p_base_pkg + tps_full[:, s, None] * core_idle
            ) * eff
        idle_dram = S * ((p_base_mem + p_load_mem * 0.0) * eff)
        with np.errstate(divide="ignore", invalid="ignore"):
            busy_frac = np.where(
                t_step[:, None] > 0, fz_t / t_step[:, None], 1.0
            )
        avg_pkg = op["pkg_w"] * busy_frac + idle_pkg * (1.0 - busy_frac)
        avg_dram = op["dram_w"] * busy_frac + idle_dram * (1.0 - busy_frac)
        node_energy = (avg_pkg + avg_dram + p_other) * total_time[:, None]
        # sequential rank-order sums replicate the scalar accumulation
        energy = np.zeros(C)
        peak = np.zeros(C)
        for r in range(NN):
            energy = energy + np.where(mask[:, r], node_energy[:, r], 0.0)
            rank_peak = op["pkg_w"][:, r] + op["dram_w"][:, r]
            peak = peak + np.where(mask[:, r], rank_peak, 0.0)
        # p_other enters peak as the scalar engine adds it for one
        # hardware class: count * value
        peak = peak + mask.sum(axis=1) * p_other
        with np.errstate(divide="ignore", invalid="ignore"):
            avg_power = np.where(total_time > 0, energy / total_time, 0.0)

        # event-counter synthesis (vectorized values, per-config noise)
        instr_run = instr_total * iterations  # (C,)
        bytes_run = dram_total * iterations
        duration = fz_t * iterations[:, None]  # (C, NN)
        reads = bytes_run * READ_FRACTION
        writes = bytes_run - reads
        misses = bytes_run / CACHE_LINE_BYTES
        values = np.empty((C, NN, 7))
        values[:, :, 0] = (app.icache_mpki * instr_run / 1e3)[:, None]
        values[:, :, 1] = reads[:, None]
        values[:, :, 2] = writes[:, None]
        values[:, :, 3] = (misses * (1.0 - remote))[:, None]
        values[:, :, 4] = (misses * remote)[:, None]
        values[:, :, 5] = n_threads[:, None] * op["f_eff"] * duration
        values[:, :, 6] = instr_run[:, None]
        # noise draws: one generator per (n_nodes, n_threads), ranks
        # consuming sequential normal(7) draws — the scalar stream
        name_hash = sum(
            ord(ch) * (i + 1) for i, ch in enumerate(app.name)
        ) % (2**31)
        seed = self._engine.seed
        draw_cache: dict[tuple[int, int], list[np.ndarray]] = {}
        noise = np.zeros((C, NN, 7))
        for c, cfg in enumerate(configs):
            dkey = (cfg.n_nodes, cfg.n_threads)
            if dkey not in draw_cache:
                rng = np.random.default_rng(
                    [seed, name_hash, cfg.n_nodes, cfg.n_threads]
                )
                draw_cache[dkey] = [
                    rng.normal(0.0, 0.01, size=7) for _ in range(cfg.n_nodes)
                ]
            for rank in range(len(participants_ids[c])):
                noise[c, rank] = draw_cache[dkey][rank]
        values = values * np.exp(noise)

        # -- assemble RunResult objects ----------------------------------
        results: list[RunResult] = []
        for c, cfg in enumerate(configs):
            records = []
            for rank, node_id in enumerate(participants_ids[c]):
                point = OperatingPoint(
                    frequency_hz=float(op["f"][c, rank]),
                    bandwidth_per_socket=(float(op["limit"][c, rank]),) * S,
                    pkg_power_w=float(op["pkg_w"][c, rank]),
                    dram_power_w=float(op["dram_w"][c, rank]),
                    cpu_throttled=bool(op["cpu_throttled"][c, rank]),
                    mem_throttled=bool(op["mem_throttled"][c, rank]),
                    cpu_cap_violated=bool(op["cpu_violated"][c, rank]),
                    mem_cap_violated=bool(op["mem_violated"][c, rank]),
                    duty_cycle=float(op["duty"][c, rank]),
                )
                events = EventCounters(
                    event0=float(values[c, rank, 0]),
                    event1=float(values[c, rank, 1]),
                    event2=float(values[c, rank, 2]),
                    event3=float(values[c, rank, 3]),
                    event4=float(values[c, rank, 4]),
                    event5=float(values[c, rank, 5]),
                    event6=float(values[c, rank, 6]),
                    event7=0.0,
                    duration_s=float(duration[c, rank]),
                )
                records.append(
                    NodeRunRecord(
                        node_id=node_id,
                        operating_point=point,
                        t_iter_s=float(fz_t[c, rank]),
                        activity=float(fz_act[c, rank]),
                        busy_fraction=float(busy_frac[c, rank]),
                        avg_pkg_w=float(avg_pkg[c, rank]),
                        avg_dram_w=float(avg_dram[c, rank]),
                        events=events,
                        phase_times=tuple(
                            (phase_names[j], float(fz_phase[c, rank, j]))
                            for j in range(P)
                        ),
                    )
                )
            results.append(
                RunResult(
                    app_name=app.name,
                    n_nodes=cfg.n_nodes,
                    n_threads_per_node=cfg.n_threads,
                    affinity=placements[c].kind.value,
                    iterations=int(iterations[c]),
                    t_step_s=float(t_step[c]),
                    comm_s=float(comm[c]),
                    total_time_s=float(total_time[c]),
                    energy_j=float(energy[c]),
                    avg_power_w=float(avg_power[c]),
                    peak_power_w=float(peak[c]),
                    nodes=tuple(records),
                )
            )
        return results
