"""The Configuration Recommendation Module (§IV-B.2).

Given a profiled application and a per-node power budget, recommend the
node-level execution configuration: thread count, affinity, and the
CPU/DRAM cap split.  The decision engine combines

* the class-specific candidate concurrencies (linear apps hold full
  concurrency unless power forces less; parabolic apps never exceed
  NP; logarithmic apps trade concurrency against frequency),
* the fitted performance model (time vs. threads and frequency), and
* the fitted power model (achievable frequency under a PKG cap),

and returns the candidate with the best *predicted* performance — no
exhaustive execution, which is the paper's selling point over
Conductor-style search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.core.classify import ScalabilityClass
from repro.core.perfmodel import PerformancePredictor
from repro.core.powermodel import ClipPowerModel
from repro.core.profile import AppProfile
from repro.errors import InfeasibleBudgetError
from repro.hw.numa import AffinityKind

__all__ = ["NodeChoice", "NodeConfig", "Recommender"]


@dataclass(frozen=True)
class NodeConfig:
    """A recommended node-level execution configuration.

    The GPU fields stay at their zero defaults on CPU-only nodes — the
    domain is absent, and the configuration compares equal to one from
    a build that never heard of accelerators.
    """

    n_threads: int
    affinity: AffinityKind
    pkg_cap_w: float
    dram_cap_w: float
    predicted_frequency_hz: float
    predicted_perf: float
    gpu_cap_w: float = 0.0
    predicted_gpu_clock_hz: float = 0.0

    @property
    def node_budget_w(self) -> float:
        """Total capped power this configuration is granted."""
        return self.pkg_cap_w + self.dram_cap_w + self.gpu_cap_w


class NodeChoice(NamedTuple):
    """A recommended node configuration as plain values.

    :class:`NodeConfig`'s fields without the affinity (the profile's,
    whatever the budget), in the order a decision's per-slot row holds
    them after ``n_threads``.  The allocator's node-count scan and the
    recommend stage read these; :meth:`Recommender.recommend` wraps
    one in a :class:`NodeConfig`.
    """

    n_threads: int
    pkg_cap_w: float
    dram_cap_w: float
    gpu_cap_w: float
    predicted_frequency_hz: float
    predicted_perf: float
    predicted_gpu_clock_hz: float


class Recommender:
    """Decision engine for one profiled application."""

    def __init__(
        self,
        profile: AppProfile,
        predictor: PerformancePredictor,
        power_model: ClipPowerModel,
    ):
        self._profile = profile
        self._predictor = predictor
        self._power = power_model

    @property
    def profile(self) -> AppProfile:
        """The profile the recommendation is based on."""
        return self._profile

    @property
    def predictor(self) -> PerformancePredictor:
        """The fitted performance model."""
        return self._predictor

    @property
    def power_model(self) -> ClipPowerModel:
        """The fitted power model."""
        return self._power

    # ------------------------------------------------------------------

    def min_floor_w(self) -> float:
        """Lowest acceptable node power over the candidate concurrencies.

        The cluster allocator uses this as the true per-node floor: a
        budget that cannot feed all-core execution may still feed a
        reduced concurrency, which is exactly CLIP's lever.
        """
        return min(
            self._power.power_range(n).node_lo_w for n in self._candidates()
        )

    def unbounded_concurrency(self) -> int:
        """Concurrency with sufficient power, by class rule.

        Linear and logarithmic applications use every core (their
        performance still rises, if slowly, toward full concurrency);
        parabolic applications stop at the inflection point.
        """
        cls = self._predictor.scalability_class
        np_ = self._predictor.inflection_point
        if cls is ScalabilityClass.PARABOLIC and np_ is not None:
            return np_
        return self._profile.n_cores

    def recommend(self, node_budget_w: float) -> NodeConfig:
        """Best configuration for one node under a capped-power budget.

        Evaluates the class's candidate concurrencies: for each, split
        the budget, invert the power model into an achievable
        frequency, and score with the performance model.  GPU-offload
        applications additionally enumerate the device cap ladder at
        each concurrency (the host↔accelerator power shift).  Raises
        :class:`InfeasibleBudgetError` when no candidate fits.
        """
        c = self.choose(node_budget_w)
        return NodeConfig(
            n_threads=c.n_threads,
            affinity=self._profile.affinity,
            pkg_cap_w=c.pkg_cap_w,
            dram_cap_w=c.dram_cap_w,
            predicted_frequency_hz=c.predicted_frequency_hz,
            predicted_perf=c.predicted_perf,
            gpu_cap_w=c.gpu_cap_w,
            predicted_gpu_clock_hz=c.predicted_gpu_clock_hz,
        )

    def choose(self, node_budget_w: float) -> NodeChoice:
        """:meth:`recommend`'s choice as plain values (no
        :class:`NodeConfig`)."""
        if self._predictor.scalability_class is ScalabilityClass.GPU_OFFLOAD:
            return self._choose_gpu(node_budget_w)
        linear = self._predictor.scalability_class is ScalabilityClass.LINEAR
        # Host-only app on a GPU node: the board idles, but the idle
        # draw is real and the cap must admit it.  0.0 on CPU nodes.
        gpu_grant = self._power.gpu_power_range()[0]
        best: NodeChoice | None = None
        for n in self._candidates():
            try:
                pkg, dram = self._power.split_node_budget(node_budget_w, n)
            except InfeasibleBudgetError:
                continue
            f = self._power.max_freq_under(pkg, n)
            if f is None:
                continue
            perf = self._predictor.predict_perf(n, f)
            if best is None or perf > best.predicted_perf * (1.0 + 1e-9):
                best = NodeChoice(n, pkg, dram, gpu_grant, f, perf, 0.0)
            if linear and best is not None:
                # "we do not consider decreasing the concurrency unless
                # the power budget is lower than the lower bound" (§II):
                # take the largest feasible count, no what-if scoring.
                break
        if best is None:
            raise InfeasibleBudgetError(
                f"no feasible configuration for node budget "
                f"{node_budget_w:.1f} W ({self._profile.app_name})"
            )
        return best

    def _choose_gpu(self, node_budget_w: float) -> NodeChoice:
        """Best configuration with the host↔device shift (EcoShift).

        At each candidate concurrency (largest first, like the linear
        rule — host threads only serve the non-offloaded share), the
        device cap ladder is walked by :meth:`_best_shift`.  The first
        concurrency with any feasible split wins, mirroring "do not
        decrease concurrency unless power forces it".
        """
        for n in self._candidates():
            shift = self._best_shift(node_budget_w, n)
            if shift is not None:
                perf, pkg, dram, gpu, f, clk = shift
                return NodeChoice(n, pkg, dram, gpu, f, perf, clk)
        raise InfeasibleBudgetError(
            f"no feasible GPU-offload configuration for node budget "
            f"{node_budget_w:.1f} W ({self._profile.app_name})"
        )

    def _best_shift(self, node_budget_w: float, n: int):
        """The host↔device split predicted best at *n* threads.

        Every device cap ladder level that leaves the host domains
        feasible is scored: the device term speeds up with its clock
        while the host remainder buys frequency, and the predicted-time
        roofline between them picks the balance point.  A later level
        wins only by predicting more than 1e-9 (relative) better.
        Returns ``(perf, pkg, dram, gpu, frequency, clock)``, or
        ``None`` when no level is feasible.
        """
        lo, hi = self._power.gpu_power_range()
        best = None
        for gpu_cap, clk in self._power.gpu_shift_candidates(
            lo, min(hi, node_budget_w)
        ):
            try:
                pkg, dram, gpu = self._power.split_node_budget_gpu(
                    node_budget_w, n, gpu_cap
                )
            except InfeasibleBudgetError:
                continue
            f = self._power.max_freq_under(pkg, n)
            if f is None:
                continue
            perf = self._predictor.predict_perf(n, f, gpu_clock_hz=clk)
            if best is None or perf > best[0] * (1.0 + 1e-9):
                best = (perf, pkg, dram, gpu, f, clk)
        return best

    def config_at(self, node_budget_w: float, base: NodeChoice) -> NodeChoice:
        """Cap split for one node budget at an already-chosen concurrency.

        Per-rank budgets differ under variability coordination while
        the concurrency stays uniform, so each rank re-derives only its
        cap split (and, on GPU nodes, re-runs the host↔device shift for
        its own budget).  Used by the recommend stage on GPU classes;
        CPU-only ranks do not call this (the stage splits their budgets
        in one pass).
        """
        n = base.n_threads
        if not self._power.gpu_offloaded:
            pkg, dram, gpu = self._power.split_node_budget_gpu(
                node_budget_w, n, self._power.gpu_power_range()[0]
            )
            f = self._power.max_freq_under(pkg, n)
            return base._replace(
                pkg_cap_w=pkg,
                dram_cap_w=dram,
                gpu_cap_w=gpu,
                predicted_frequency_hz=(
                    f if f is not None else base.predicted_frequency_hz
                ),
            )
        shift = self._best_shift(node_budget_w, n)
        if shift is None:
            raise InfeasibleBudgetError(
                f"no feasible GPU cap split for node budget "
                f"{node_budget_w:.1f} W at {n} threads "
                f"({self._profile.app_name})"
            )
        perf, pkg, dram, gpu, f, clk = shift
        return NodeChoice(n, pkg, dram, gpu, f, perf, clk)

    def phase_overrides(self) -> dict[str, int]:
        """Per-phase concurrency overrides for stagnant phases (§V-B.1).

        Compares each instrumented phase's time between the half-core
        and all-core samples: a phase that got *no faster* with twice
        the threads is limited-concurrency (the BT-MZ ``exch_qbc``
        case), and running it with the half-core count avoids the
        oversubscription cost.  Phases that did speed up are left to
        the global concurrency choice.
        """
        half, all_ = self._profile.half_run, self._profile.all_run
        half_times = dict(half.phase_times)
        overrides: dict[str, int] = {}
        if len(all_.phase_times) < 2:
            return overrides
        for name, t_all in all_.phase_times:
            t_half = half_times.get(name)
            if t_half is None:
                continue
            if t_all >= t_half * 0.98:
                overrides[name] = half.n_threads
        return overrides

    def _candidates(self) -> tuple[int, ...]:
        """Candidate thread counts, largest first.

        Descending order makes prediction *ties* resolve toward more
        parallelism (a flat prediction must not collapse to two
        threads), and for linear applications it realizes the paper's
        rule directly: full concurrency first, smaller counts only as a
        power fallback ("we do not consider decreasing the concurrency
        unless the power budget is lower than the lower bound", §II).
        """
        cands = self._predictor.candidate_concurrencies()
        return tuple(sorted(cands, reverse=True))
