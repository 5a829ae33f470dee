"""CLIP's node power model (Eqs. 5–9) fitted from profiling samples.

The framework decomposes node power into processor power (base + one
load term per active core, Eq. 7) and memory power (base + a
bandwidth-driven load term, Eq. 9).  CLIP fits those coefficients from
the two mandatory profiling samples — it has measured (threads, RAPL
PKG power, RAPL DRAM power, delivered bandwidth, frequency) at the
half-core and all-core points, which is exactly enough to solve the
two-parameter models.

Frequency dependence uses public facts only: the DVFS range from the
machine specification and a generic Haswell dynamic-power exponent.
From the fitted model CLIP derives the application's **acceptable
power range** ``[P_cpu,L2 + P_mem,L2, P_cpu,L1 + P_mem,L1]`` (power at
lowest/highest frequency, §III-B.1), the quantity the cluster-level
allocator reasons in, plus the CPU/DRAM split of a node budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.profile import AppProfile
from repro.errors import InfeasibleBudgetError, ProfilingError
from repro.hw.specs import NodeSpec

__all__ = ["PowerRange", "ClipPowerModel"]

#: CLIP-side assumptions about per-core power: a leakage share that does
#: not scale with frequency, and the dynamic exponent.  These are
#: textbook Haswell constants, not readings of the simulator's ground
#: truth (which may differ per part).
LEAKAGE_SHARE = 0.15
DYN_EXPONENT = 2.4

#: Multiplier on the estimated DRAM load power when setting the DRAM
#: cap: headroom against demand-estimation error is nearly free (the
#: cap is a ceiling; power follows delivered traffic).
DRAM_CAP_MARGIN = 1.25

#: Headroom over the DRAM *floor*: base DRAM power varies across nodes
#: with manufacturing variability, and a cap programmed below a node's
#: base power is unenforceable (the hardware violates it).
DRAM_FLOOR_HEADROOM = 1.08

#: Budgets of a CPU class from which :meth:`ClipPowerModel.split_node_budgets`
#: splits with array operations.  On one shared 2-vCPU Xeon the array
#: split cost ~8 µs a call whatever its size up to 16 budgets, and the
#: scalar split ~1 µs a budget, so arrays win from about a dozen up.
ARRAY_SPLIT_MIN = 12

#: Budget counts from which :meth:`ClipPowerModel.max_freqs_under`
#: inverts with array operations.  The scalar inversion took 8-10 µs
#: against 17-29 µs at 6-8 budgets, the two met at about 24 budgets,
#: and the array took 0.23 ms against 0.96 ms at 1024
#: (docs/performance.md §10).
ARRAY_FREQ_MIN = 24


@dataclass(frozen=True)
class PowerRange:
    """Per-node acceptable power range for one app at one concurrency.

    The GPU bounds default to zero: on CPU-only nodes the domain is
    absent and contributes nothing to the node range.  On GPU nodes
    the bounds cover the device grant — the full ladder for offloaded
    apps, the idle draw for host-only apps (the board still burns it).
    """

    cpu_lo_w: float
    cpu_hi_w: float
    mem_lo_w: float
    mem_hi_w: float
    gpu_lo_w: float = 0.0
    gpu_hi_w: float = 0.0

    @property
    def node_lo_w(self) -> float:
        """Lower bound of the acceptable node power range."""
        return self.cpu_lo_w + self.mem_lo_w + self.gpu_lo_w

    @property
    def node_hi_w(self) -> float:
        """Upper bound — more power than this is wasted on the node."""
        return self.cpu_hi_w + self.mem_hi_w + self.gpu_hi_w


class ClipPowerModel:
    """Eq. 5–9 coefficients fitted from one application's profile."""

    def __init__(self, profile: AppProfile, node: NodeSpec):
        self._node = node
        self._f_min = node.socket.f_min
        self._f_max = node.socket.f_max
        self._f_nom = node.socket.f_nominal

        half, all_ = profile.half_run, profile.all_run

        # --- processor: pkg = B + n * c * g(f)  (Eq. 7) -----------------
        # Each sample configuration was measured at both frequency
        # extremes (§III-B.1), giving four (n, f, pkg) points; the
        # frequency spread separates the base term from the per-core
        # load term, which two same-frequency points cannot.
        points = []
        for run in (half, all_):
            points.append((run.n_threads, run.frequency_hz, run.pkg_w))
            points.append((run.n_threads, run.frequency_lo_hz, run.pkg_lo_w))
        A = np.array([[1.0, n * self._freq_factor(f)] for n, f, _ in points])
        b = np.array([p for _, _, p in points])
        (base, per_core), *_ = np.linalg.lstsq(A, b, rcond=None)
        # Physical guards: both terms must be non-negative; a tiny or
        # negative per-core estimate means the samples were power-flat.
        self._p_base = float(max(base, 0.0))
        self._p_core = float(max(per_core, 0.05))

        # --- memory: dram = mb + k * bandwidth  (Eq. 9) ----------------
        bw1 = half.events.memory_bandwidth
        bw2 = all_.events.memory_bandwidth
        if abs(bw2 - bw1) > 1e6:
            k = (all_.dram_w - half.dram_w) / (bw2 - bw1)
            mb = all_.dram_w - k * bw2
        else:
            k, mb = 0.0, min(half.dram_w, all_.dram_w)
        self._mem_base = float(np.clip(mb, 0.0, min(half.dram_w, all_.dram_w)))
        self._mem_per_bw = float(max(k, 0.0))

        # measured anchors for interpolation over thread counts
        self._bw_samples = sorted(
            [(half.n_threads, bw1), (all_.n_threads, bw2)]
        )
        self._dram_lo_samples = sorted(
            [(half.n_threads, half.dram_lo_w), (all_.n_threads, all_.dram_lo_w)]
        )
        self._dram_hi_samples = sorted(
            [(half.n_threads, half.dram_w), (all_.n_threads, all_.dram_w)]
        )
        self._pkg_lo_samples = sorted(
            [(half.n_threads, half.pkg_lo_w), (all_.n_threads, all_.pkg_lo_w)]
        )

        # --- accelerator domain (Eq. 5 extended) -----------------------
        # The device has no fitted coefficients: its power quantizes to
        # the published clock ladder (a machine-specification fact,
        # like the DVFS range), so the model only needs to know whether
        # this application drives the device (measured during
        # profiling) or leaves it idling.
        self._has_gpu = node.has_gpu
        self._gpu_offloaded = profile.gpu_offloaded
        if not self._has_gpu:
            self._gpu_range = (0.0, 0.0)
        elif not self._gpu_offloaded:
            self._gpu_range = (node.p_gpu_idle_w, node.p_gpu_idle_w)
        else:
            self._gpu_range = (node.p_gpu_min_w, node.p_gpu_max_w)

        # --- constants derived from the fit ----------------------------
        # The model is immutable once fitted (a refit builds a new
        # bundle), so everything below is computed once: the dynamic
        # curve's end points, the highest measured DRAM power, and a
        # per-concurrency memo (bounded by the core count) filled by
        # :meth:`_at`.
        self._g_lo = self._freq_factor(self._f_min)
        self._g_hi = self._freq_factor(self._f_max)
        self._dram_peak = max(v for _, v in self._dram_hi_samples)
        self._memo: dict[int, tuple[PowerRange, float, float]] = {}

    # ------------------------------------------------------------------

    def _freq_factor(self, f: float) -> float:
        """Per-core load multiplier at frequency *f* vs. nominal."""
        rel = f / self._f_nom
        return LEAKAGE_SHARE + (1.0 - LEAKAGE_SHARE) * rel**DYN_EXPONENT

    @property
    def p_base_w(self) -> float:
        """Fitted node-level processor base power (all packages)."""
        return self._p_base

    @property
    def p_core_w(self) -> float:
        """Fitted per-active-core load power at nominal frequency."""
        return self._p_core

    @property
    def mem_base_w(self) -> float:
        """Fitted node-level DRAM base power."""
        return self._mem_base

    @property
    def mem_w_per_bw(self) -> float:
        """Fitted DRAM watts per byte/s of traffic."""
        return self._mem_per_bw

    # ------------------------------------------------------------------

    def cpu_power(self, n_threads: int, frequency_hz: float) -> float:
        """Predicted node PKG power (Eq. 6–7)."""
        if n_threads < 0:
            raise ProfilingError("n_threads must be >= 0")
        return self._p_base + n_threads * self._p_core * self._freq_factor(
            frequency_hz
        )

    def bandwidth_demand(self, n_threads: int) -> float:
        """Estimated bandwidth demand at a thread count (B/s).

        Bandwidth extraction grows roughly linearly with threads until
        the controllers saturate, so the estimate is
        ``min(n * per-thread rate, saturated rate)`` with the
        per-thread rate taken from the half-core sample and the
        saturation level from whichever sample saw more traffic.  A
        straight interpolation between the samples would *under*state
        demand between them and starve the DRAM cap.
        """
        (n1, b1), (n2, b2) = self._bw_samples
        per_thread = b1 / n1 if n1 > 0 else 0.0
        return float(min(n_threads * per_thread, max(b1, b2)))

    def mem_power(self, n_threads: int) -> float:
        """Predicted DRAM power (Eq. 8–9) at full memory power level."""
        bw = self.bandwidth_demand(n_threads)
        return self._mem_base + self._mem_per_bw * bw

    @staticmethod
    def _interp(
        samples: list[tuple[int, float]], n_threads: int, base: float
    ) -> float:
        """Linear interpolation between the two measured anchors.

        Below the half-core anchor the value scales with the thread
        count down to the fitted *base*; above the all-core anchor it
        stays flat (there are no more cores to add).
        """
        (n1, v1), (n2, v2) = samples
        if n_threads <= n1:
            return base + (v1 - base) * n_threads / n1
        if n_threads >= n2:
            return v2
        w = (n_threads - n1) / (n2 - n1)
        return v1 + w * (v2 - v1)

    def max_freq_under(self, pkg_budget_w: float, n_threads: int) -> float | None:
        """Highest frequency the power model fits under a PKG budget.

        The inversion anchors on the *measured* PKG powers at the two
        frequency extremes (interpolated over threads) and places the
        frequency on the generic Haswell dynamic-power curve between
        them; this keeps the answer consistent with the measured
        acceptable range even when the fitted base/per-core split is
        blurred by activity differences between the samples.  Returns
        ``None`` when even the lowest frequency does not fit.
        """
        if n_threads < 1:
            raise ProfilingError("n_threads must be >= 1")
        rng, p_hi, _ = self._at(n_threads)
        p_lo = rng.cpu_lo_w
        if pkg_budget_w < p_lo:
            return None
        if pkg_budget_w >= p_hi:
            return self._f_max
        # interpolate on the dynamic-power curve: p(f) = p_lo +
        # (p_hi - p_lo) * (g(f) - g(f_min)) / (g(f_max) - g(f_min))
        g_lo, g_hi = self._g_lo, self._g_hi
        g = g_lo + (pkg_budget_w - p_lo) / (p_hi - p_lo) * (g_hi - g_lo)
        rel_dyn = (g - LEAKAGE_SHARE) / (1.0 - LEAKAGE_SHARE)
        f = self._f_nom * rel_dyn ** (1.0 / DYN_EXPONENT)
        # the scalar clip np.clip would do, without its array dispatch
        return float(min(max(f, self._f_min), self._f_max))

    def max_freqs_under(
        self, pkg_budgets_w, n_threads: int
    ) -> list[float | None]:
        """:meth:`max_freq_under` for many PKG budgets at one concurrency.

        The interpolation onto the dynamic-power curve runs as array
        operations — element for element the scalar's arithmetic — and
        the inversion's fractional power stays a Python float ``**``
        per budget (NumPy's vectorized power can differ in the last
        ulp), so every entry equals the scalar's answer bit for bit.
        Fewer than :data:`ARRAY_FREQ_MIN` budgets take the scalar
        inversion, which is faster there.
        """
        if len(pkg_budgets_w) < ARRAY_FREQ_MIN:
            return [self.max_freq_under(b, n_threads) for b in pkg_budgets_w]
        freqs, below = self.freq_columns(pkg_budgets_w, n_threads)
        out = freqs.tolist()
        for i in np.flatnonzero(below).tolist():
            out[i] = None
        return out

    def freq_columns(
        self, pkg_budgets_w, n_threads: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`max_freqs_under` as arrays, whatever the count: the
        frequencies, and a mask of the budgets below the PKG floor
        (where the scalar answers ``None``; the frequency entry there
        is meaningless)."""
        if n_threads < 1:
            raise ProfilingError("n_threads must be >= 1")
        rng, p_hi, _ = self._at(n_threads)
        p_lo = rng.cpu_lo_w
        pkg = np.asarray(pkg_budgets_w, dtype=np.float64)
        below = pkg < p_lo
        inside = ~below & (pkg < p_hi)
        g_lo, g_hi = self._g_lo, self._g_hi
        g = g_lo + (pkg[inside] - p_lo) / (p_hi - p_lo) * (g_hi - g_lo)
        rel_dyn = (g - LEAKAGE_SHARE) / (1.0 - LEAKAGE_SHARE)
        exponent = 1.0 / DYN_EXPONENT
        f = self._f_nom * np.array([r ** exponent for r in rel_dyn.tolist()])
        freqs = np.full(len(pkg), self._f_max)
        freqs[inside] = np.minimum(np.maximum(f, self._f_min), self._f_max)
        return freqs, below

    # ------------------------------------------------------------------

    @property
    def gpu_offloaded(self) -> bool:
        """Whether the profiled app drives the accelerator."""
        return self._gpu_offloaded

    def gpu_power_range(self) -> tuple[float, float]:
        """Acceptable device power grant ``(lo, hi)`` in watts.

        Offloaded apps may run anywhere on the clock ladder, so the
        range spans the lowest to the highest full-utilization level.
        Host-only apps on a GPU node still burn the idle draw — the
        grant must cover it, but more is wasted.  Zero-width zero on
        CPU-only nodes (the domain is absent).
        """
        return self._gpu_range

    def gpu_shift_candidates(
        self, lo_w: float, hi_w: float
    ) -> tuple[tuple[float, float], ...]:
        """Device cap candidates ``(cap_w, clock_hz)`` inside a window.

        Only ladder levels are worth issuing (capping between levels
        buys nothing), so the EcoShift-style host↔device re-balance
        enumerates exactly these.  When the window falls between
        levels, the highest level not exceeding *hi_w* is returned —
        or the bottom level if even that does not fit, because the
        device cannot clock lower.
        """
        if not self._has_gpu or not self._gpu_offloaded:
            return ()
        levels = tuple(
            zip(self._node.gpu_cap_levels_w, self._node.gpu_level_clocks_hz)
        )
        inside = tuple(p for p in levels if lo_w <= p[0] <= hi_w)
        if inside:
            return inside
        under = tuple(p for p in levels if p[0] <= hi_w)
        return (under[-1],) if under else (levels[0],)

    def power_range(self, n_threads: int) -> PowerRange:
        """Acceptable power range at a concurrency (§III-B.1).

        L1 (upper) is the power at the highest frequency; L2 (lower) at
        the lowest — both measured directly during profiling at the
        sampled concurrencies and interpolated between them, which is
        more faithful than re-predicting them through the fitted model
        (the measurements embed the application's true activity).
        """
        return self._at(n_threads)[0]

    def _at(self, n_threads: int) -> tuple[PowerRange, float, float]:
        """Memoized per-concurrency constants ``(range, pkg_hi, dram_grant)``.

        ``pkg_hi`` is the PKG power :meth:`max_freq_under` anchors the
        top of the dynamic curve on; ``dram_grant`` is the DRAM cap
        :meth:`_split_host` grants before the budget clamps it.  Both
        are pure functions of the fit and *n_threads*.  Invalid thread
        counts raise on every call (errors are never memoized).  Threads
        racing on one key store equal values, so the memo needs no lock.
        """
        hit = self._memo.get(n_threads)
        if hit is not None:
            return hit
        cpu_max_f = self.cpu_power(n_threads, self._f_max)
        cpu_lo = self._interp(self._pkg_lo_samples, n_threads, self._p_base)
        mem_hi = self.mem_power(n_threads)
        mem_lo = min(
            self._interp(self._dram_lo_samples, n_threads, self._mem_base), mem_hi
        )
        gpu_lo, gpu_hi = self._gpu_range
        rng = PowerRange(
            cpu_lo_w=cpu_lo,
            cpu_hi_w=max(cpu_max_f, cpu_lo),
            mem_lo_w=mem_lo,
            mem_hi_w=mem_hi,
            gpu_lo_w=gpu_lo,
            gpu_hi_w=gpu_hi,
        )
        pkg_hi = max(cpu_max_f, cpu_lo + 1e-6)
        # Anchor the DRAM grant on the highest *measured* DRAM power —
        # demand can only fall with fewer threads or a slower clock —
        # plus headroom; the model estimate alone can overshoot and
        # steal budget the CPU needs.
        target = self._mem_base + (
            min(mem_hi, self._dram_peak) - self._mem_base
        ) * DRAM_CAP_MARGIN
        dram_grant = max(target, mem_lo) * DRAM_FLOOR_HEADROOM
        hit = self._memo[n_threads] = (rng, pkg_hi, dram_grant)
        return hit

    def split_node_budget(
        self, node_budget_w: float, n_threads: int
    ) -> tuple[float, float]:
        """Split a node budget into (PKG cap, DRAM cap).

        Memory receives its estimated demand plus a safety margin: the
        DRAM cap is a ceiling, and actual DRAM power follows delivered
        traffic, so over-provisioning the cap only reserves headroom —
        whereas under-provisioning throttles bandwidth outright.  The
        CPU receives the rest, clipped to its own useful ceiling.
        Raises :class:`InfeasibleBudgetError` when the budget cannot
        cover the floor of both domains.
        """
        rng, _, dram_grant = self._at(n_threads)
        if node_budget_w < rng.node_lo_w:
            raise self._split_error(node_budget_w, n_threads)
        # The device grant (idle draw for host-only apps on GPU nodes,
        # zero on CPU nodes — `x - 0.0` leaves host arithmetic
        # bit-identical) comes off the top before the host split.
        host = node_budget_w - rng.gpu_lo_w
        return self._split_host(host, rng, dram_grant)

    @staticmethod
    def _split_host(
        host_budget_w: float, rng: PowerRange, dram_grant_w: float
    ) -> tuple[float, float]:
        """PKG/DRAM split of the host share of a node budget."""
        dram = min(dram_grant_w, host_budget_w - rng.cpu_lo_w)
        pkg = min(host_budget_w - dram, rng.cpu_hi_w)
        return float(pkg), float(dram)

    def split_node_budget_gpu(
        self, node_budget_w: float, n_threads: int, gpu_cap_w: float
    ) -> tuple[float, float, float]:
        """Split a node budget into (PKG, DRAM, GPU) caps.

        The device grant is chosen by the caller (a ladder level from
        :meth:`gpu_shift_candidates`, or the idle draw for host-only
        apps); the remainder splits between the host domains exactly
        like :meth:`split_node_budget`.  Raises
        :class:`InfeasibleBudgetError` when the host remainder cannot
        cover the host floors.
        """
        rng, _, dram_grant = self._at(n_threads)
        host = node_budget_w - gpu_cap_w
        host_lo = rng.cpu_lo_w + rng.mem_lo_w
        if host < host_lo:
            raise self._split_error(node_budget_w, n_threads, gpu_cap_w)
        pkg, dram = self._split_host(host, rng, dram_grant)
        return pkg, dram, float(gpu_cap_w)

    def _split_error(
        self, node_budget_w: float, n_threads: int, gpu_cap_w: float | None = None
    ) -> InfeasibleBudgetError:
        """The rejection of a node budget by the CPU split, or by the GPU
        split after granting the device *gpu_cap_w*."""
        rng = self._at(n_threads)[0]
        if gpu_cap_w is None:
            return InfeasibleBudgetError(
                f"node budget {node_budget_w:.1f} W below acceptable floor "
                f"{rng.node_lo_w:.1f} W at {n_threads} threads"
            )
        return InfeasibleBudgetError(
            f"host remainder {node_budget_w - gpu_cap_w:.1f} W (node "
            f"{node_budget_w:.1f} W minus GPU grant {gpu_cap_w:.1f} W) below "
            f"host floor {rng.cpu_lo_w + rng.mem_lo_w:.1f} W at {n_threads} threads"
        )

    def split_node_budgets(
        self, budgets_w: np.ndarray, n_threads: int
    ) -> list[tuple[float, ...]]:
        """Split node budgets into domain caps, one tuple per budget.

        CPU classes get ``(pkg, dram)`` tuples as
        :meth:`split_node_budget` computes them.  Accelerator classes
        get ``(pkg, dram, gpu)`` tuples as :meth:`split_node_budget_gpu`
        computes them, after granting the device the highest ladder
        level that fits once the host floor is reserved (host-only apps
        get exactly the board idle draw).  The arithmetic is that of the
        scalar splits, element for element, done as array operations —
        except for fewer than :data:`ARRAY_SPLIT_MIN` budgets of a CPU
        class, which the scalar split takes faster.  Raises the scalar
        splits' :class:`InfeasibleBudgetError` for the first budget they
        would reject.
        """
        if self._gpu_range[1] <= 0.0 and len(budgets_w) < ARRAY_SPLIT_MIN:
            if isinstance(budgets_w, np.ndarray):
                budgets_w = budgets_w.tolist()
            return [self.split_node_budget(b, n_threads) for b in budgets_w]
        columns = self.cap_columns(budgets_w, n_threads)
        return list(zip(*(c.tolist() for c in columns)))

    def cap_columns(self, budgets_w, n_threads: int) -> tuple[np.ndarray, ...]:
        """:meth:`split_node_budgets` as arrays, whatever the count:
        ``(pkg, dram)`` on a CPU class, ``(pkg, dram, gpu)`` on an
        accelerator class, one entry per budget."""
        lo_w, hi_w = self._gpu_range
        budgets = np.asarray(budgets_w, dtype=float)
        rng, _, dram_grant = self._at(n_threads)
        if hi_w <= 0.0:
            grant = None
            host = budgets - rng.gpu_lo_w
            rejected = budgets < rng.node_lo_w
        else:
            grant = np.full(budgets.shape, lo_w)
            if self._gpu_offloaded:
                # the highest level at most the window top, else the
                # bottom level: gpu_shift_candidates' choice
                levels = np.asarray(self._node.gpu_cap_levels_w)
                window_hi = budgets - (rng.cpu_lo_w + rng.mem_lo_w)
                at = np.searchsorted(levels, window_hi, side="right") - 1
                grant = np.maximum(grant, levels[np.maximum(at, 0)])
            host = budgets - grant
            rejected = host < rng.cpu_lo_w + rng.mem_lo_w
        if rejected.any():
            i = int(np.argmax(rejected))
            raise self._split_error(
                float(budgets[i]), n_threads,
                None if grant is None else float(grant[i]),
            )
        dram = np.minimum(dram_grant, host - rng.cpu_lo_w)
        pkg = np.minimum(host - dram, rng.cpu_hi_w)
        return (pkg, dram) if grant is None else (pkg, dram, grant)

    def cap_ceiling_w(self, n_threads: int) -> float:
        """Highest defensible (PKG + DRAM) cap total at a concurrency.

        :meth:`split_node_budget` deliberately over-provisions the DRAM
        cap (it is a ceiling, not a draw), so an issued cap set may sit
        above the acceptable range's ``node_hi_w`` by the DRAM margin.
        Budget-invariant audits use this value as the per-node ceiling:
        anything above it cannot come from a well-formed split.
        """
        rng = self.power_range(n_threads)
        host = rng.cpu_hi_w + rng.mem_hi_w * DRAM_CAP_MARGIN * DRAM_FLOOR_HEADROOM
        return host + rng.gpu_hi_w
