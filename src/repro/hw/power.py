"""Ground-truth analytic power model.

This module computes the *actual* power the simulated hardware draws.
It realizes the structure of the paper's Eqs. 5–9:

* package power = base + Σ active-core load (Eq. 7), where per-core load
  has a leakage term and a dynamic term super-linear in frequency and
  proportional to the core's activity factor (memory-stalled cores draw
  less dynamic power);
* DRAM power = base + load linear in delivered bandwidth (Eq. 9);
* node power = Σ package + Σ DRAM + other (Eq. 5).

CLIP never reads these equations directly — it observes power through
the RAPL interface and meter, and *fits its own* model from profiles,
preserving the paper's methodology.

Everything here is pure and vectorization-friendly: frequency arguments
may be scalars or NumPy arrays (per the HPC guides, avoid Python-level
loops in hot paths — parameter sweeps evaluate thousands of operating
points).  Scalar arguments take a plain-float branch that performs the
same IEEE operations in the same order as the array path, so both
return the same bits; the one transcendental, ``(f / f_nom) ** k``, is
always evaluated by :func:`freq_power_factor` (see its docstring).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SpecError
from repro.hw.specs import NodeSpec, SocketSpec
from repro.units import check_non_negative

__all__ = [
    "PowerModel",
    "freq_power_factor",
    "ladder_power_factors",
]

#: Argument types that take the plain-float branch.  ``np.float64`` is
#: a ``float`` subclass; every other NumPy type goes the array path.
_SCALAR = (float, int)


def freq_power_factor(socket: SocketSpec, f) -> float:
    """``(f / f_nominal) ** dyn_exponent`` through the 0-d ``np.power`` path.

    This is the one place the simulator evaluates the dynamic-power
    frequency factor on a scalar, and the rule it fixes is what keeps
    the scalar engine and the batch evaluator bit-identical.  Python's
    ``**`` and ``math.pow`` call the C library's ``pow``, and NumPy's
    vectorized (SIMD) ``np.power`` kernel is yet another
    implementation; all three may disagree in the last ulp.  So every
    scalar use goes through here, and the batch evaluator gathers its
    per-ladder values from :func:`ladder_power_factors` instead of
    calling ``np.power`` on arrays.
    """
    rel = np.asarray(f, dtype=np.float64) / socket.f_nominal
    return float(np.power(rel, socket.core.dyn_exponent))


def ladder_power_factors(socket: SocketSpec) -> tuple[float, ...]:
    """:func:`freq_power_factor` at every frequency of the socket's ladder."""
    return tuple(freq_power_factor(socket, f) for f in socket.freq_ladder)


class PowerModel:
    """Analytic power model for one node specification.

    Parameters
    ----------
    node:
        Static node description supplying all coefficients.
    efficiency:
        Node-wide multiplier on PKG and DRAM power modelling
        manufacturing variability; 1.0 is the nominal part.
    """

    def __init__(self, node: NodeSpec, efficiency: float = 1.0):
        if efficiency <= 0:
            raise SpecError(f"efficiency must be > 0, got {efficiency}")
        self._node = node
        self._efficiency = float(efficiency)
        # frequency -> freq_power_factor, for f = 0 and the socket's
        # ladder (the only frequencies cap resolution produces); built
        # on the first scalar call, so it never outgrows the ladder
        self._factors: dict[float, float] | None = None

    @property
    def node(self) -> NodeSpec:
        """The node specification this model describes."""
        return self._node

    @property
    def efficiency(self) -> float:
        """Variability multiplier applied to PKG and DRAM power."""
        return self._efficiency

    # ------------------------------------------------------------------
    # forward model: configuration -> watts
    # ------------------------------------------------------------------

    def _freq_factor(self, f) -> float:
        """:func:`freq_power_factor` at *f*, tabled on the ladder."""
        factors = self._factors
        socket = self._node.socket
        if factors is None:
            factors = dict(
                zip(socket.freq_ladder, ladder_power_factors(socket))
            )
            factors[0.0] = freq_power_factor(socket, 0.0)
            self._factors = factors
        factor = factors.get(f)
        if factor is None:  # off-ladder: same computation, not kept
            factor = freq_power_factor(socket, f)
        return factor

    def core_power(self, f, activity=1.0):
        """Power of one active core at frequency *f* (Hz).

        ``activity`` in [0, 1] scales only the dynamic term: a core
        stalled on memory keeps leaking but clocks fewer transitions.
        Accepts scalars or arrays and broadcasts.
        """
        spec = self._node.socket.core
        if isinstance(f, _SCALAR) and isinstance(activity, _SCALAR):
            if f < 0:
                raise SpecError("frequency must be >= 0")
            if activity < 0 or activity > 1:
                raise SpecError("activity must lie in [0, 1]")
            dyn = spec.p_dyn_w * self._freq_factor(f) * activity
            return float(spec.p_leak_w + dyn)
        f = np.asarray(f, dtype=np.float64)
        act = np.asarray(activity, dtype=np.float64)
        if np.any(f < 0):
            raise SpecError("frequency must be >= 0")
        if np.any((act < 0) | (act > 1)):
            raise SpecError("activity must lie in [0, 1]")
        rel = f / self._node.socket.f_nominal
        dyn = spec.p_dyn_w * np.power(rel, spec.dyn_exponent) * act
        out = spec.p_leak_w + dyn
        return float(out) if out.ndim == 0 else out

    def pkg_power(self, n_active: int, f, activity=1.0):
        """Package power (Eq. 7) with *n_active* cores at frequency *f*.

        All active cores are assumed to share one frequency, matching
        how caps are resolved (socket-uniform throttling).
        """
        socket = self._node.socket
        if not 0 <= n_active <= socket.n_cores:
            raise SpecError(
                f"n_active {n_active} outside [0, {socket.n_cores}]"
            )
        base = socket.p_base_w
        core_w = self.core_power(f, activity)
        if isinstance(f, _SCALAR) and isinstance(activity, _SCALAR):
            return float((base + n_active * core_w) * self._efficiency)
        out = np.asarray((base + n_active * np.asarray(core_w)) * self._efficiency)
        return float(out) if out.ndim == 0 else out

    def dram_power(self, bandwidth):
        """DRAM power of one socket's memory (Eq. 9) at *bandwidth* B/s."""
        mem = self._node.socket.memory
        if isinstance(bandwidth, _SCALAR):
            if bandwidth < 0:
                raise SpecError("bandwidth must be >= 0")
            util = min(bandwidth / mem.peak_bandwidth, 1.0)
            return float(
                (mem.p_base_w + mem.p_load_max_w * util) * self._efficiency
            )
        bw = np.asarray(bandwidth, dtype=np.float64)
        if np.any(bw < 0):
            raise SpecError("bandwidth must be >= 0")
        util = np.minimum(bw / mem.peak_bandwidth, 1.0)
        out = (mem.p_base_w + mem.p_load_max_w * util) * self._efficiency
        return float(out) if out.ndim == 0 else out

    def gpu_power(self, clock_hz: float, utilization: float = 1.0) -> float:
        """Aggregate device power at *clock_hz* and busy-fraction *util*.

        Like the core model, utilization scales only the dynamic term —
        an idle board still draws its static power.  Returns 0.0 on
        CPU-only nodes (the domain does not exist).
        """
        gpu = self._node.gpu
        if gpu is None:
            return 0.0
        if clock_hz <= 0:
            raise SpecError("gpu clock must be > 0")
        if not 0.0 <= utilization <= 1.0:
            raise SpecError("gpu utilization must lie in [0, 1]")
        scale = (clock_hz / gpu.clk_nominal_hz) ** gpu.dyn_exponent
        per_board = gpu.p_idle_w + gpu.p_dyn_w * scale * utilization
        return self._node.n_gpus * per_board * self._efficiency

    # ------------------------------------------------------------------
    # inverse model: watts -> operating point, used for cap resolution
    # ------------------------------------------------------------------

    def max_freq_under_pkg_cap(
        self,
        cap_w: float,
        n_active_per_socket,
        activity=1.0,
    ) -> float | None:
        """Highest *continuous* frequency whose total PKG power <= cap.

        The cap covers all sockets jointly (node-level PKG budget); the
        RAPL layer quantizes the result onto the ladder.  Returns
        ``None`` when even ``f_min`` (or pure leakage) exceeds the cap.
        """
        check_non_negative(cap_w, "cap")
        socket = self._node.socket
        n_total = int(sum(n_active_per_socket))
        base = len(list(n_active_per_socket)) * socket.p_base_w
        static = (
            base + n_total * socket.core.p_leak_w
        ) * self._efficiency
        if n_total == 0:
            return socket.f_max if static <= cap_w else None
        if isinstance(activity, _SCALAR):
            act = float(activity)  # the mean of one value is the value
        else:
            act = float(np.mean(activity))
        dyn_budget = cap_w - static
        if dyn_budget < 0:
            return None
        if act <= 0:
            return socket.f_max
        # invert: dyn_budget = eff * n * p_dyn * act * (f/f_nom)^k
        denom = self._efficiency * n_total * socket.core.p_dyn_w * act
        rel = (dyn_budget / denom) ** (1.0 / socket.core.dyn_exponent)
        f = rel * socket.f_nominal
        if f < socket.f_min:
            return None
        return min(f, socket.f_max)

    def max_bandwidth_under_dram_cap(self, cap_w: float) -> float | None:
        """Highest per-socket bandwidth whose DRAM power <= cap.

        *cap_w* is the per-socket DRAM budget.  Returns ``None`` when
        the base power alone exceeds the cap (DRAM cannot be powered
        down while hosting pages).
        """
        check_non_negative(cap_w, "cap")
        mem = self._node.socket.memory
        budget = cap_w / self._efficiency - mem.p_base_w
        if budget < 0:
            return None
        util = min(budget / mem.p_load_max_w, 1.0) if mem.p_load_max_w > 0 else 1.0
        return util * mem.peak_bandwidth
