"""RAPL-like power domains: measurement and cap enforcement.

Real RAPL (Intel Running Average Power Limit, SDM Vol. 3B [21]) exposes
per-domain *energy status* registers that accumulate in fixed units and
wrap around, plus *power limit* registers the hardware honors by
throttling.  This module reproduces both halves for the two domains the
paper caps — ``PKG`` (all packages of a node) and ``DRAM``:

* :class:`RaplDomain` — an energy counter with the 32-bit wraparound
  semantics of the MSR, a cap, and cap bookkeeping;
* :class:`RaplInterface` — cap *resolution*: given a workload's demand
  (active cores, activity factor, desired bandwidth) find the highest
  ladder frequency and memory level that fit under the caps, which is
  how hardware RAPL actually behaves (it lowers the effective frequency
  until the running average obeys the limit).

The simulated counters are exact integrators of the analytic power
model, so tests can assert energy conservation to float precision.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ActuationError, PowerDomainError
from repro.hw.actuation import PERFECT_ACTUATION, ActuationPolicy
from repro.hw.dvfs import FrequencyLadder
from repro.hw.power import PowerModel
from repro.units import check_non_negative, check_positive

__all__ = ["Domain", "RaplDomain", "RaplInterface", "OperatingPoint"]

#: Verified-write retry budget: one initial attempt plus this many
#: re-issues before :class:`~repro.errors.ActuationError` is raised.
MAX_CAP_RETRIES = 4

#: First retry backoff (seconds, simulated — accounted, never slept).
CAP_BACKOFF_INITIAL_S = 1e-3

#: Readback comparison tolerance for verified cap writes.
CAP_READBACK_TOLERANCE_W = 1e-9

#: Energy unit of the simulated energy-status register (joules per LSB).
#: Haswell uses 61 microjoule units; we keep the same granularity.
ENERGY_UNIT_J = 6.103515625e-05

#: Wraparound modulus of the 32-bit energy-status register.
ENERGY_WRAP = 2**32

#: Deepest clock-modulation level (Intel T-states step in 6.25 %).
MIN_DUTY_CYCLE = 0.0625


class Domain(enum.Enum):
    """RAPL domains the framework caps and measures.

    ``GPU`` exists only on accelerator-bearing nodes: their
    :class:`RaplInterface` grows a third register block, while CPU-only
    nodes keep exactly the PKG/DRAM pair.
    """

    PKG = "pkg"
    DRAM = "dram"
    GPU = "gpu"


#: Domain order of positional cap tuples: ``(pkg, dram)`` on CPU nodes,
#: ``(pkg, dram, gpu)`` on accelerator nodes.
CAP_TUPLE_DOMAINS = (Domain.PKG, Domain.DRAM, Domain.GPU)


class RaplDomain:
    """One power domain: an energy counter plus a power limit.

    The limit is held twice: ``cap_w`` is the *programmed* value — what
    a readback of the limit register returns — while the *enforced*
    value is what the silicon actually honours.  Under perfect
    actuation the two are identical; a drifted write makes them
    diverge, which is exactly the failure mode readback verification
    cannot see.
    """

    def __init__(self, domain: Domain, max_power_w: float):
        self._domain = domain
        self._max_power_w = check_positive(max_power_w, "max_power_w")
        self._cap_w: float | None = None
        self._enforced_w: float | None = None
        self._raw_energy = 0  # register value, wraps at ENERGY_WRAP
        self._total_energy_j = 0.0  # unwrapped, for tests/metrics
        self._throttle_events = 0

    @property
    def domain(self) -> Domain:
        """Which domain this register block controls."""
        return self._domain

    @property
    def cap_w(self) -> float | None:
        """Programmed power limit (readback value), ``None`` if uncapped."""
        return self._cap_w

    @property
    def enforced_w(self) -> float | None:
        """Limit the silicon honours; differs from ``cap_w`` under drift."""
        return self._enforced_w

    @property
    def effective_cap_w(self) -> float:
        """Cap actually enforced: the limit, clipped to the domain max."""
        return self.clip(self._enforced_w)

    def clip(self, limit_w: float | None) -> float:
        """A limit as the silicon honours it: ``None`` is the domain
        max, anything else is clipped to it."""
        if limit_w is None:
            return self._max_power_w
        return min(float(limit_w), self._max_power_w)

    @property
    def throttle_events(self) -> int:
        """How many cap resolutions required throttling below demand."""
        return self._throttle_events

    def set_cap(self, watts: float | None) -> None:
        """Program the power limit perfectly; ``None`` clears it.

        This is the raw register write — no actuation policy involved.
        Fault-aware callers go through :meth:`RaplInterface.set_cap`,
        which routes through the node's policy and may call
        :meth:`program` with diverging values instead.
        """
        if watts is not None:
            check_non_negative(watts, "cap")
        self._cap_w = watts
        self._enforced_w = watts

    def program(self, readback_w: float | None, enforced_w: float | None) -> None:
        """Set the programmed (readback) and enforced limits separately."""
        if readback_w is not None:
            check_non_negative(readback_w, "cap")
        if enforced_w is not None:
            check_non_negative(enforced_w, "enforced cap")
        self._cap_w = readback_w
        self._enforced_w = enforced_w

    def read_energy_register(self) -> int:
        """Raw energy-status register (wraps like the hardware MSR)."""
        return self._raw_energy

    @property
    def energy_j(self) -> float:
        """Unwrapped accumulated energy in joules."""
        return self._total_energy_j

    def accumulate(self, power_w: float, dt_s: float) -> None:
        """Integrate *power_w* over *dt_s* into the counters."""
        check_non_negative(power_w, "power")
        check_non_negative(dt_s, "dt")
        joules = power_w * dt_s
        self._total_energy_j += joules
        ticks = int(round(joules / ENERGY_UNIT_J))
        self._raw_energy = (self._raw_energy + ticks) % ENERGY_WRAP

    def note_throttled(self) -> None:
        """Record that honoring the cap required throttling."""
        self._throttle_events += 1


@dataclass(frozen=True)
class OperatingPoint:
    """Cap-feasible steady state chosen by :meth:`RaplInterface.resolve`.

    Attributes
    ----------
    frequency_hz:
        Ladder frequency all active cores run at.
    bandwidth_per_socket:
        Per-socket DRAM bandwidth *ceiling* (B/s) granted by the DRAM
        cap — the memory power level's allowance, not delivered traffic.
    pkg_power_w / dram_power_w:
        Resulting steady-state domain powers.
    cpu_throttled / mem_throttled:
        Whether each cap forced operation below the demanded point.
    cpu_cap_violated / mem_cap_violated:
        Whether the cap was below the hardware floor (lowest P-state /
        lowest memory level), in which case the domain runs at its
        floor and *exceeds* the programmed limit — the behaviour of
        real RAPL when the limit is set under the minimum operating
        point.
    """

    frequency_hz: float
    bandwidth_per_socket: tuple[float, ...]
    pkg_power_w: float
    dram_power_w: float
    cpu_throttled: bool
    mem_throttled: bool
    cpu_cap_violated: bool = False
    mem_cap_violated: bool = False
    duty_cycle: float = 1.0
    #: Device state; all-default on CPU-only nodes.  ``gpu_power_w`` is
    #: the busy-interval average device power accounted after timing.
    gpu_clock_hz: float = 0.0
    gpu_power_w: float = 0.0
    gpu_throttled: bool = False
    gpu_cap_violated: bool = False

    @property
    def cap_violated(self) -> bool:
        """Whether any domain runs above its programmed limit."""
        return (
            self.cpu_cap_violated
            or self.mem_cap_violated
            or self.gpu_cap_violated
        )

    @property
    def effective_frequency_hz(self) -> float:
        """Throughput-equivalent clock: P-state x duty cycle.

        Below the lowest P-state's power, RAPL falls back to clock
        modulation (T-states): the core runs at ``f_min`` but only for
        ``duty_cycle`` of the time, so delivered instruction throughput
        scales with the product.
        """
        return self.frequency_hz * self.duty_cycle


class RaplInterface:
    """Cap programming and cap resolution for one node.

    Parameters
    ----------
    power_model:
        The node's ground-truth power model (includes its variability
        multiplier, so an inefficient part throttles earlier — the
        effect §III-B.2 coordinates away).
    """

    def __init__(
        self,
        power_model: PowerModel,
        actuation: ActuationPolicy | None = None,
    ):
        self._model = power_model
        self._actuation = actuation if actuation is not None else PERFECT_ACTUATION
        self._stats = {
            "writes": 0,
            "dropped": 0,
            "partial": 0,
            "drifted": 0,
            "verified": 0,
            "retries": 0,
            "forced": 0,
            "backoff_s": 0.0,
        }
        node = power_model.node
        self._ladder = FrequencyLadder.from_socket(node.socket)
        # Factory defaults: PL1 = TDP per package; DRAM limited only by
        # its own peak draw.  Turbo above TDP is therefore only
        # reachable when few cores are active, as on real parts.
        self._domains = {
            Domain.PKG: RaplDomain(Domain.PKG, node.n_sockets * node.socket.tdp_w),
            Domain.DRAM: RaplDomain(Domain.DRAM, node.p_mem_max_w),
        }
        # The GPU domain exists only on accelerator-bearing nodes, so
        # CPU-only interfaces keep exactly the legacy PKG/DRAM pair.
        self._gpu_ladder: FrequencyLadder | None = None
        if node.has_gpu:
            self._domains[Domain.GPU] = RaplDomain(
                Domain.GPU, node.p_gpu_max_w
            )
            self._gpu_ladder = FrequencyLadder.from_gpu(node.gpu)

    @property
    def model(self) -> PowerModel:
        """The underlying ground-truth power model."""
        return self._model

    @property
    def has_gpu_domain(self) -> bool:
        """Whether this node exposes the GPU power domain."""
        return Domain.GPU in self._domains

    def domain(self, domain: Domain) -> RaplDomain:
        """Access one domain's registers.

        Raises :class:`PowerDomainError` for :attr:`Domain.GPU` on a
        CPU-only node — the domain does not exist there.
        """
        try:
            return self._domains[domain]
        except KeyError:
            raise PowerDomainError(
                f"node has no {domain.value!r} power domain"
            ) from None

    @property
    def actuation(self) -> ActuationPolicy:
        """Policy deciding the fate of every routed cap write."""
        return self._actuation

    @actuation.setter
    def actuation(self, policy: ActuationPolicy) -> None:
        self._actuation = policy

    @property
    def actuation_stats(self) -> dict[str, float]:
        """Write-path counters: writes, drops, partials, drifts, retries,
        verified writes, forced (out-of-band) writes, and the total
        simulated backoff the retry schedule accumulated."""
        return dict(self._stats)

    def reset_actuation(self) -> None:
        """Restore perfect actuation and zero the write-path counters."""
        self._actuation = PERFECT_ACTUATION
        for key in self._stats:
            self._stats[key] = 0.0 if key == "backoff_s" else 0

    def set_cap(self, domain: Domain, watts: float | None) -> bool:
        """Program a domain power limit through the actuation policy.

        ``None`` always clears the limit (removing a cap is a
        fail-safe operation).  Returns whether the register now holds
        the requested value — a dropped or partially-applied write
        returns ``False`` so callers on the verified path know to
        retry.  A *drifted* write returns ``True``: its readback is
        correct by construction, only the enforcement is wrong.
        """
        reg = self.domain(domain)
        if watts is None:
            reg.set_cap(None)
            return True
        requested = float(watts)
        check_non_negative(requested, "cap")
        self._stats["writes"] += 1
        result = self._actuation.apply(
            domain.value, requested, reg.effective_cap_w
        )
        if result.kind == "drop":
            self._stats["dropped"] += 1
            return False
        if result.kind == "partial":
            self._stats["partial"] += 1
            reg.program(result.enforced_w, result.enforced_w)
            return False
        if result.kind == "drift":
            self._stats["drifted"] += 1
            reg.program(requested, result.enforced_w)
            return True
        reg.set_cap(requested)
        return True

    def set_cap_verified(
        self,
        domain: Domain,
        watts: float | None,
        max_retries: int = MAX_CAP_RETRIES,
    ) -> int:
        """Write a cap, read it back, and retry until it sticks.

        Mirrors production practice: each failed readback re-issues the
        write after an exponentially growing backoff (simulated — the
        delay is accounted in ``actuation_stats['backoff_s']``, never
        slept).  Returns the number of retries that were needed; raises
        :class:`~repro.errors.ActuationError` when ``1 + max_retries``
        attempts all failed verification.  Silent drift passes readback
        and is *not* retried — catching it is the watchdog's job.
        """
        backoff_s = CAP_BACKOFF_INITIAL_S
        reg = self.domain(domain)
        for attempt in range(1 + max_retries):
            self.set_cap(domain, watts)
            read = reg.cap_w
            if watts is None:
                landed = read is None
            else:
                landed = (
                    read is not None
                    and abs(read - float(watts)) <= CAP_READBACK_TOLERANCE_W
                )
            if landed:
                self._stats["verified"] += 1
                self._stats["retries"] += attempt
                return attempt
            self._stats["backoff_s"] += backoff_s
            backoff_s *= 2.0
        self._stats["retries"] += max_retries
        raise ActuationError(
            f"{domain.value} cap write of "
            f"{'None' if watts is None else f'{float(watts):.3f} W'} failed "
            f"readback verification after {1 + max_retries} attempts",
            domain=domain.value,
            requested_w=None if watts is None else float(watts),
        )

    def write_caps_verified(
        self,
        caps_w,
        max_retries: int = MAX_CAP_RETRIES,
    ) -> int:
        """Verified write of a positional ``(pkg, dram[, gpu])`` cap tuple.

        The hardware-class arity convention of the decision stack maps
        positionally onto :data:`CAP_TUPLE_DOMAINS`.  Returns total
        retries across the tuple; raises
        :class:`~repro.errors.ActuationError` as soon as one domain
        exhausts its budget (caller is responsible for rollback).
        """
        retries = 0
        for dom, watts in zip(CAP_TUPLE_DOMAINS, caps_w):
            retries += self.set_cap_verified(dom, watts, max_retries=max_retries)
        return retries

    def force_caps(self, caps_w) -> None:
        """Out-of-band cap write bypassing the actuation policy.

        Models the BMC/service-processor path real clusters fall back
        to when the in-band write path is wedged: slower, but it always
        lands.  Used for transactional rollback and for the watchdog's
        emergency throttle.
        """
        for dom, watts in zip(CAP_TUPLE_DOMAINS, caps_w):
            self.domain(dom).set_cap(None if watts is None else float(watts))
            self._stats["forced"] += 1

    def snapshot_caps(self) -> dict[str, tuple[float | None, float | None]]:
        """Capture every domain's (programmed, enforced) limit pair."""
        return {
            d.value: (reg.cap_w, reg.enforced_w)
            for d, reg in self._domains.items()
        }

    def restore_caps(
        self, snapshot: dict[str, tuple[float | None, float | None]]
    ) -> None:
        """Out-of-band restore of a :meth:`snapshot_caps` capture."""
        for name, (readback_w, enforced_w) in snapshot.items():
            self._domains[Domain(name)].program(readback_w, enforced_w)
            self._stats["forced"] += 1

    def caps(self) -> dict[Domain, float | None]:
        """Currently programmed caps."""
        return {d: reg.cap_w for d, reg in self._domains.items()}

    def clear_caps(self) -> None:
        """Remove every domain cap."""
        for reg in self._domains.values():
            reg.set_cap(None)

    # ------------------------------------------------------------------
    # cap resolution
    # ------------------------------------------------------------------

    def resolve(
        self,
        active_per_socket,
        activity: float,
        demanded_bandwidth_per_socket,
        demanded_frequency_hz: float | None = None,
        strict: bool = False,
    ) -> OperatingPoint:
        """Find the operating point under the caps enforced now.

        Calls :meth:`resolve_under` with the enforced PKG/DRAM limits,
        then records one throttle event on each domain the result
        throttles.  A ``strict`` floor error propagates before any
        event is recorded.
        """
        pkg_reg = self._domains[Domain.PKG]
        dram_reg = self._domains[Domain.DRAM]
        op = self.resolve_under(
            pkg_reg.enforced_w,
            dram_reg.enforced_w,
            active_per_socket,
            activity,
            demanded_bandwidth_per_socket,
            demanded_frequency_hz,
            strict,
        )
        if op.mem_throttled:
            dram_reg.note_throttled()
        if op.cpu_throttled:
            pkg_reg.note_throttled()
        return op

    def resolve_under(
        self,
        pkg_limit_w: float | None,
        dram_limit_w: float | None,
        active_per_socket,
        activity: float,
        demanded_bandwidth_per_socket,
        demanded_frequency_hz: float | None = None,
        strict: bool = False,
    ) -> OperatingPoint:
        """Find the operating point hardware capping would settle at
        under the given PKG/DRAM limits.

        Side-effect free: the limits are arguments (``None`` = the
        domain max, larger values clipped to it, as
        :attr:`RaplDomain.effective_cap_w` does), and no register is
        read or written.  What-if evaluation calls this directly;
        :meth:`resolve` calls it with the enforced caps.

        The PKG limit is honored by stepping down the shared frequency;
        the DRAM limit by stepping down the memory power level, which
        bounds delivered bandwidth.  Both mirror the mechanisms listed
        in the paper (§I: "memory power level setting, thread
        concurrency throttling").

        Parameters
        ----------
        active_per_socket:
            Active core counts per socket.
        activity:
            Core activity factor in [0, 1] (memory-stalled < 1).
        demanded_bandwidth_per_socket:
            Bandwidth (B/s) the workload would consume uncapped.
        demanded_frequency_hz:
            Optional software frequency pin; defaults to the ladder max.
        strict:
            When true, a cap below the hardware floor raises
            :class:`PowerDomainError`; the default mirrors real RAPL,
            which clamps at the lowest operating point and lets the
            limit be exceeded (flagged via ``cap_violated``).
        """
        node = self._model.node
        active = tuple(int(n) for n in active_per_socket)
        if len(active) != node.n_sockets:
            raise PowerDomainError("active_per_socket length != n_sockets")
        demand_bw = tuple(float(b) for b in demanded_bandwidth_per_socket)
        if len(demand_bw) != node.n_sockets:
            raise PowerDomainError("bandwidth list length != n_sockets")

        # --- DRAM: the cap sets a per-socket bandwidth ceiling -----------
        # The returned ``bandwidth_per_socket`` is the *allowed* ceiling
        # (what a memory power level grants), not the delivered traffic;
        # power is accounted from the delivered estimate min(demand, cap).
        dram_cap = self._domains[Domain.DRAM].clip(dram_limit_w)
        per_socket_cap = dram_cap / node.n_sockets
        limit = self._model.max_bandwidth_under_dram_cap(per_socket_cap)
        mem_cap_violated = False
        if limit is None:
            if strict:
                raise PowerDomainError(
                    f"DRAM cap {dram_cap:.1f} W below base power; cannot honor"
                )
            # hardware floor: lowest memory power level keeps running
            mem = node.socket.memory
            limit = mem.bandwidth_at_level(0)
            mem_cap_violated = True
        bw = tuple(limit for _ in demand_bw)
        delivered = tuple(min(b, limit) for b in demand_bw)
        mem_throttled = mem_cap_violated or any(
            b > limit * (1 + 1e-9) for b in demand_bw
        )
        dram_w = float(sum(self._model.dram_power(b) for b in delivered))

        # --- PKG: highest ladder frequency fitting under the cap ---
        pkg_cap = self._domains[Domain.PKG].clip(pkg_limit_w)
        f_demand = (
            self._ladder.quantize_down(demanded_frequency_hz)
            if demanded_frequency_hz is not None
            else self._ladder.f_max
        )
        f_cont = self._model.max_freq_under_pkg_cap(pkg_cap, active, activity)
        cpu_cap_violated = False
        duty = 1.0
        if f_cont is None and strict:
            raise PowerDomainError(
                f"PKG cap {pkg_cap:.1f} W below static power of "
                f"{sum(active)} active cores; cannot honor"
            )
        # each socket's static draw: pkg_power at f = 0, where the
        # dynamic term vanishes
        static_w = [self._model.pkg_power(n, 0.0, activity) for n in active]
        if f_cont is None:
            # Below the lowest P-state's power RAPL falls back to clock
            # modulation: run at f_min but gate the clock for part of
            # each window.  Gating scales the dynamic term only; if the
            # cap is below static power even at the deepest duty cycle,
            # the limit is genuinely violated.
            f_cont = self._ladder.f_min
            static = float(sum(static_w))
            dyn_fmin = (
                float(
                    sum(
                        self._model.pkg_power(n, f_cont, activity)
                        for n in active
                    )
                )
                - static
            )
            if dyn_fmin > 0:
                duty = (pkg_cap - static) / dyn_fmin
            duty = min(max(float(duty), MIN_DUTY_CYCLE), 1.0)
            cpu_cap_violated = pkg_cap < static + MIN_DUTY_CYCLE * max(dyn_fmin, 0.0)
        f_allowed = self._ladder.quantize_down(f_cont)
        cpu_throttled = duty < 1.0 or cpu_cap_violated or f_allowed < f_demand
        f = min(f_demand, f_allowed)
        pkg_w = float(
            sum(
                s_w + (self._model.pkg_power(n, f, activity) - s_w) * duty
                for n, s_w in zip(active, static_w)
            )
        )
        return OperatingPoint(
            frequency_hz=f,
            bandwidth_per_socket=bw,
            pkg_power_w=pkg_w,
            dram_power_w=dram_w,
            cpu_throttled=cpu_throttled,
            mem_throttled=mem_throttled,
            cpu_cap_violated=cpu_cap_violated,
            mem_cap_violated=mem_cap_violated,
            duty_cycle=duty,
        )

    def resolve_gpu(self, strict: bool = False) -> tuple[float, bool, bool]:
        """Device clock under the enforced GPU cap.

        Calls :meth:`resolve_gpu_under` with the enforced limit; a
        throttled result records one throttle event.
        """
        reg = self.domain(Domain.GPU)
        clock, throttled, violated = self.resolve_gpu_under(
            reg.enforced_w, strict
        )
        if throttled:
            reg.note_throttled()
        return clock, throttled, violated

    def resolve_gpu_under(
        self, gpu_limit_w: float | None, strict: bool = False
    ) -> tuple[float, bool, bool]:
        """Highest device clock whose full-utilization power fits the
        given GPU limit (side effect free, like :meth:`resolve_under`).

        The GPU cap is honoured by stepping the device clock down its
        ladder, sized against *worst-case* (fully-busy) draw so the
        clock choice is independent of the workload's actual device
        utilization — which is what lets the clock be resolved once,
        outside the host's damped fixed point.

        Returns ``(clock_hz, throttled, cap_violated)``.  When the cap
        sits below the lowest clock's busy power the device clamps at
        the ladder floor and the limit may be exceeded (real boards
        behave the same below their minimum P-state); ``strict`` turns
        that into :class:`PowerDomainError`.
        """
        if self._gpu_ladder is None:
            raise PowerDomainError("node has no 'gpu' power domain")
        cap = self._domains[Domain.GPU].clip(gpu_limit_w)
        clock = self._gpu_ladder.highest_under(
            lambda clk: self._model.gpu_power(clk, 1.0) <= cap
        )
        violated = False
        if clock is None:
            if strict:
                raise PowerDomainError(
                    f"GPU cap {cap:.1f} W below the lowest clock's busy "
                    f"power; cannot honor"
                )
            clock = self._gpu_ladder.f_min
            violated = True
        throttled = violated or clock < self._gpu_ladder.f_max
        return clock, throttled, violated

    # ------------------------------------------------------------------
    # energy accounting
    # ------------------------------------------------------------------

    def accumulate(self, point: OperatingPoint, dt_s: float) -> None:
        """Integrate a steady-state interval into the energy counters."""
        self._domains[Domain.PKG].accumulate(point.pkg_power_w, dt_s)
        self._domains[Domain.DRAM].accumulate(point.dram_power_w, dt_s)
        gpu = self._domains.get(Domain.GPU)
        if gpu is not None:
            gpu.accumulate(point.gpu_power_w, dt_s)

    def energy_j(self, domain: Domain) -> float:
        """Unwrapped accumulated energy of *domain* in joules."""
        return self.domain(domain).energy_j
