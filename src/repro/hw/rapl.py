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
  until the running average obeys the limit);
* :class:`CapBank` — every node's hardware state as arrays: per domain
  the limit, energy-status and throttle registers side by side, per
  node the write-path counters, fault models and wall meter.  A
  fleet-wide cap set is written with array operations; the two classes
  above and :class:`~repro.hw.meter.PowerMeter` are views over a row.

The simulated counters are exact integrators of the analytic power
model, so tests can assert energy conservation to float precision.
"""

from __future__ import annotations

import enum
import itertools
from array import array
from dataclasses import dataclass

import numpy as np

from repro.errors import ActuationError, PowerDomainError
from repro.hw.actuation import PERFECT_ACTUATION, ActuationPolicy
from repro.hw.dvfs import FrequencyLadder
from repro.hw.power import PowerModel
from repro.units import check_non_negative, check_positive

__all__ = ["Domain", "CapBank", "RaplDomain", "RaplInterface", "OperatingPoint"]

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


#: Write-path counters of :attr:`RaplInterface.actuation_stats`, in its
#: key order (``backoff_s``, a float, follows them).
_COUNTERS = ("writes", "dropped", "partial", "drifted", "verified",
             "retries", "forced")
_WRITES, _DROPPED, _PARTIAL, _DRIFTED, _VERIFIED, _RETRIES, _FORCED = range(7)
#: Bank column of each domain, and the column indices as an array.
_COLUMN = {d: i for i, d in enumerate(CAP_TUPLE_DOMAINS)}
_COLUMNS = np.arange(len(CAP_TUPLE_DOMAINS))
#: An uncapped register: readback ``None``.
_NAN = float("nan")


class CapBank:
    """The hardware state of a fleet as arrays, one row per node.

    RAPL's register file, one column per :data:`CAP_TUPLE_DOMAINS`
    entry: programmed (``cap_w``) and enforced limits (NaN where
    uncapped or absent), domain maxima, the unwrapped energy
    (``energy_j``), the wrapping energy-status register
    (``energy_raw``) and the throttle count (``throttles``).  Per row:
    the domain count, the write-path counters, each row's actuation
    policy and telemetry fault with a ``faulty`` mask of rows whose
    policy is not :data:`~repro.hw.actuation.PERFECT_ACTUATION`, and the
    wall meter — energy (``wall_j``), elapsed time (``elapsed_s``) and
    the last interval's capped-domain power (``capped_w``).
    :class:`RaplInterface`, :class:`RaplDomain` and
    :class:`~repro.hw.meter.PowerMeter` are views over a row.

    The registers and counters live in flat :class:`array.array`
    buffers, which the per-node views index at Python speed; the
    public attributes are NumPy arrays over the same memory, for
    whole-fleet operations.
    """

    def __init__(self, n_rows: int):
        width = len(CAP_TUPLE_DOMAINS)

        def column(typecode: str, fill, shape):
            buf = array(typecode, [fill]) * int(np.prod(shape))
            return buf, np.frombuffer(buf, dtype=typecode).reshape(shape)

        cells = (n_rows, width)
        self._cap, self.cap_w = column("d", _NAN, cells)
        self._enforced, self.enforced_w = column("d", _NAN, cells)
        self._max, self.max_w = column("d", 0.0, cells)
        self._energy, self.energy_j = column("d", 0.0, cells)
        self._raw, self.energy_raw = column("q", 0, cells)
        self._throttles, self.throttles = column("q", 0, cells)
        self._counts, self.counts = column("q", 0, (n_rows, len(_COUNTERS)))
        self._backoff, self.backoff_s = column("d", 0.0, n_rows)
        self._wall, self.wall_j = column("d", 0.0, n_rows)
        self._elapsed, self.elapsed_s = column("d", 0.0, n_rows)
        self._capped, self.capped_w = column("d", 0.0, n_rows)
        self.n_domains = np.zeros(n_rows, dtype=np.intp)
        self.faulty = np.zeros(n_rows, dtype=bool)
        self.policies = np.full(n_rows, PERFECT_ACTUATION, dtype=object)
        self.telemetry = np.full(n_rows, None, dtype=object)
        self._views: list[RaplInterface | None] = [None] * n_rows

    def attach(self, row: int, rapl: "RaplInterface", maxima: dict) -> None:
        """Make *rapl* the view of *row*, reset as a new node's: limits
        and every counter cleared, the domain maxima set."""
        self.clear(row)
        for col in (self.max_w, self.energy_j, self.energy_raw, self.throttles):
            col[row] = 0
        for d, max_w in maxima.items():
            self.max_w[row, _COLUMN[d]] = check_positive(max_w, "max_power_w")
        self.n_domains[row] = len(maxima)
        self._views[row] = rapl

    def clear(self, row: int | None = None) -> None:
        """Clear one row (every row for ``None``) as a node reset does:
        limits, write-path counters, actuation and telemetry faults and
        the wall meter.  The RAPL energy and throttle counters keep
        counting, as the hardware's do."""
        rows = slice(None) if row is None else row
        self.cap_w[rows] = self.enforced_w[rows] = _NAN
        self.counts[rows] = 0
        self.backoff_s[rows] = self.wall_j[rows] = 0.0
        self.elapsed_s[rows] = self.capped_w[rows] = 0.0
        self.faulty[rows] = False
        self.policies[rows] = PERFECT_ACTUATION
        self.telemetry[rows] = None

    def read_capped_w(self, rows) -> list[float | None]:
        """Sensor readings of *rows*' last capped-domain power.

        One gather of the rows; each row's telemetry fault then
        corrupts its own reading, in the order of *rows* (``None`` = a
        lost reading).
        """
        rows = list(rows)
        readings = self.capped_w[rows].tolist()
        faults = self.telemetry[rows].tolist()
        return [
            reading if fault is None else fault.corrupt(reading)
            for reading, fault in zip(readings, faults)
        ]

    def commit(self, rows, caps, force: bool = False) -> None:
        """Write one cap tuple per row, every row or none.

        Arity and values are checked before any write.  Perfect rows
        take one assignment, verified by one readback compare; faulty
        rows go through :meth:`RaplInterface.write_caps_verified` in row
        order, so their fault draws are a per-node loop's.  When the
        faulty row at position *k* raises
        :class:`~repro.errors.ActuationError`, rows ``0..k`` — the
        attempted prefix — are restored out-of-band from a snapshot
        copy.  ``force`` assigns every row out-of-band.
        """
        rows = np.asarray(rows, dtype=np.intp)
        flat, n_domains = self._checked(rows, caps)
        faulty = [] if force else np.flatnonzero(self.faulty[rows]).tolist()
        if force or len(faulty) < rows.size:  # some row takes the array write
            values = np.full((rows.size, len(CAP_TUPLE_DOMAINS)), np.nan)
            values[_COLUMNS < n_domains[:, None]] = flat
        if force:
            self._assign(rows, values)
            self.counts[rows, _FORCED] += n_domains
            return
        saved = (self.cap_w[rows], self.enforced_w[rows]) if faulty else None
        start = 0
        try:
            for pos in faulty + [rows.size]:
                if pos > start:
                    self._write_perfect(rows[start:pos], values[start:pos])
                start = pos + 1
                if pos < rows.size:
                    self._views[rows[pos]].write_caps_verified(caps[pos])
        except ActuationError:
            self._assign(rows[:start], *(s[:start] for s in saved))
            self.counts[rows[:start], _FORCED] += n_domains[:start]
            raise

    def _checked(self, rows: np.ndarray, caps) -> tuple[np.ndarray, np.ndarray]:
        """The caps' values, flat, and each row's domain count, after
        checking one tuple per distinct row, arity and values."""
        ids = rows.tolist()
        if len(caps) != len(ids) or len(set(ids)) != len(ids) or (
            ids and not 0 <= min(ids) <= max(ids) < len(self._views)
        ):
            raise ValueError("a cap set needs one tuple per distinct row")
        n_domains = self.n_domains[rows]
        arity = list(map(len, caps))
        if arity != n_domains.tolist():
            i = next(i for i, k in enumerate(arity) if k != n_domains[i])
            raise PowerDomainError(
                f"node {ids[i]}: {arity[i]} cap values for its "
                f"{n_domains[i]} power domains"
            )
        flat = np.fromiter(itertools.chain.from_iterable(caps), float)
        if flat.size and not 0 <= flat.min() <= flat.max() < np.inf:
            # NaN (a None cap among them), negative or infinite
            bad = flat[~np.isfinite(flat) | (flat < 0)]
            check_non_negative(float(bad[0]), "cap")
        return flat, n_domains

    def _assign(self, rows: np.ndarray, cap_w: np.ndarray, enforced_w=None) -> None:
        self.cap_w[rows] = cap_w
        self.enforced_w[rows] = cap_w if enforced_w is None else enforced_w

    def _write_perfect(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Every write lands under perfect actuation, so one assignment
        and one readback compare stand in for per-domain round-trips."""
        self._assign(rows, values)
        landed = np.abs(self.cap_w[rows] - values) <= CAP_READBACK_TOLERANCE_W
        self.counts[rows, _WRITES] += self.n_domains[rows]
        self.counts[rows, _VERIFIED] += landed.sum(axis=1)


class RaplDomain:
    """One power domain: an energy counter plus a power limit.

    The limit is held twice: ``cap_w`` is the *programmed* value — what
    a readback of the limit register returns — while the *enforced*
    value is what the silicon actually honours.  Under perfect
    actuation the two are identical; a drifted write makes them
    diverge, which is exactly the failure mode readback verification
    cannot see.  The limits, the energy counters and the throttle count
    live in *row* of *bank*; :class:`RaplInterface` builds one view per
    domain of its node.
    """

    def __init__(self, domain: Domain, bank: CapBank, row: int):
        self._domain = domain
        # the row's registers and counters, at their flat buffer position
        self._cap, self._enforced, self._max = bank._cap, bank._enforced, bank._max
        self._energy, self._raw, self._throttles = (
            bank._energy, bank._raw, bank._throttles
        )
        self._at = row * len(CAP_TUPLE_DOMAINS) + _COLUMN[domain]

    @property
    def domain(self) -> Domain:
        """Which domain this register block controls."""
        return self._domain

    @property
    def cap_w(self) -> float | None:
        """Programmed power limit (readback value), ``None`` if uncapped."""
        value = self._cap[self._at]
        return None if value != value else value

    @property
    def enforced_w(self) -> float | None:
        """Limit the silicon honours; differs from ``cap_w`` under drift."""
        value = self._enforced[self._at]
        return None if value != value else value

    @property
    def effective_cap_w(self) -> float:
        """Cap actually enforced: the limit, clipped to the domain max."""
        limit_w, max_w = self._enforced[self._at], self._max[self._at]
        return max_w if limit_w != limit_w else min(limit_w, max_w)

    def clip(self, limit_w: float | None) -> float:
        """A limit as the silicon honours it: ``None`` is the domain
        max, anything else is clipped to it."""
        max_w = self._max[self._at]
        if limit_w is None:
            return max_w
        return min(float(limit_w), max_w)

    @property
    def throttle_events(self) -> int:
        """How many cap resolutions required throttling below demand."""
        return self._throttles[self._at]

    def set_cap(self, watts: float | None) -> None:
        """Program the power limit perfectly; ``None`` clears it.

        This is the raw register write — no actuation policy involved.
        Fault-aware callers go through :meth:`RaplInterface.set_cap`,
        which routes through the node's policy and may call
        :meth:`program` with diverging values instead.
        """
        self.program(watts, watts)

    def program(self, readback_w: float | None, enforced_w: float | None) -> None:
        """Set the programmed (readback) and enforced limits separately."""
        if readback_w is not None:
            check_non_negative(readback_w, "cap")
        if enforced_w is not None:
            check_non_negative(enforced_w, "enforced cap")
        at = self._at
        self._cap[at] = _NAN if readback_w is None else readback_w
        self._enforced[at] = _NAN if enforced_w is None else enforced_w

    def read_energy_register(self) -> int:
        """Raw energy-status register (wraps like the hardware MSR)."""
        return self._raw[self._at]

    @property
    def energy_j(self) -> float:
        """Unwrapped accumulated energy in joules."""
        return self._energy[self._at]

    def accumulate(self, power_w: float, dt_s: float) -> None:
        """Integrate *power_w* over *dt_s* into the counters."""
        check_non_negative(power_w, "power")
        check_non_negative(dt_s, "dt")
        joules = power_w * dt_s
        at = self._at
        self._energy[at] += joules
        ticks = int(round(joules / ENERGY_UNIT_J))
        self._raw[at] = (self._raw[at] + ticks) % ENERGY_WRAP

    def note_throttled(self) -> None:
        """Record that honoring the cap required throttling."""
        self._throttles[self._at] += 1


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
    bank, row:
        The bank row this node's registers live in, reset as a new
        node's.
    """

    def __init__(self, power_model: PowerModel, bank: CapBank, row: int):
        self._model = power_model
        node = power_model.node
        self._ladder = FrequencyLadder.from_socket(node.socket)
        # Factory defaults: PL1 = TDP per package; DRAM limited only by
        # its own peak draw.  Turbo above TDP is therefore only
        # reachable when few cores are active, as on real parts.
        maxima = {
            Domain.PKG: node.n_sockets * node.socket.tdp_w,
            Domain.DRAM: node.p_mem_max_w,
        }
        # The GPU domain exists only on accelerator-bearing nodes, so
        # CPU-only interfaces keep exactly the legacy PKG/DRAM pair.
        self._gpu_ladder: FrequencyLadder | None = None
        if node.has_gpu:
            maxima[Domain.GPU] = node.p_gpu_max_w
            self._gpu_ladder = FrequencyLadder.from_gpu(node.gpu)
        bank.attach(row, self, maxima)
        self._bank, self._row = bank, row
        self._counts, self._counts_at = bank._counts, row * len(_COUNTERS)
        self._domains = {d: RaplDomain(d, bank, row) for d in maxima}

    def _count(self, counter: int, n: int = 1) -> None:
        self._counts[self._counts_at + counter] += n

    @property
    def model(self) -> PowerModel:
        """The underlying ground-truth power model."""
        return self._model

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
        return self._bank.policies[self._row]

    @actuation.setter
    def actuation(self, policy: ActuationPolicy) -> None:
        self._bank.policies[self._row] = policy
        self._bank.faulty[self._row] = policy is not PERFECT_ACTUATION

    @property
    def actuation_stats(self) -> dict[str, float]:
        """Write-path counters: writes, drops, partials, drifts, retries,
        verified writes, forced (out-of-band) writes, and the total
        simulated backoff the retry schedule accumulated."""
        at = self._counts_at
        stats = dict(zip(_COUNTERS, self._counts[at:at + len(_COUNTERS)]))
        stats["backoff_s"] = self._bank._backoff[self._row]
        return stats

    def set_cap(self, domain: Domain, watts: float | None) -> bool:
        """Program a domain power limit through the actuation policy.

        ``None`` always clears the limit (removing a cap is a
        fail-safe operation).  Returns whether the register now holds
        the requested value — a dropped or partially-applied write
        returns ``False`` so callers on the verified path know to
        retry.  A *drifted* write returns ``True``: its readback is
        correct by construction, only the enforcement is wrong.
        """
        return self._set(self.domain(domain), watts)

    def _set(self, reg: RaplDomain, watts: float | None) -> bool:
        if watts is None:
            reg.set_cap(None)
            return True
        requested = float(watts)
        check_non_negative(requested, "cap")
        counts, at = self._counts, self._counts_at
        counts[at + _WRITES] += 1
        result = self._bank.policies[self._row].apply(
            reg.domain.value, requested, reg.effective_cap_w
        )
        if result.kind == "drop":
            counts[at + _DROPPED] += 1
            return False
        if result.kind == "partial":
            counts[at + _PARTIAL] += 1
            reg.program(result.enforced_w, result.enforced_w)
            return False
        if result.kind == "drift":
            counts[at + _DRIFTED] += 1
            reg.program(requested, result.enforced_w)
            return True
        reg.program(requested, requested)
        return True

    def set_cap_verified(self, domain: Domain, watts: float | None) -> int:
        """Write a cap, read it back, and retry until it sticks.

        Mirrors production practice: each failed readback re-issues the
        write after an exponentially growing backoff (simulated — the
        delay is accounted in ``actuation_stats['backoff_s']``, never
        slept).  Returns the number of retries that were needed; raises
        :class:`~repro.errors.ActuationError` when ``1 +``
        :data:`MAX_CAP_RETRIES` attempts all failed verification.
        Silent drift passes readback and is *not* retried — catching it
        is the watchdog's job.
        """
        backoff_s = CAP_BACKOFF_INITIAL_S
        reg = self.domain(domain)
        for attempt in range(1 + MAX_CAP_RETRIES):
            self._set(reg, watts)
            read = reg.cap_w
            if watts is None:
                landed = read is None
            else:
                landed = (
                    read is not None
                    and abs(read - float(watts)) <= CAP_READBACK_TOLERANCE_W
                )
            if landed:
                self._count(_VERIFIED)
                if attempt:
                    self._count(_RETRIES, attempt)
                return attempt
            self._bank._backoff[self._row] += backoff_s
            backoff_s *= 2.0
        self._count(_RETRIES, MAX_CAP_RETRIES)
        raise ActuationError(
            f"{domain.value} cap write of "
            f"{'None' if watts is None else f'{float(watts):.3f} W'} failed "
            f"readback verification after {1 + MAX_CAP_RETRIES} attempts",
            domain=domain.value,
            requested_w=None if watts is None else float(watts),
        )

    def write_caps_verified(self, caps_w) -> int:
        """Verified write of a positional ``(pkg, dram[, gpu])`` cap tuple.

        The hardware-class arity convention of the decision stack maps
        positionally onto :data:`CAP_TUPLE_DOMAINS`.  Returns total
        retries across the tuple; raises
        :class:`~repro.errors.ActuationError` as soon as one domain
        exhausts its budget (caller is responsible for rollback), and
        :class:`PowerDomainError`, before any write, for a tuple whose
        length is not the node's domain count.
        """
        self._check_arity(caps_w)
        retries = 0
        for dom, watts in zip(CAP_TUPLE_DOMAINS, caps_w):
            retries += self.set_cap_verified(dom, watts)
        return retries

    def force_caps(self, caps_w) -> None:
        """Out-of-band cap write bypassing the actuation policy.

        Models the BMC/service-processor path real clusters fall back
        to when the in-band write path is wedged: slower, but it always
        lands.  Used for transactional rollback and for the watchdog's
        emergency throttle.  Checks the arity as
        :meth:`write_caps_verified` does.
        """
        self._check_arity(caps_w)
        for dom, watts in zip(CAP_TUPLE_DOMAINS, caps_w):
            self.domain(dom).set_cap(None if watts is None else float(watts))
            self._count(_FORCED)

    def _check_arity(self, caps_w) -> None:
        if len(caps_w) != len(self._domains):
            raise PowerDomainError(
                f"{len(caps_w)} cap values for the node's "
                f"{len(self._domains)} power domains"
            )

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
            self._count(_FORCED)

    def caps(self) -> dict[Domain, float | None]:
        """Currently programmed caps."""
        return {d: reg.cap_w for d, reg in self._domains.items()}

    # ------------------------------------------------------------------
    # cap resolution
    # ------------------------------------------------------------------

    def resolve(
        self,
        active_per_socket,
        activity: float,
        demanded_bandwidth_per_socket,
        demanded_frequency_hz: float | None = None,
    ) -> OperatingPoint:
        """Find the operating point under the caps enforced now.

        Calls :meth:`resolve_under` with the enforced PKG/DRAM limits,
        then records one throttle event on each domain the result
        throttles.
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
        concurrency throttling").  A cap below the hardware floor is
        handled as real RAPL does: the domain clamps at its lowest
        operating point and exceeds the limit (flagged via
        ``cpu_cap_violated`` / ``mem_cap_violated``).

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

    def resolve_gpu(self) -> tuple[float, bool, bool]:
        """Device clock under the enforced GPU cap.

        Calls :meth:`resolve_gpu_under` with the enforced limit; a
        throttled result records one throttle event.
        """
        reg = self.domain(Domain.GPU)
        clock, throttled, violated = self.resolve_gpu_under(reg.enforced_w)
        if throttled:
            reg.note_throttled()
        return clock, throttled, violated

    def resolve_gpu_under(
        self, gpu_limit_w: float | None
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
        behave the same below their minimum P-state).
        """
        if self._gpu_ladder is None:
            raise PowerDomainError("node has no 'gpu' power domain")
        cap = self._domains[Domain.GPU].clip(gpu_limit_w)
        clock = self._gpu_ladder.highest_under(
            lambda clk: self._model.gpu_power(clk, 1.0) <= cap
        )
        violated = False
        if clock is None:
            clock = self._gpu_ladder.f_min
            violated = True
        throttled = violated or clock < self._gpu_ladder.f_max
        return clock, throttled, violated

    # ------------------------------------------------------------------
    # energy accounting
    # ------------------------------------------------------------------

    def accumulate(self, point: OperatingPoint, dt_s: float) -> None:
        """Integrate a steady-state interval into the energy counters."""
        powers = (point.pkg_power_w, point.dram_power_w, point.gpu_power_w)
        for reg, power_w in zip(self._domains.values(), powers):
            reg.accumulate(power_w, dt_s)

    def energy_j(self, domain: Domain) -> float:
        """Unwrapped accumulated energy of *domain* in joules."""
        return self.domain(domain).energy_j
