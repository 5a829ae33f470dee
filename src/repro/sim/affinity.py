"""Thread placement policies.

CLIP's node level "selectively activates the CPU cores" and chooses
"core and memory affinity based on application memory access intensity"
(§I).  The two families it selects between are:

* **compact** — fill one socket before spilling to the next.  Threads
  share caches and the synchronization path stays on-package, but only
  one memory controller serves traffic until the socket overflows.
* **scatter** — balance threads across sockets.  Both controllers are
  engaged (double bandwidth for memory-bound codes) at the price of
  cross-socket traffic on the shared working set.

:class:`Placement` carries the derived facts the performance model
consumes: per-socket thread counts and the remote-access fraction.

Placements are memoized: the engine rebuilds the identical placement
for every candidate configuration and every phase override, and the
result depends only on the topology *shape*, the thread count, the
policy, and the shared fraction.  :class:`Placement` is frozen, so the
cached instances are safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AffinityError
from repro.hw.numa import AffinityKind, NumaTopology

__all__ = [
    "Placement",
    "make_placement",
    "placement_for",
    "placement_cache_info",
    "placement_cache_clear",
]

#: Memoized placements keyed on (topology shape, n_threads, kind,
#: shared_fraction).  Bounded defensively: property tests sweep random
#: shared fractions and would otherwise grow the table without limit.
_PLACEMENT_CACHE: dict[tuple, "Placement"] = {}
_PLACEMENT_CACHE_MAX = 8192
_cache_hits = 0
_cache_misses = 0


def placement_cache_info() -> dict[str, int]:
    """Hit/miss counters and current size of the placement cache."""
    return {
        "hits": _cache_hits,
        "misses": _cache_misses,
        "size": len(_PLACEMENT_CACHE),
    }


def placement_cache_clear() -> None:
    """Empty the placement cache and reset its counters."""
    global _cache_hits, _cache_misses
    _PLACEMENT_CACHE.clear()
    _cache_hits = 0
    _cache_misses = 0


@dataclass(frozen=True)
class Placement:
    """A concrete thread-to-core assignment on one node."""

    kind: AffinityKind
    cores: tuple[int, ...]
    threads_per_socket: tuple[int, ...]
    remote_fraction: float

    @property
    def n_threads(self) -> int:
        """Number of placed threads."""
        return len(self.cores)

    @property
    def sockets_used(self) -> int:
        """Sockets hosting at least one thread."""
        return sum(1 for c in self.threads_per_socket if c > 0)


def make_placement(
    topo: NumaTopology,
    n_threads: int,
    kind: AffinityKind,
    shared_fraction: float,
) -> Placement:
    """Assign *n_threads* to cores under the given policy.

    ``shared_fraction`` is the workload's shared-working-set share,
    needed to derive the placement's remote-access fraction.
    """
    if not 1 <= n_threads <= topo.n_cores:
        raise AffinityError(
            f"n_threads {n_threads} outside [1, {topo.n_cores}]"
        )
    global _cache_hits, _cache_misses
    key = (
        topo.n_sockets,
        topo.cores_per_socket,
        int(n_threads),
        kind,
        float(shared_fraction),
    )
    cached = _PLACEMENT_CACHE.get(key)
    if cached is not None:
        _cache_hits += 1
        return cached
    _cache_misses += 1
    if kind is AffinityKind.COMPACT:
        cores = tuple(range(n_threads))
    elif kind is AffinityKind.SCATTER:
        # round-robin over sockets: socket of thread t is t % n_sockets
        per_socket_next = [0] * topo.n_sockets
        out: list[int] = []
        for t in range(n_threads):
            s = t % topo.n_sockets
            # if this socket is full, find the next with room
            for probe in range(topo.n_sockets):
                cand = (s + probe) % topo.n_sockets
                if per_socket_next[cand] < topo.cores_per_socket:
                    s = cand
                    break
            out.append(s * topo.cores_per_socket + per_socket_next[s])
            per_socket_next[s] += 1
        cores = tuple(out)
    else:  # pragma: no cover - enum is exhaustive
        raise AffinityError(f"unknown affinity kind {kind!r}")
    tps = topo.threads_per_socket(cores)
    remote = topo.remote_access_fraction(cores, shared_fraction)
    placement = Placement(
        kind=kind,
        cores=cores,
        threads_per_socket=tuple(int(c) for c in tps),
        remote_fraction=remote,
    )
    if len(_PLACEMENT_CACHE) >= _PLACEMENT_CACHE_MAX:
        _PLACEMENT_CACHE.clear()
    _PLACEMENT_CACHE[key] = placement
    return placement


def placement_for(
    topo: NumaTopology,
    n_threads: int,
    shared_fraction: float,
    memory_intensive: bool,
) -> Placement:
    """The affinity rule of thumb CLIP's profiler applies (§IV-B.1).

    Memory-intensive codes scatter (both controllers matter more than
    locality); compute-bound codes pack compactly while they fit on one
    socket, keeping synchronization on-package.
    """
    kind = (
        AffinityKind.SCATTER
        if memory_intensive or n_threads > topo.cores_per_socket
        else AffinityKind.COMPACT
    )
    return make_placement(topo, n_threads, kind, shared_fraction)
