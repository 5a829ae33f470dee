"""Dynamic voltage and frequency scaling (DVFS).

:class:`FrequencyLadder` wraps a socket's discrete P-state table and
answers the two questions the rest of the system asks:

* "what frequencies may I run at?" (quantization), and
* "what is the highest frequency whose package power fits under a cap?"
  — the core of RAPL cap resolution in :mod:`repro.hw.rapl`.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence

from repro.errors import SpecError
from repro.hw.specs import GpuSpec, SocketSpec

__all__ = ["FrequencyLadder"]


class FrequencyLadder:
    """An ascending table of permitted core frequencies (Hz)."""

    def __init__(self, frequencies: Sequence[float]):
        freqs = tuple(float(f) for f in frequencies)
        if not freqs:
            raise SpecError("frequency ladder must be non-empty")
        if any(f <= 0 for f in freqs):
            raise SpecError("frequencies must be positive")
        if tuple(sorted(freqs)) != freqs or len(set(freqs)) != len(freqs):
            raise SpecError("frequency ladder must be strictly ascending")
        self._freqs = freqs

    @classmethod
    def from_socket(cls, socket: SocketSpec) -> "FrequencyLadder":
        """Build the ladder declared by a socket specification."""
        return cls(socket.freq_ladder)

    @classmethod
    def from_gpu(cls, gpu: GpuSpec) -> "FrequencyLadder":
        """Build the clock ladder declared by an accelerator spec."""
        return cls(gpu.clock_ladder_hz)

    @property
    def frequencies(self) -> tuple[float, ...]:
        """All permitted frequencies, ascending."""
        return self._freqs

    @property
    def f_min(self) -> float:
        """Lowest P-state."""
        return self._freqs[0]

    @property
    def f_max(self) -> float:
        """Highest P-state (turbo ceiling)."""
        return self._freqs[-1]

    def __len__(self) -> int:
        return len(self._freqs)

    def __contains__(self, f: float) -> bool:
        i = bisect.bisect_left(self._freqs, f)
        return i < len(self._freqs) and abs(self._freqs[i] - f) < 1e-3

    def quantize_down(self, f: float) -> float:
        """Largest ladder frequency <= *f* (clamped to ``f_min``)."""
        i = bisect.bisect_right(self._freqs, f + 1e-6)
        return self._freqs[max(0, i - 1)]

    def highest_under(self, predicate) -> float | None:
        """Highest frequency for which ``predicate(f)`` is true.

        *predicate* must be monotone (true for low f implies true for
        all lower f); this is exactly the shape of "power fits under a
        cap".  The search is a descending linear scan — ladders have at
        most a few dozen entries, so binary search would buy nothing
        (per the guides: measure before optimizing).

        Returns ``None`` if the predicate fails even at ``f_min``.
        """
        for f in reversed(self._freqs):
            if predicate(f):
                return f
        return None
