"""Host speed, measured beside the system under test.

On a shared host the CPU time neighbours leave moves the speed of
every CPU-bound loop together, by up to 2x for seconds to minutes at a
time.  :class:`HostSpeed` runs a fixed spin loop (:func:`probe`) every
``INTERVAL_S`` in a separate process pinned to the CPU the system under
test runs on, and :meth:`HostSpeed.adjust` scales each timed sample by
``REFERENCE_PROBE_S`` over the probe's median in the sample's window.
The adjusted times are what the run reports: they follow the program's
own speed, while the wall-clock times (kept in ``info``) also follow
the host's.

Run as ``python3 speed.py OUT`` it is the probing process: it appends
``monotonic_start seconds`` lines to *OUT* until terminated or until
its parent exits.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Iterations of the probe loop: ~1.3 ms, ~1% of a CPU every INTERVAL_S.
PROBE_ITERS = 25_000
#: The probe's time on an unloaded 2-vCPU Intel Xeon host under Python
#: 3.11; adjusted times read as wall-clock times on that host.
REFERENCE_PROBE_S = 1.3e-3
INTERVAL_S = 0.1
#: Samples are adjusted by the median probe of their window.
WINDOW_S = 1.0


def probe() -> float:
    """Seconds of the fixed pure-Python spin loop."""
    start = time.monotonic()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i * i
    return time.monotonic() - start


class HostSpeed:
    """A probing process on *cpus* and the adjustment it yields."""

    def __init__(self, cpus: set, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        os.sched_setaffinity(self._proc.pid, cpus)
        self._windows: dict[int, float] = {}
        self._overall = REFERENCE_PROBE_S

    def stop(self) -> None:
        """End the probing process and wait for it (idempotent)."""
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait()

    def _refresh(self) -> None:
        """Re-read the probes written so far."""
        by_window = defaultdict(list)
        every = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) != 2:  # a line cut short by termination
                continue
            at, seconds = float(parts[0]), float(parts[1])
            by_window[int(at // WINDOW_S)].append(seconds)
            every.append(seconds)
        if every:
            self._windows = {k: statistics.median(v)
                             for k, v in by_window.items()}
            self._overall = statistics.median(every)

    def factor(self, at: float) -> float:
        """``REFERENCE_PROBE_S`` over the probe median around *at*."""
        probe_s = self._windows.get(int(at // WINDOW_S), self._overall)
        return REFERENCE_PROBE_S / probe_s

    def adjust(self, samples) -> list[float]:
        """Adjusted seconds of ``(monotonic start, seconds)`` samples."""
        self._refresh()
        return [s * self.factor(start + s / 2) for start, s in samples]

    def summary(self) -> dict:
        """The probe's times over the run, in ms."""
        self._refresh()
        medians = [self._windows[k] for k in sorted(self._windows)]
        if not medians:
            return {}
        return {
            "first_window_ms": medians[0] * 1e3,
            "last_window_ms": medians[-1] * 1e3,
            "median_ms": self._overall * 1e3,
            "min_window_ms": min(medians) * 1e3,
            "max_window_ms": max(medians) * 1e3,
        }


def _main(out: str) -> None:
    parent = os.getppid()
    with open(out, "a", encoding="utf-8") as fh:
        while os.getppid() == parent:  # outlive no run, even a killed one
            at = time.monotonic()
            fh.write(f"{at:.6f} {probe():.9f}\n")
            fh.flush()
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    _main(sys.argv[1])
