"""Burst coalescing: many concurrent submissions, one batch decision.

The warm decision path is fastest in batches —
``ClipScheduler.schedule_many`` amortizes the pipeline over a burst
(0.25–0.45 ms/job for warm 8-job bursts on a shared 2-vCPU host: the
bare baseline of the serve gates in ``benchmarks/test_perf_gates.py``)
— so the service must not decide submissions one HTTP request at a
time.  :class:`BurstCoalescer` sits between the event loop and a
single decision thread:

* submissions land on an :class:`asyncio.Queue`;
* the coalescer loop takes the first one, then *drains whatever else
  has already arrived* (up to ``max_burst``) — under load, everything
  that queued while the previous burst was deciding becomes the next
  burst, so batching emerges from backpressure with zero added idle
  latency;
* an optional ``window_s`` additionally holds the burst open for
  late arrivals (trading per-request latency for larger bursts at low
  offered rates);
* the burst is handed to
  :meth:`~repro.serve.service.SchedulerService.decide_burst` on a
  dedicated single-thread executor, keeping the event loop responsive
  and the decision path single-file (the shared caches are lock-safe,
  but one decision thread keeps the hot path contention-free).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

from repro.serve.service import SchedulerService, Submission

__all__ = ["BurstCoalescer"]


class BurstCoalescer:
    """Feeds queued submissions to the service in coalesced bursts."""

    def __init__(
        self,
        service: SchedulerService,
        *,
        window_s: float = 0.0,
        max_burst: int = 512,
    ):
        if window_s < 0:
            raise ValueError("window_s must be >= 0")
        if max_burst < 1:
            raise ValueError("max_burst must be >= 1")
        self._service = service
        self._window_s = float(window_s)
        self._max_burst = int(max_burst)
        self._queue: asyncio.Queue[Submission] = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="clip-decide"
        )
        self._task: asyncio.Task | None = None

    @property
    def window_s(self) -> float:
        """The configured coalescing window (0 = pure drain batching)."""
        return self._window_s

    def start(self) -> None:
        """Start the coalescing loop on the running event loop."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="clip-coalescer"
            )

    def submit_nowait(self, submission: Submission) -> None:
        """Queue one admitted submission for the next burst."""
        self._queue.put_nowait(submission)

    async def _collect(self) -> list[Submission]:
        """Block for the first submission, then coalesce the burst."""
        batch = [await self._queue.get()]
        if self._window_s > 0:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self._window_s
            while len(batch) < self._max_burst:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), timeout)
                    )
                except asyncio.TimeoutError:
                    break
        while len(batch) < self._max_burst and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        return batch

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._collect()
            # while this runs, new arrivals pile up into the next burst
            await loop.run_in_executor(
                self._executor, self._service.decide_burst, batch
            )

    async def stop(self) -> None:
        """Stop the loop, fail whatever never got decided, free the
        decision thread.  Idempotent."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        leftovers = []
        while not self._queue.empty():
            leftovers.append(self._queue.get_nowait())
        if leftovers:
            self._service.fail_pending(leftovers, "service shutting down")
        self._executor.shutdown(wait=True)
