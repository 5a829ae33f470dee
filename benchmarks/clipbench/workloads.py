"""The four clipbench workloads.

Every input a workload feeds the system -- arrivals, job mixes, budget
sequences, fault seeds -- comes from :meth:`Workload.inputs`, a pure
function of ``--seed``.  ``setup_samples`` times the system's set-up in
fresh processes, ``prepare`` builds and warms it in this one, and
``measure`` drives it for a given number of seconds and returns the
end-to-end numbers of that window.

Every timing is kept as a ``(monotonic start, seconds)`` sample, so
that the run's :class:`speed.HostSpeed` can adjust it for the host's
speed at that moment; metrics are computed once from adjusted and once
from wall-clock seconds (``info["unadjusted"]``).

The system under test runs on ``SYSTEM_CPUS``, beside the host-speed
probe; serve-open's load generator runs on ``LOADGEN_CPUS``.
"""

from __future__ import annotations

import http.client
import itertools
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace

from repro.analysis.experiments import build_trained_inflection
from repro.core.knowledge import KnowledgeDB
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.core.watchdog import PowerEnforcementWatchdog
from repro.errors import ActuationError, ServeError
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import haswell_testbed, mixed_testbed
from repro.serve import ServeClient
from repro.sim.engine import ExecutionEngine
from repro.sim.faults import FaultEvent, FaultInjector
from repro.workloads.apps import all_apps, get_app

from paths import HERE, ROOT, SRC, WORK_DIR
from speed import HostSpeed
from stats import pct, proc_peak_rss_mb
from tracer import Tracer

#: The 13 CPU applications, in catalogue order.
APP_NAMES = tuple(a.name for a in all_apps())

#: How many times ``setup_s`` sets the system up per run.
SETUP_REPEATS = 3


def _split_cpus() -> tuple[set, set]:
    """(system CPUs, load-generator CPUs): the last CPU for the system,
    the rest for the load generator; all of them for both on one CPU.

    Unpinned, serve-open's daemon threads handed the GIL across vCPUs
    and shared them with the load generator: on a shared 2-vCPU host,
    five alternating runs of one seed saturated at 908-1660 jobs/s
    unpinned and 1392-1480 jobs/s pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[-1]}, set(cpus[:-1])


SYSTEM_CPUS, LOADGEN_CPUS = _split_cpus()


@dataclass
class Ops:
    """Operations attempted and failed, with the first few errors."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)

    def merge(self, other: "Ops") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: 10 - len(self.errors)])


@dataclass
class Result:
    """What one measured window produced.

    ``metrics`` holds every end-to-end metric but ``setup_s`` (and
    ``peak_rss_mb`` for in-process workloads, read by the caller).
    ``info["unadjusted"]`` holds the same metrics in wall-clock time.
    A traced serve-open window also carries the daemon's spans and the
    load phases' windows on the shared monotonic clock.
    """

    metrics: dict[str, float]
    ops: Ops
    info: dict
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    windows: dict | None = None


def _stream(name: str, seed: int) -> random.Random:
    """An independent RNG per (input stream, seed); str seeds hash
    with SHA-512, so streams are identical across processes."""
    return random.Random(f"{name}/{seed}")


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list:
    """*n* values, one from each of *n* equal slices of ``[lo, hi)``,
    in seeded order.

    Inputs come in blocks drawn this way (and blocks of balanced job
    mixes), so the seed picks the order and the jitter while every
    block covers the input space alike: runs with different seeds then
    differ by noise, not by how many hard inputs they happened to draw.
    """
    values = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _ms(values, q: float) -> float:
    return pct(values, q) * 1e3


def wall(samples) -> list[float]:
    """Wall-clock seconds of ``(start, seconds)`` samples."""
    return [seconds for _, seconds in samples]


def _latency_info(values) -> dict:
    """Sample count and upper percentiles of the primary latency series.

    Reported, not gated: even adjusted for host speed, serve-open's
    p95/p99 spread 0.15-0.19 (IQR/median over ten runs) on a shared
    2-vCPU host, too close to the 25% a regression bound may allow.
    """
    return {"samples": len(values), "p95_ms": _ms(values, 95),
            "p99_ms": _ms(values, 99)}


def _timed(ops: Ops, tracer, name: str, fn, *args, **kwargs):
    """Call *fn* as one operation: ``(result, (start, seconds))``, or
    ``(None, None)`` when it raised (counted as a failed operation).
    Traced runs record it as a root span named *name*."""
    ops.attempted += 1
    span = tracer.begin(name) if tracer is not None else None
    start = time.monotonic()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the run goes on and reports the failure
        ops.fail(f"{name}: {type(exc).__name__}: {exc}")
        return None, None
    finally:
        elapsed = time.monotonic() - start
        if span is not None:
            tracer.finish(span)
    return result, (start, elapsed)


def _engine(spec) -> ExecutionEngine:
    return ExecutionEngine(SimulatedCluster(spec), seed=42)


def _scheduler(engine: ExecutionEngine) -> ClipScheduler:
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))


class Workload:
    """Base: set-up timed in fresh processes running :meth:`build`.

    *speed* adjusts the timings :meth:`measure` reports; the benchmark
    process itself runs on ``cpus``.
    """

    name = ""
    cpus = SYSTEM_CPUS

    def __init__(self, seed: int, speed: HostSpeed | None = None):
        self.seed = seed
        self.speed = speed

    def inputs(self) -> dict:
        """Named input streams (iterators of JSON-safe items), drawn
        from the seed alone."""
        raise NotImplementedError

    def build(self) -> None:
        """Import, train the predictor, construct the scheduler(s)."""
        raise NotImplementedError

    def setup_samples(self) -> list[tuple[float, float]]:
        """Spawn-to-built times of ``SETUP_REPEATS`` fresh processes
        (on this process's CPUs, which they inherit)."""
        samples = []
        for _ in range(SETUP_REPEATS):
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "setup_probe.py"), self.name],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            with proc:
                line = proc.stdout.readline()
                elapsed = time.monotonic() - start
                proc.stdout.close()
                code = proc.wait(timeout=120)
            if line.strip() != "ready" or code != 0:
                raise RuntimeError(f"{self.name} set-up probe failed ({code})")
            samples.append((start, elapsed))
        return samples

    def prepare(self) -> None:
        self.build()

    def measure(self, seconds: float, tracer: Tracer | None) -> Result:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``prepare`` holds (processes, files)."""


def _fold_ledger(monitor, ops: Ops, tally: dict, limit: int = 0) -> None:
    """Count the audit ledger's violations into *tally*, then clear it.

    The ledger is append-only; a long run would otherwise grow it (and
    the process) without bound.
    """
    if monitor.n_audits <= limit:
        return
    bad = monitor.n_violations
    tally["audits"] += monitor.n_audits
    tally["violations"] += bad
    if bad:
        ops.fail(f"{bad} budget-audit violations")
    monitor.reset()


# ----------------------------------------------------------------------
# decide-cold
# ----------------------------------------------------------------------


class DecideCold(Workload):
    """First decisions of apps no scheduler has seen, on fresh schedulers."""

    name = "decide-cold"
    TESTBEDS = {"haswell": haswell_testbed, "mixed": mixed_testbed}
    BUDGET_RANGE_W = (900.0, 2400.0)

    def inputs(self) -> dict:
        n = len(APP_NAMES)

        def rounds(rng):
            for r in itertools.count():
                budgets = [round(b, 1) for b in
                           _stratified(rng, *self.BUDGET_RANGE_W, n)]
                warm = [round(b, 1) for b in
                        _stratified(rng, *self.BUDGET_RANGE_W, n)]
                yield {
                    "testbed": tuple(self.TESTBEDS)[r % 2],
                    "jobs": [
                        {"app": app, "budget_w": b, "warm_budget_w": w}
                        for app, b, w in zip(_shuffled(rng, APP_NAMES),
                                             budgets, warm)
                    ],
                }
        return {"rounds": rounds(_stream(f"{self.name}/rounds", self.seed))}

    def build(self) -> None:
        self._engines = {}
        for name, factory in self.TESTBEDS.items():
            engine = _engine(factory())
            _scheduler(engine)
            self._engines[name] = engine

    def measure(self, seconds, tracer):
        ops, tally = Ops(), defaultdict(int)
        cold, warm = [], []
        by_testbed = defaultdict(list)
        rounds = []  # (samples of a round's cold work, decisions made)
        deadline = time.monotonic() + seconds
        for rnd in self.inputs()["rounds"]:
            if time.monotonic() >= deadline and (cold or ops.failed):
                break
            engine = self._engines[rnd["testbed"]]
            clip, built = _timed(
                ops, tracer, "op.cold.construct", ClipScheduler, engine,
                inflection=build_trained_inflection(engine),
                knowledge=KnowledgeDB(),
            )
            if clip is None:
                continue
            work = [built]
            for job in rnd["jobs"]:
                app = get_app(job["app"])
                _, sample = _timed(ops, tracer, "op.cold.decide", clip.schedule,
                                   app, job["budget_w"])
                if sample is None:
                    continue
                work.append(sample)
                cold.append(sample)
                by_testbed[rnd["testbed"]].append(sample)
                _, sample = _timed(ops, tracer, "op.cold.warm", clip.schedule,
                                   app, job["warm_budget_w"])
                if sample is not None:
                    warm.append(sample)
            rounds.append((work, len(work) - 1))
            _fold_ledger(clip.monitor, ops, tally)
            tally["rounds"] += 1
        if not cold or not warm:
            raise RuntimeError(f"no cold and warm decisions: {ops.errors}")

        def metrics(times):
            # cold decisions per second of each round's cold work,
            # construction included
            rates = [n / sum(times(work)) for work, n in rounds]
            return {"p50_ms": _ms(times(cold), 50),
                    "ops_per_s": statistics.median(rates),
                    "aux_p50_ms": _ms(times(warm), 50)}

        adjust = self.speed.adjust
        return Result(
            metrics=metrics(adjust),
            ops=ops,
            info={
                "unadjusted": metrics(wall),
                **_latency_info(adjust(cold)),
                **{f"p50_ms.{tb}": _ms(adjust(xs), 50)
                   for tb, xs in by_testbed.items()},
                **tally,
            },
        )


# ----------------------------------------------------------------------
# decide-fleet
# ----------------------------------------------------------------------


class DecideFleet(Workload):
    """Warm decisions, batches and re-coordinations at 1024 nodes."""

    name = "decide-fleet"
    RACKS = 128
    PER_NODE_W = 150.0
    APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "tealeaf")
    BATCH = 64
    #: phase -> share of the measured time (20 s : 5 s : 8 s)
    PHASES = {"single": 20 / 33, "batch": 5 / 33, "swing": 8 / 33}

    ROUND_S = 2.0

    @property
    def budget_w(self) -> float:
        return self.PER_NODE_W * 8 * self.RACKS

    def inputs(self) -> dict:
        base = self.budget_w

        def singles(rng):
            while True:
                apps = _shuffled(rng, self.APPS * 2)
                for app, f in zip(apps, _stratified(rng, 0.6, 1.3, len(apps))):
                    yield {"app": app, "budget_w": round(base * f, 1)}

        def batches(rng):
            while True:
                for f in _stratified(rng, 0.6, 1.3, 4):
                    # 12 or 13 of each app; which one gets 12 rotates
                    mix = (_shuffled(rng, self.APPS) * self.BATCH)[: self.BATCH]
                    yield {"apps": _shuffled(rng, mix),
                           "budget_w": round(base * f, 1)}

        def swings(rng):
            # above ~0.75x the pinned concurrency stays feasible, so a
            # swing never re-plans the thread count
            while True:
                for f in _stratified(rng, 0.8, 1.2, 10):
                    yield {"budget_w": round(base * f, 1)}

        return {
            name: gen(_stream(f"{self.name}/{name}", self.seed))
            for name, gen in (("single", singles), ("batch", batches),
                              ("swing", swings))
        }

    def build(self) -> None:
        self._clip = _scheduler(_engine(haswell_testbed(racks=self.RACKS)))

    def prepare(self) -> None:
        self.build()
        clip = self._clip
        for name in self.APPS:  # profile + fit once: the rest is warm
            clip.schedule(get_app(name), self.budget_w)
        self._runtime = PowerBoundedRuntime(clip)
        self._job = self._runtime.launch(
            get_app("comd"), self.budget_w, n_nodes=clip.engine.cluster.n_nodes,
            allow_concurrency_change=True,
        )
        clip.monitor.reset()

    def _op(self, phase: str, item: dict, ops: Ops, tracer):
        if phase == "single":
            return _timed(ops, tracer, "op.fleet.decide", self._clip.schedule,
                          get_app(item["app"]), item["budget_w"])[1]
        if phase == "batch":
            return _timed(ops, tracer, "op.fleet.batch", self._clip.schedule_many,
                          [get_app(a) for a in item["apps"]], item["budget_w"])[1]
        return _timed(ops, tracer, "op.fleet.recoord", self._runtime.update_budget,
                      self._job, item["budget_w"])[1]

    def measure(self, seconds, tracer):
        """Rounds of about ``ROUND_S`` interleave the three phases, so
        a slow spell of the host lands on all of them alike."""
        ops, tally = Ops(), defaultdict(int)
        monitor = self._clip.monitor
        streams = self.inputs()
        lat = {phase: [] for phase in self.PHASES}
        rounds = max(1, round(seconds / self.ROUND_S))
        for _ in range(rounds):
            for phase, share in self.PHASES.items():
                deadline = time.monotonic() + seconds / rounds * share
                while True:
                    sample = self._op(phase, next(streams[phase]), ops, tracer)
                    if sample is not None:
                        lat[phase].append(sample)
                    _fold_ledger(monitor, ops, tally, limit=2000)
                    if time.monotonic() >= deadline:
                        break
        _fold_ledger(monitor, ops, tally)

        def metrics(times):
            return {"p50_ms": _ms(times(lat["single"]), 50),
                    "ops_per_s": self.BATCH / statistics.median(
                        times(lat["batch"])),
                    "aux_p50_ms": _ms(times(lat["swing"]), 50)}

        return Result(
            metrics=metrics(self.speed.adjust),
            ops=ops,
            info={
                "unadjusted": metrics(wall),
                **_latency_info(self.speed.adjust(lat["single"])),
                "batches": len(lat["batch"]),
                "recoordinations": len(lat["swing"]),
                **tally,
            },
        )


# ----------------------------------------------------------------------
# runtime-chaos
# ----------------------------------------------------------------------

#: The resilience acceptance sweep's chaos scripts: actuation and
#: sensor faults, node churn and budget swings, for a 1050 W job.
CHAOS_SCRIPTS = (
    (
        FaultEvent(at_s=0.0, action="cap_drift", factor=0.20, seed=21),
        FaultEvent(at_s=0.0, action="sensor_noise", factor=0.03, seed=22),
    ),
    (
        FaultEvent(at_s=0.0, action="cap_write_fail", factor=0.5, seed=23),
        FaultEvent(at_s=0.3, action="sensor_stale", factor=2, seed=24),
        FaultEvent(at_s=0.6, action="set_budget", budget_w=0.85 * 1050.0),
        FaultEvent(at_s=1.2, action="set_budget", budget_w=1050.0),
    ),
    (
        FaultEvent(at_s=0.0, action="cap_drift", factor=0.15, seed=25),
        FaultEvent(at_s=0.3, action="fail_node", node_id=1),
        FaultEvent(at_s=0.6, action="set_budget", budget_w=0.8 * 1050.0),
        FaultEvent(at_s=0.9, action="recover_node", node_id=1),
        FaultEvent(at_s=1.2, action="set_budget", budget_w=1050.0),
    ),
)


class RuntimeChaos(Workload):
    """Jobs drained in segments under actuation/sensor faults and churn."""

    name = "runtime-chaos"
    BUDGET_W = 1050.0
    N_NODES = 6
    SEGMENT_ITERS = 10
    SWING_EVERY = 2
    SWING_RANGE = (0.85, 1.0)
    #: A budget change whose cap writes do not verify leaves the job
    #: untouched and is retried, as a facility controller would; at a
    #: 50% write-drop rate one attempt fails ~1/3 of the time.
    SWING_ATTEMPTS = 20
    _journals = None

    def inputs(self) -> dict:
        def jobs(rng):
            index = itertools.count()
            for block in itertools.count():
                # every app once per block; scripts rotate over blocks
                for k, app in enumerate(_shuffled(rng, APP_NAMES)):
                    yield {
                        "script": (k + block) % len(CHAOS_SCRIPTS),
                        "app": app,
                        "fault_seed_offset": 1000 * self.seed + next(index),
                        "swing_seed": rng.randrange(2**31),
                    }
        return {"jobs": jobs(_stream(f"{self.name}/jobs", self.seed))}

    def build(self) -> None:
        self._clip = _scheduler(_engine(mixed_testbed()))

    def prepare(self) -> None:
        self.build()
        pipeline = self._clip.pipeline
        for name in APP_NAMES:  # profile + fit every class: the runs are warm
            entry = pipeline.ensure_knowledge(get_app(name))
            for spec in dict.fromkeys(pipeline.node_specs):
                pipeline.class_bundle(entry, spec)
        self._journals = WORK_DIR / f"journals-{os.getpid()}"
        self._journals.mkdir(parents=True, exist_ok=True)

    def close(self) -> None:
        if self._journals is not None:
            shutil.rmtree(self._journals, ignore_errors=True)

    def _swing(self, runtime, job, budget_w: float) -> int:
        for attempt in range(self.SWING_ATTEMPTS):
            try:
                runtime.update_budget(job, budget_w)
                return attempt
            except ActuationError:
                continue
        raise ActuationError(
            f"budget change to {budget_w:.1f} W refused "
            f"{self.SWING_ATTEMPTS} times"
        )

    @staticmethod
    def _fire(injector, runtime, job) -> None:
        injector.advance_to(job.elapsed_s, runtime=runtime)
        while job.parked:
            injector.fire_next(runtime=runtime)

    def _drain(self, spec: dict, index: int, tracer, ops, lat, tally) -> int:
        """Launch, drain and tear down one job; returns its segments."""
        clip = self._clip
        cluster = clip.engine.cluster
        cluster.reset()
        for node_id in cluster.failed_node_ids:
            cluster.recover_node(node_id)
        offset = spec["fault_seed_offset"]
        events = [
            replace(e, seed=e.seed + offset) if e.seed is not None else e
            for e in CHAOS_SCRIPTS[spec["script"]]
        ]
        path = self._journals / f"job-{index}.journal"
        runtime = PowerBoundedRuntime(clip, journal=path)
        PowerEnforcementWatchdog(runtime)
        injector = FaultInjector(cluster, events, budget_w=self.BUDGET_W)
        swing_rng = random.Random(spec["swing_seed"])
        job, _ = _timed(
            ops, tracer, "op.runtime.launch", runtime.launch,
            get_app(spec["app"]), self.BUDGET_W, n_nodes=self.N_NODES,
            allow_concurrency_change=True, allow_shrink=True,
        )
        segments = 0
        while job is not None and not job.done:
            _, sample = _timed(ops, tracer, "op.runtime.faults", self._fire,
                               injector, runtime, job)
            if sample is None:
                break
            target = injector.budget_w
            if target != job.budget_w or segments % self.SWING_EVERY == 1:
                if target == job.budget_w:
                    target *= swing_rng.uniform(*self.SWING_RANGE)
                retries, sample = _timed(ops, tracer, "op.runtime.recoord",
                                         self._swing, runtime, job, target)
                if sample is None:
                    break
                lat["swing"].append(sample)
                tally["swing_retries"] += retries
            _, sample = _timed(ops, tracer, "op.runtime.segment",
                               runtime.advance, job, self.SEGMENT_ITERS)
            if sample is None:
                break
            lat["segment"].append(sample)
            segments += 1
        if job is not None and not job.done:
            ops.fail(f"job {index} ({spec['app']}) did not drain")
        runtime.journal.close()
        if path.exists():
            size = path.stat().st_size
            tally["journal_bytes"] += size
            if tracer is not None:
                tracer.add("journal.bytes", size)
            path.unlink()
        _fold_ledger(clip.monitor, ops, tally)
        tally["jobs"] += 1
        return segments

    def measure(self, seconds, tracer):
        ops, tally = Ops(), defaultdict(int)
        lat = {"segment": [], "swing": []}
        drains = []  # (segments, sample of the job's whole drain loop)
        deadline = time.monotonic() + seconds
        for index, spec in enumerate(self.inputs()["jobs"]):
            start = time.monotonic()
            segments = self._drain(spec, index, tracer, ops, lat, tally)
            drains.append((segments, (start, time.monotonic() - start)))
            if time.monotonic() >= deadline:
                break

        def metrics(times):
            loops = times([sample for _, sample in drains])
            rates = [n / s for (n, _), s in zip(drains, loops)]
            return {"p50_ms": _ms(times(lat["segment"]), 50),
                    "ops_per_s": statistics.median(rates),
                    "aux_p50_ms": _ms(times(lat["swing"]), 50)}

        return Result(
            metrics=metrics(self.speed.adjust),
            ops=ops,
            info={"unadjusted": metrics(wall),
                  **_latency_info(self.speed.adjust(lat["segment"])),
                  "recoordinations": len(lat["swing"]), **tally},
        )


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Daemon:
    """One ``clip-sched serve`` process on a free local port.

    Traced daemons run ``serve_traced.py`` instead, which writes its
    spans to *spans_path* when it shuts down.
    """

    def __init__(self, testbed: str, budget_w: float, spans_path=None):
        self.spans_path = spans_path
        self.port = _free_port()
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(spans_path)]
        cmd += ["--port", str(self.port), "--testbed", testbed,
                "--budget", str(budget_w)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        # before the daemon starts its threads, which inherit it
        os.sched_setaffinity(self.proc.pid, SYSTEM_CPUS)

    def wait_healthy(self, timeout_s: float = 120.0) -> float:
        """Seconds from spawn to the first healthy ``/v1/healthz``."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited ({self.proc.returncode}): "
                    f"{self.proc.stderr.read()[-2000:]}"
                )
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    return time.monotonic() - self.started
            except OSError:
                time.sleep(0.005)
            finally:
                conn.close()
        raise RuntimeError("daemon never became healthy")

    def stop(self) -> tuple[int, str]:
        """Exit code and stderr after a graceful stop."""
        self.proc.send_signal(signal.SIGTERM)
        _, err = self.proc.communicate(timeout=60)
        return self.proc.returncode, err

    def kill(self) -> None:
        """Make sure the process is gone (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stderr.close()


def _two_threads(work) -> None:
    """Run ``work(0)`` on a second thread and ``work(1)`` on this one:
    the load generator's whole thread budget."""
    errors = []

    def guarded(k):
        try:
            work(k)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    thread = threading.Thread(target=guarded, args=(0,), daemon=True)
    thread.start()
    guarded(1)
    thread.join(timeout=300)
    if thread.is_alive():
        raise RuntimeError("load-generator thread did not finish")
    if errors:
        raise errors[0]


class ServeOpen(Workload):
    """The real daemon over HTTP: open-loop arrivals, then a closed loop."""

    name = "serve-open"
    cpus = LOADGEN_CPUS
    TESTBED = "haswell"
    BUDGET_W = 1400.0
    JOB_RATE = 250.0  # jobs/s offered in the open loop
    JOBS_PER_REQUEST = (1, 4)
    JOB_BUDGETS_W = (1000.0, 1200.0, 1400.0, 1800.0)
    OUTCOME_SHARE = 0.25
    CLOSED_JOBS = 8
    #: share of the measured time spent in the open loop; the closed
    #: loop gets the rest (~1450 open-loop requests at 25 s)
    OPEN_SHARE = 0.6

    def __init__(self, seed: int, speed: HostSpeed | None = None):
        super().__init__(seed, speed)
        self._daemon = None

    def inputs(self) -> dict:
        lo, hi = self.JOBS_PER_REQUEST
        request_rate = self.JOB_RATE / ((lo + hi) / 2)

        sizes = range(lo, hi + 1)
        reports_per_block = round(self.OUTCOME_SHARE * len(sizes))

        def requests(rng):
            at = 0.0
            while True:
                # each block: one request of every size, a fixed number
                # of them followed by an outcome report
                reports = set(rng.sample(range(len(sizes)), reports_per_block))
                for k, size in enumerate(_shuffled(rng, sizes)):
                    at += rng.expovariate(request_rate)  # Poisson arrivals
                    jobs = [{"app": rng.choice(APP_NAMES),
                             "budget_w": rng.choice(self.JOB_BUDGETS_W)}
                            for _ in range(size)]
                    outcome = (round(rng.uniform(0.85, 1.1), 4)
                               if k in reports else None)
                    yield {"at": at, "jobs": jobs, "outcome": outcome}

        def closed(rng):
            while True:
                yield [rng.choice(APP_NAMES) for _ in range(self.CLOSED_JOBS)]

        return {"open": requests(_stream(f"{self.name}/open", self.seed)),
                "closed": closed(_stream(f"{self.name}/closed", self.seed))}

    def _spawn(self, spans_path=None) -> tuple[Daemon, tuple[float, float]]:
        """A healthy daemon and its ``(start, seconds)`` to get there."""
        for attempt in range(3):  # a port taken between pick and bind
            daemon = Daemon(self.TESTBED, self.BUDGET_W, spans_path)
            try:
                return daemon, (daemon.started, daemon.wait_healthy())
            except RuntimeError:
                daemon.kill()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def setup_samples(self) -> list[tuple[float, float]]:
        """Spawn-to-healthy times; the last daemon is kept for measuring."""
        samples = []
        for i in range(SETUP_REPEATS):
            daemon, sample = self._spawn()
            samples.append(sample)
            if i < SETUP_REPEATS - 1:
                code, err = daemon.stop()
                if code != 0:
                    raise RuntimeError(f"daemon exit {code}: {err[-2000:]}")
            else:
                self._daemon = daemon
        return samples

    def prepare(self) -> None:
        """Nothing in-process: the daemon is the system under test."""

    def close(self) -> None:
        if self._daemon is not None:
            self._daemon.kill()
            self._daemon = None

    @staticmethod
    def _check_jobs(status: int, body: dict, n_jobs: int) -> str | None:
        if status != 200:
            return f"HTTP {status}: {body.get('error')}"
        jobs = body.get("jobs") or []
        if len(jobs) != n_jobs:
            return f"{len(jobs)} job records for {n_jobs} jobs"
        for job in jobs:
            if job["status"] != "done" or job["decision"] is None:
                return f"job {job['job_id']} ended {job['status']}: {job['error']}"
        return None

    def _request(self, client, req, due, tracer, ops, out) -> None:
        """One open-loop request (plus its outcome report, if any)."""
        ops.attempted += 1
        sent = time.monotonic()
        span = tracer.begin("op.serve.request") if tracer is not None else None
        try:
            status, body = client.request(
                "POST", "/v1/jobs", {"jobs": req["jobs"], "wait": True})
        except (OSError, ServeError) as exc:
            ops.fail(f"request: {exc!r}")
            return
        finally:
            if span is not None:
                tracer.finish(span)
        done = time.monotonic()
        problem = self._check_jobs(status, body, len(req["jobs"]))
        if problem is not None:
            ops.fail(problem)
            return
        out["latency"].append((due, done - due))
        out["lateness"].append(sent - due)
        jobs = body["jobs"]
        if span is not None:
            span.attrs["jobs"] = [j["job_id"] for j in jobs]
        if req["outcome"] is None:
            return
        job = jobs[0]
        perf = job["decision"]["allocation"]["predicted_cluster_perf"]
        ops.attempted += 1
        start = time.monotonic()
        span = tracer.begin("op.serve.outcome") if tracer is not None else None
        try:
            status, body = client.request(
                "POST", f"/v1/jobs/{job['job_id']}/outcome",
                {"performance": perf * req["outcome"]})
        except (OSError, ServeError) as exc:
            ops.fail(f"outcome: {exc!r}")
            return
        finally:
            if span is not None:
                tracer.finish(span)
        out["outcome"].append((start, time.monotonic() - start))
        if status != 200 or not (body.get("outcome") or {}).get("recorded"):
            ops.fail(f"outcome HTTP {status}: {body}")

    def _open_loop(self, port, seconds, tracer, ops) -> tuple[dict, tuple]:
        schedule = list(itertools.takewhile(
            lambda r: r["at"] < seconds, self.inputs()["open"]))
        cursor = iter(schedule)
        lock = threading.Lock()
        outs = [defaultdict(list), defaultdict(list)]
        thread_ops = [Ops(), Ops()]
        t0 = time.monotonic() + 0.05

        def work(k):
            with ServeClient("127.0.0.1", port, timeout=60) as client:
                while True:
                    with lock:
                        req = next(cursor, None)
                    if req is None:
                        return
                    due = t0 + req["at"]
                    delay = due - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    self._request(client, req, due, tracer, thread_ops[k], outs[k])

        _two_threads(work)
        for part in thread_ops:
            ops.merge(part)
        merged = defaultdict(list)
        for out in outs:
            for key, values in out.items():
                merged[key].extend(values)
        merged["requests"] = len(schedule)
        return merged, (t0, t0 + seconds)

    def _closed_loop(self, port, seconds, ops) -> tuple[list, tuple]:
        """Back-to-back requests on both connections: the jobs decided
        in each ~1 s window, with the window as a ``(start, seconds)``
        sample."""
        apps = self.inputs()["closed"]
        lock = threading.Lock()
        done, thread_ops = [[], []], [Ops(), Ops()]
        start = time.monotonic()
        deadline = start + seconds

        def work(k):
            with ServeClient("127.0.0.1", port, timeout=60) as client:
                while time.monotonic() < deadline:
                    with lock:
                        jobs = next(apps)
                    thread_ops[k].attempted += 1
                    try:
                        status, body = client.request(
                            "POST", "/v1/jobs", {"jobs": jobs, "wait": True})
                    except (OSError, ServeError) as exc:
                        thread_ops[k].fail(f"closed loop: {exc!r}")
                        continue
                    problem = self._check_jobs(status, body, len(jobs))
                    if problem is not None:
                        thread_ops[k].fail(problem)
                    else:
                        done[k].append((time.monotonic(), len(jobs)))

        _two_threads(work)
        for part in thread_ops:
            ops.merge(part)
        n_windows = max(1, round(seconds))
        width = seconds / n_windows
        decided = [0] * n_windows
        for at, n_jobs in itertools.chain(*done):
            window = int((at - start) / width)
            if window < n_windows:
                decided[window] += n_jobs
        windows = [(n, (start + k * width, width)) for k, n in enumerate(decided)]
        return windows, (start, deadline)

    def measure(self, seconds, tracer):
        ops = Ops()
        spans_path = (WORK_DIR / f"spans-{self.name}-daemon.jsonl"
                      if tracer is not None else None)
        daemon, self._daemon = self._daemon, None
        if daemon is None:
            daemon, _ = self._spawn(spans_path)
        try:
            with ServeClient("127.0.0.1", daemon.port, timeout=120) as client:
                # every app once per budget: knowledge, bundles, allocator
                warm = [{"app": a, "budget_w": b}
                        for a in APP_NAMES for b in self.JOB_BUDGETS_W]
                client.submit(warm)
                warm_jobs = len(warm)
            open_s = seconds * self.OPEN_SHARE
            out, open_window = self._open_loop(daemon.port, open_s, tracer, ops)
            # after the fixed offered work; the closed loop keeps a job
            # record per decision, so its growth would track throughput
            rss = proc_peak_rss_mb(daemon.proc.pid)
            decided, closed_window = self._closed_loop(
                daemon.port, seconds - open_s, ops)
            with ServeClient("127.0.0.1", daemon.port) as client:
                stats = client.stats()
            expected = {"audit_violations": 0, "failed": 0, "rejected": 0,
                        "pending": 0}
            for key, want in expected.items():
                if stats[key] != want:
                    ops.fail(f"/v1/stats {key} = {stats[key]}")
            code, err = daemon.stop()
            if code != 0:
                ops.fail(f"daemon exit {code}: {err[-500:]}")
        finally:
            daemon.kill()
        spans, counts = (Tracer.load(spans_path) if spans_path is not None
                         else ([], {}))
        # the warm-up request is not part of the measured load
        spans = [s for s in spans if s.start >= open_window[0]]

        def metrics(times):
            # closed-loop decisions per second: median over the windows
            widths = times([window for _, window in decided])
            return {"p50_ms": _ms(times(out["latency"]), 50),
                    "ops_per_s": statistics.median(
                        n / w for (n, _), w in zip(decided, widths)),
                    "aux_p50_ms": _ms(times(out["outcome"]), 50)}

        return Result(
            metrics={**metrics(self.speed.adjust), "peak_rss_mb": rss},
            ops=ops,
            info={
                "unadjusted": metrics(wall),
                **_latency_info(self.speed.adjust(out["latency"])),
                "requests": out["requests"],
                "offered_req_per_s": out["requests"] / open_s,
                "lateness_ms.p50": _ms(out["lateness"], 50),
                "lateness_ms.p99": _ms(out["lateness"], 99),
                "lateness_ms.max": max(out["lateness"]) * 1e3,
                "outcomes": len(out["outcome"]),
                "decided": stats["decided"] - warm_jobs,
                "bursts": stats["bursts"],
                "mean_burst": stats["mean_burst"],
                "audits": stats["audits"],
            },
            spans=spans,
            counts=counts,
            windows={"open": open_window, "closed": closed_window},
        )


WORKLOADS = {w.name: w for w in (ServeOpen, DecideCold, DecideFleet, RuntimeChaos)}
