"""Tests of the benchmark itself; outside the tier-1 test paths, run as

    PYTHONPATH=src python -m pytest benchmarks/clipbench/test_clipbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import islice

import pytest

import layers
import workloads
from compare import verdict
from paths import HERE
from repro.analysis.experiments import build_trained_inflection
from repro.core.knowledge import KnowledgeDB
from repro.core.runtime import PowerBoundedRuntime
from repro.core.scheduler import ClipScheduler
from repro.core.watchdog import PowerEnforcementWatchdog
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import mixed_testbed
from repro.sim.engine import ExecutionEngine
from repro.workloads.apps import get_app
from speed import REFERENCE_PROBE_S, HostSpeed
from tracer import Tracer

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def test_self_time_nests_per_thread():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    first, second = ThreadPoolExecutor(1), ThreadPoolExecutor(1)

    def at(t, thread, fn, *args):
        now[0] = t
        return thread.submit(fn, *args).result()

    outer = at(0, first, tracer.begin, "op.decide")
    other = at(1, second, tracer.begin, "op.other")
    inner = at(2, first, tracer.begin, "pipeline.decide")
    at(5, second, tracer.finish, other)
    at(6, first, tracer.finish, inner)
    leaf = at(7, first, tracer.begin, "monitor.audit")
    at(8, first, tracer.finish, leaf)
    at(10, first, tracer.finish, outer)
    first.shutdown()
    second.shutdown()

    assert inner.parent == outer.id and leaf.parent == outer.id
    assert other.parent is None  # another thread's span never nests
    assert outer.self_s == 10 - 4 - 1
    assert inner.self_s == 4 and other.self_s == 4 and leaf.self_s == 1
    metrics = layers.layer_metrics(tracer.spans, tracer.counts, overhead=1.0)
    # roots: op.decide (self 5 of 10) and op.other (self 4 of 4)
    assert metrics["trace.unattributed_frac"] == pytest.approx(9 / 14)
    assert metrics["pipeline.decide_ms.p50"] == pytest.approx(4e3)


def test_host_speed_adjusts_by_the_window_median(tmp_path):
    path = tmp_path / "probes.txt"
    speed = HostSpeed(os.sched_getaffinity(0), path)
    speed.stop()
    ref = REFERENCE_PROBE_S
    path.write_text(f"10.1 {ref}\n10.5 {ref}\n11.2 {2 * ref}\n11.6 {2 * ref}\n"
                    f"12.0 {4 * ref}\n12.3 \n")  # the last line cut short
    # windows 10 and 11 by their medians; an unprobed one by the median
    # of every probe (2 * ref)
    assert speed.adjust([(10.2, 0.2), (11.0, 0.4), (50.0, 1.0)]) == (
        pytest.approx([0.2, 0.2, 0.5]))


def _inputs_json(name: str, seed: int) -> str:
    streams = workloads.WORKLOADS[name](seed).inputs()
    return json.dumps(
        {key: list(islice(items, 40)) for key, items in streams.items()},
        sort_keys=True,
    )


@pytest.mark.parametrize("name", NAMES)
def test_inputs_follow_the_seed(name):
    assert _inputs_json(name, 7) == _inputs_json(name, 7)
    assert _inputs_json(name, 7) != _inputs_json(name, 8)
    # ... and are byte-identical in a fresh process
    code = ("import sys, paths; paths.bootstrap(); import test_clipbench as t; "
            f"sys.stdout.write(t._inputs_json({name!r}, 7))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE,
                         capture_output=True, text=True, check=True).stdout
    assert out == _inputs_json(name, 7)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _decide_and_drain() -> list:
    engine = ExecutionEngine(SimulatedCluster(mixed_testbed()), seed=42)
    clip = ClipScheduler(engine, inflection=build_trained_inflection(engine),
                         knowledge=KnowledgeDB())
    apps = [get_app(name) for name in workloads.APP_NAMES]
    out = [clip.schedule(app, 1000.0 + 100 * i).to_dict()
           for i, app in enumerate(apps)]
    out += [d.to_dict() for d in clip.schedule_many(apps, 1500.0)]
    runtime = PowerBoundedRuntime(clip)
    PowerEnforcementWatchdog(runtime)
    job = runtime.launch(get_app("comd"), 1050.0, n_nodes=6,
                         allow_concurrency_change=True)
    runtime.update_budget(job, 900.0)
    while not job.done:
        runtime.advance(job, 10)
    out += [(s.time_s, s.energy_j, s.n_threads) for s in job.segments]
    return out


def test_tracing_leaves_decisions_unchanged():
    original = ClipScheduler.__dict__["schedule_many"]
    plain = _decide_and_drain()
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = _decide_and_drain()
    finally:
        tracer.unwrap()
    assert traced == plain
    names = {s.name for s in tracer.spans}
    assert {"pipeline.decide", "pipeline.profile", "profile.profile",
            "monitor.audit", "engine.run", "watchdog.observe"} <= names
    assert ClipScheduler.__dict__["schedule_many"] is original


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.3 for x in parent]
    noisy = [5.0, 15.0, 10.0, 20.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0]
    assert verdict(parent, faster, "lower", 0.1)["status"] == "improved"
    assert verdict(parent, slower, "lower", 0.1)["status"] == "regressed"
    assert verdict(parent, parent, "lower", 0.1)["status"] == "unchanged"
    assert verdict(noisy, parent, "lower", 0.1)["status"] == "unresolved"
    assert verdict(parent, slower, "higher", 0.1)["status"] == "improved"
