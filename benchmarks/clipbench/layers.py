"""Which public functions of each layer are traced, and the per-layer
metrics computed from the resulting spans.

:func:`install` patches one boundary per layer (see the README's
layer map).  Calls too frequent to keep as spans -- a verified cap
write per node, a bundle-cache lookup per rank -- only bump counters.
:func:`layer_metrics` reduces spans and counters to the ``per_layer``
metrics of ``BENCHMARK.json``; a layer a workload never reaches reports
zero.
"""

from __future__ import annotations

from collections import defaultdict

from stats import pct

#: Pipeline stages, in execution order (their ``name`` attributes).
STAGES = ("profile", "classify", "inflection", "fit_models", "allocate",
          "recommend")

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "http.self_ms.p50": "ms",
    "service.submit_ms.p50": "ms",
    "service.decide_burst_ms.p50": "ms",
    "service.decide_busy_frac": "ratio",
    "service.decide_busy_frac.open": "ratio",
    "service.groups_per_burst": "groups/burst",
    "service.record_outcome_ms.p50": "ms",
    "service.outcomes": "count",
    "coalescer.wait_ms.p50": "ms",
    "coalescer.wait_ms.p99": "ms",
    "coalescer.jobs_per_burst": "jobs/burst",
    "scheduler.jobs_per_pass": "jobs/pass",
    "pipeline.decide_ms.p50": "ms",
    **{f"pipeline.{s}.self_ms.p50": "ms" for s in STAGES},
    **{f"pipeline.{s}.share": "ratio" for s in STAGES},
    "pipeline.bundle_hit_ratio": "ratio",
    "monitor.audit_ms.total": "ms",
    "monitor.audits": "count",
    "hierarchy.split_ms.p50": "ms",
    "coordination.coordinate_ms.p50": "ms",
    "coordination.calls": "count",
    "profile.profile_ms.p50": "ms",
    "inflection.predict_calls": "count",
    "engine.evaluate_many.calls": "count",
    "engine.evaluate_many.configs": "count",
    "engine.evaluate_many_ms.total": "ms",
    "engine.run_ms.p50": "ms",
    "engine.run.calls": "count",
    "runtime.advance.self_ms.p50": "ms",
    "runtime.recoordinate.calls": "count",
    "runtime.reissue.calls": "count",
    "runtime.emergency.calls": "count",
    "watchdog.observe_ms.p50": "ms",
    "watchdog.breaches": "count",
    "journal.append_ms.p50": "ms",
    "journal.records": "count",
    "journal.bytes": "bytes",
    "rapl.write_caps.calls": "count",
    "rapl.cap_retries": "count",
    "learning.record_outcome_ms.p50": "ms",
    "trace.raised_calls": "count",
    "trace.unattributed_frac": "ratio",
    "trace.overhead": "ratio",
}


def _attrs(**getters):
    """A ``post`` hook storing ``getter(args, result)`` per attribute."""
    def post(span, args, result):
        for key, get in getters.items():
            span.attrs[key] = get(args, result)
    return post


def install(tracer) -> None:
    """Patch every traced boundary; ``tracer.unwrap()`` undoes it."""
    from repro.core import allocation, coordination, hierarchy, runtime
    from repro.core.inflection import InflectionPredictor
    from repro.core.journal import RuntimeJournal
    from repro.core.monitor import BudgetInvariantMonitor
    from repro.core.pipeline import (
        AllocateStage,
        ClassifyStage,
        DecisionPipeline,
        FitModelsStage,
        InflectionStage,
        ModelBundle,
        ModelBundleCache,
        ProfileStage,
        RecommendStage,
    )
    from repro.core.profile import SmartProfiler
    from repro.core.scheduler import ClipScheduler
    from repro.core.watchdog import PowerEnforcementWatchdog
    from repro.hw.rapl import RaplInterface
    from repro.serve.service import SchedulerService
    from repro.sim.engine import ExecutionEngine

    wrap = tracer.wrap
    # serve.service; serve.coalescer and serve.http are derived from it
    wrap(SchedulerService, "submit", "service.submit",
         _attrs(jobs=lambda a, r: [s.record.job_id for s in r]))
    wrap(SchedulerService, "decide_burst", "service.decide_burst",
         _attrs(jobs=lambda a, r: [s.record.job_id for s in a[1]]))
    wrap(SchedulerService, "record_outcome", "service.record_outcome")
    # core.scheduler, core.pipeline, core.learning
    wrap(ClipScheduler, "schedule_many", "scheduler.schedule_many",
         _attrs(n_jobs=lambda a, r: len(a[1])))
    wrap(DecisionPipeline, "decide", "pipeline.decide")
    for stage in (ProfileStage, ClassifyStage, InflectionStage,
                  FitModelsStage, AllocateStage, RecommendStage):
        wrap(stage, "run", f"pipeline.{stage.name}")
    tracer.count(ModelBundleCache, "get_or_build", "pipeline.bundle_gets")
    tracer.count(ModelBundle, "from_entry", "pipeline.bundle_fits")
    wrap(DecisionPipeline, "record_outcome", "learning.record_outcome")
    # core.monitor: audit_split audits through audit
    wrap(BudgetInvariantMonitor, "audit", "monitor.audit")
    # core.hierarchy, core.coordination: every module that imported
    # coordinate_power holds its own reference to it
    wrap(hierarchy, "split_cluster_budget", "hierarchy.split")
    for module in (coordination, allocation, runtime, hierarchy):
        wrap(module, "coordinate_power", "coordination.coordinate")
    # core.profile, core.inflection, sim.engine
    wrap(SmartProfiler, "profile", "profile.profile")
    tracer.count(InflectionPredictor, "predict", "inflection.predict")
    wrap(ExecutionEngine, "evaluate_many", "engine.evaluate_many",
         _attrs(configs=lambda a, r: len(a[2])))
    wrap(ExecutionEngine, "run", "engine.run")
    # core.runtime and the enforcement stack under it
    for attr, name in (
        ("launch", "runtime.launch"),
        ("advance", "runtime.advance"),
        ("update_budget", "runtime.update_budget"),
        ("recoordinate", "runtime.recoordinate"),
        ("reissue_caps", "runtime.reissue"),
        ("emergency_throttle", "runtime.emergency"),
        ("fail_node", "runtime.fail_node"),
        ("recover_node", "runtime.recover_node"),
    ):
        wrap(runtime.PowerBoundedRuntime, attr, name)
    wrap(PowerEnforcementWatchdog, "observe", "watchdog.observe",
         _attrs(breach=lambda a, r: r.breach))
    wrap(RuntimeJournal, "append", "journal.append")
    tracer.count(RaplInterface, "write_caps_verified", "rapl.write_caps",
                 value=lambda a, r: r)


def _p50_ms(values) -> float:
    return pct(values, 50) * 1e3 if values else 0.0


def _serve_split(by, windows) -> dict:
    """Split each open-loop request into admission, coalescer wait,
    burst and the HTTP remainder; summarise the closed-loop bursts.

    Client spans (``op.serve.request``) and daemon spans come from two
    processes on one monotonic clock and are joined by job id.
    """
    open_t0, open_t1 = windows["open"]
    closed_t0, closed_t1 = windows["closed"]
    # a call that raised carries no job ids
    submit = {j: s for s in by["service.submit"] for j in s.attrs.get("jobs", ())}
    burst = {j: b for b in by["service.decide_burst"]
             for j in b.attrs.get("jobs", ())}
    waits, http_self, rtt = [], [], []
    for req in by["op.serve.request"]:
        jobs = req.attrs.get("jobs") or ()
        if not open_t0 <= req.start < open_t1 or not jobs:
            continue
        if not all(j in submit and j in burst for j in jobs):
            continue
        sub = submit[jobs[0]]
        waits.extend(burst[j].start - submit[j].end for j in jobs)
        # admission + wait + burst, up to the last burst that decided
        # one of this request's jobs; the rest is HTTP
        covered = sub.duration + max(burst[j].end for j in jobs) - sub.end
        http_self.append(req.duration - covered)
        rtt.append(req.duration)
    groups = defaultdict(int)  # schedule_many passes per burst span
    for s in by["scheduler.schedule_many"]:
        groups[s.parent] += 1
    def busy_frac(t0, t1):
        """Share of [t0, t1) the decision thread spent in bursts."""
        return sum(max(0.0, min(b.end, t1) - max(b.start, t0))
                   for b in by["service.decide_burst"]) / (t1 - t0)

    closed = [b for b in by["service.decide_burst"]
              if closed_t0 <= b.start < closed_t1]
    return {
        "http.self_ms.p50": _p50_ms(http_self),
        "coalescer.wait_ms.p50": _p50_ms(waits),
        "coalescer.wait_ms.p99": pct(waits, 99) * 1e3 if waits else 0.0,
        "coalescer.jobs_per_burst": (
            sum(len(b.attrs["jobs"]) for b in closed) / len(closed)
            if closed else 0.0
        ),
        "service.groups_per_burst": (
            sum(groups[b.id] for b in closed) / len(closed) if closed else 0.0
        ),
        "service.decide_busy_frac": busy_frac(closed_t0, closed_t1),
        "service.decide_busy_frac.open": busy_frac(open_t0, open_t1),
        "trace.unattributed_frac": (
            sum(http_self) / sum(rtt) if rtt else 0.0
        ),
    }


def layer_metrics(spans, counts, overhead: float, windows=None) -> dict:
    """Every per-layer metric, from spans, counters and the measured
    traced/untraced p50 ratio.

    ``trace.unattributed_frac`` is the share of the benchmark's own
    operation spans (``op.*``, the roots) not covered by any traced
    layer.  On serve-open the roots are client requests whose layers
    run in the daemon, so it is the HTTP remainder's share there.
    """
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    out = dict.fromkeys(UNITS, 0.0)

    def total_ms(name):
        return sum(s.duration for s in by[name]) * 1e3

    out["service.submit_ms.p50"] = _p50_ms(
        [s.duration for s in by["service.submit"]])
    out["service.decide_burst_ms.p50"] = _p50_ms(
        [s.duration for s in by["service.decide_burst"]])
    out["service.record_outcome_ms.p50"] = _p50_ms(
        [s.duration for s in by["service.record_outcome"]])
    out["service.outcomes"] = len(by["service.record_outcome"])

    many_ids = {s.id for s in by["scheduler.schedule_many"]}
    passes = sum(1 for s in by["pipeline.decide"] if s.parent in many_ids)
    if passes:
        out["scheduler.jobs_per_pass"] = sum(
            s.attrs["n_jobs"] for s in by["scheduler.schedule_many"]
        ) / passes

    decides = by["pipeline.decide"]
    decide_ids = {s.id for s in decides}
    decide_s = sum(s.duration for s in decides)
    out["pipeline.decide_ms.p50"] = _p50_ms([s.duration for s in decides])
    for stage in STAGES:
        runs = by[f"pipeline.{stage}"]
        out[f"pipeline.{stage}.self_ms.p50"] = _p50_ms(
            [s.self_s for s in runs])
        if decide_s:
            out[f"pipeline.{stage}.share"] = sum(
                s.duration for s in runs if s.parent in decide_ids
            ) / decide_s
    gets = counts.get("pipeline.bundle_gets", 0)
    if gets:
        out["pipeline.bundle_hit_ratio"] = (
            gets - counts.get("pipeline.bundle_fits", 0)) / gets

    out["monitor.audit_ms.total"] = total_ms("monitor.audit")
    out["monitor.audits"] = len(by["monitor.audit"])
    out["hierarchy.split_ms.p50"] = _p50_ms(
        [s.duration for s in by["hierarchy.split"]])
    out["coordination.coordinate_ms.p50"] = _p50_ms(
        [s.duration for s in by["coordination.coordinate"]])
    out["coordination.calls"] = len(by["coordination.coordinate"])
    out["profile.profile_ms.p50"] = _p50_ms(
        [s.duration for s in by["profile.profile"]])
    out["inflection.predict_calls"] = counts.get("inflection.predict", 0)

    out["engine.evaluate_many.calls"] = len(by["engine.evaluate_many"])
    out["engine.evaluate_many.configs"] = sum(
        s.attrs["configs"] for s in by["engine.evaluate_many"]
        if "configs" in s.attrs)
    out["engine.evaluate_many_ms.total"] = total_ms("engine.evaluate_many")
    out["engine.run_ms.p50"] = _p50_ms([s.duration for s in by["engine.run"]])
    out["engine.run.calls"] = len(by["engine.run"])

    out["runtime.advance.self_ms.p50"] = _p50_ms(
        [s.self_s for s in by["runtime.advance"]])
    for name in ("recoordinate", "reissue", "emergency"):
        out[f"runtime.{name}.calls"] = len(by[f"runtime.{name}"])
    out["watchdog.observe_ms.p50"] = _p50_ms(
        [s.duration for s in by["watchdog.observe"]])
    out["watchdog.breaches"] = sum(
        1 for s in by["watchdog.observe"] if s.attrs.get("breach"))
    out["journal.append_ms.p50"] = _p50_ms(
        [s.duration for s in by["journal.append"]])
    out["journal.records"] = len(by["journal.append"])
    out["journal.bytes"] = counts.get("journal.bytes", 0)
    out["rapl.write_caps.calls"] = counts.get("rapl.write_caps", 0)
    out["rapl.cap_retries"] = counts.get("rapl.write_caps.sum", 0)
    out["learning.record_outcome_ms.p50"] = _p50_ms(
        [s.duration for s in by["learning.record_outcome"]])
    out["trace.raised_calls"] = counts.get("raised", 0)

    roots = [s for s in spans if s.parent is None and s.name.startswith("op.")]
    root_s = sum(s.duration for s in roots)
    if root_s:
        out["trace.unattributed_frac"] = sum(s.self_s for s in roots) / root_s
    if windows is not None:
        out.update(_serve_split(by, windows))
    out["trace.overhead"] = overhead
    return {name: float(value) for name, value in out.items()}
