"""Command-line interface: ``clip-sched`` / ``python -m repro``.

Subcommands mirror the framework's helper tools (§IV-B):

* ``apps``      — list the predefined applications;
* ``profile``   — smart-profile an application and print the result;
* ``classify``  — just the scalability classification;
* ``schedule``  — run Algorithm 1 for a budget and print the decision
  (and launch script); ``--json`` emits the serialized decision plus
  per-stage pipeline timings instead;
* ``run``       — schedule *and* execute on the simulated testbed;
* ``compare``   — the four-method comparison at one budget;
* ``faults``    — drain a queue through a scripted fault scenario
  (node failure + recovery + budget swings) and print the
  budget-invariant audit; ``--chaos`` adds enforcement faults
  (drifting caps, dropped writes, lying sensors) and reports what the
  drain's :class:`~repro.core.watchdog.PowerEnforcementWatchdog` did;
* ``replay``    — rebuild a runtime from its journal and print the
  recovered state; ``--demo`` runs the full crash-recovery story
  (journaled run, scripted crash, restore, bit-identity check,
  resume);
* ``serve``     — run the long-lived scheduling daemon: an asyncio
  HTTP/JSON API (submit-job, query-decision, update-budget,
  stream-telemetry) that coalesces concurrent submissions into
  ``schedule_many`` bursts, with admission control and per-tenant
  budget quotas.

Commands default to the simulated 8-node Haswell testbed; the
``schedule``, ``run``, ``compare`` and ``faults`` subcommands accept
``--testbed {haswell,broadwell,mixed,gpu,mixed-gpu}`` to target the
Broadwell fleet, the mixed 4×Haswell + 4×Broadwell cluster, the
GPU-equipped fleet, or the mixed 4×GPU + 4×CPU fleet instead.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro import __version__
from repro.analysis.experiments import (
    build_trained_inflection,
    compare_methods,
    make_schedulers,
)
from repro.analysis.tables import render_table
from repro.core.execution import render_script
from repro.core.profile import SmartProfiler
from repro.core.scheduler import ClipScheduler
from repro.errors import ClipError
from repro.hw.cluster import SimulatedCluster
from repro.hw.specs import (
    broadwell_testbed,
    gpu_testbed,
    haswell_testbed,
    mixed_gpu_testbed,
    mixed_testbed,
)
from repro.sim.engine import ExecutionEngine
from repro.units import check_positive
from repro.workloads.apps import all_apps, get_app

__all__ = ["main", "build_parser"]


def _at_least_one(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _budget_w(text: str) -> float:
    """argparse type: a power budget, a finite float > 0."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    return check_positive(value, "budget", argparse.ArgumentTypeError)


def _finite_non_negative(text: str) -> float:
    """argparse type: a finite float >= 0."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="clip-sched",
        description="CLIP power-bounded scheduling on a simulated cluster",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="simulation seed (default 42)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_testbed(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--testbed",
            choices=("haswell", "broadwell", "mixed", "gpu", "mixed-gpu"),
            default="haswell",
            help="simulated cluster: 8x Haswell (default), 8x Broadwell, "
            "the mixed 4x Haswell + 4x Broadwell fleet, the 8x GPU-node "
            "fleet, or the mixed 4x GPU + 4x CPU fleet",
        )
        p.add_argument(
            "--racks",
            type=_at_least_one,
            default=1,
            help="replicate the testbed into N racks behind one fabric "
            "(default 1: the paper's flat testbed)",
        )

    sub.add_parser("apps", help="list predefined applications")

    p = sub.add_parser("profile", help="smart-profile an application")
    p.add_argument("app", help="application name (see `apps`)")

    p = sub.add_parser("classify", help="classify an application's scalability")
    p.add_argument("app")

    for name, help_ in (
        ("schedule", "run Algorithm 1 and print the decision"),
        ("run", "schedule and execute on the simulated testbed"),
    ):
        p = sub.add_parser(name, help=help_)
        add_testbed(p)
        p.add_argument("app")
        p.add_argument("budget", type=_budget_w, help="cluster power budget (W)")
        p.add_argument(
            "--mode",
            choices=("predictive", "simple"),
            default="predictive",
            help="node-count selection: model-scored or Algorithm 1 literal",
        )
        if name == "schedule":
            p.add_argument(
                "--json",
                action="store_true",
                help="print the serialized decision and per-stage trace "
                "timings as JSON instead of the launch script",
            )

    p = sub.add_parser("compare", help="compare the four methods at one budget")
    add_testbed(p)
    p.add_argument("budget", type=_budget_w, help="cluster power budget (W)")
    p.add_argument(
        "--apps", nargs="*", default=None, help="subset of application names"
    )

    p = sub.add_parser(
        "faults",
        help="drain a job queue through a scripted fault scenario",
    )
    add_testbed(p)
    p.add_argument(
        "--policy",
        choices=("sequential", "coscheduled"),
        default="sequential",
        help="queue policy to drain under faults",
    )
    p.add_argument(
        "--budget", type=_budget_w, default=1600.0,
        help="initial cluster power budget (W, default 1600)",
    )
    p.add_argument(
        "--iterations", type=_at_least_one, default=5,
        help="iterations per job (default 5, keeps the demo fast)",
    )
    p.add_argument(
        "--chaos",
        action="store_true",
        help="also inject enforcement faults (cap drift, dropped cap "
        "writes, noisy and stale sensors) and report the enforcement "
        "watchdog's corrections",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the queue report and monitor audit as JSON",
    )

    p = sub.add_parser(
        "replay",
        help="rebuild a runtime from its journal and print the state",
    )
    add_testbed(p)
    p.add_argument(
        "journal",
        nargs="?",
        default=None,
        help="journal file written by a PowerBoundedRuntime "
        "(omit with --demo)",
    )
    p.add_argument(
        "--demo",
        action="store_true",
        help="run the crash-recovery demo: journal a run, crash it "
        "mid-flight, restore, verify bit-identity, resume",
    )
    p.add_argument(
        "--budget", type=_budget_w, default=1200.0,
        help="cluster budget for the --demo run (W, default 1200)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the recovered state as JSON",
    )

    p = sub.add_parser(
        "serve",
        help="run the scheduling daemon (HTTP/JSON, burst coalescing)",
    )
    add_testbed(p)
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8587,
        help="TCP port (default 8587; 0 picks an ephemeral port)",
    )
    p.add_argument(
        "--budget", type=_budget_w, default=1400.0,
        help="initial cluster power budget (W, default 1400)",
    )
    p.add_argument(
        "--window-ms", type=_finite_non_negative, default=0.0,
        help="coalescing window in ms (default 0: pure drain batching "
        "— whatever queued while the previous burst decided)",
    )
    p.add_argument(
        "--max-burst", type=_at_least_one, default=512,
        help="largest burst handed to schedule_many (default 512)",
    )
    p.add_argument(
        "--max-pending", type=_at_least_one, default=4096,
        help="admission control: queued-job bound (default 4096)",
    )
    p.add_argument(
        "--quota",
        action="append",
        default=[],
        metavar="TENANT=WATTS[:MAX_PENDING]",
        help="per-tenant budget quota (repeatable); the tenant's jobs "
        "are planned under min(service budget, WATTS), with at most "
        "MAX_PENDING queued at once",
    )
    p.add_argument(
        "--knowledge",
        default=None,
        help="knowledge-DB JSON path: loaded at startup (corrupt or "
        "missing files degrade to profiling from scratch) and saved "
        "on clean shutdown",
    )

    p = sub.add_parser(
        "learn",
        help="closed-loop learning: per-app decision-quality report",
    )
    add_testbed(p)
    p.add_argument(
        "--report",
        action="store_true",
        help="print the per-app decision-quality table (the default "
        "action; present for explicitness in scripts)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of a table",
    )
    p.add_argument(
        "--knowledge",
        default=None,
        metavar="PATH",
        help="read observation history from a saved knowledge DB "
        "instead of running the demo campaign",
    )
    p.add_argument(
        "--jobs",
        type=_at_least_one,
        default=24,
        help="demo campaign length when no --knowledge is given "
        "(default 24 learning-on decisions)",
    )
    p.add_argument(
        "--budget",
        type=_budget_w,
        default=1400.0,
        help="cluster budget for the demo campaign (default 1400 W)",
    )

    p = sub.add_parser(
        "report", help="assemble the reproduction report from benchmark artifacts"
    )
    p.add_argument(
        "--results",
        default="benchmarks/results",
        help="directory the benchmarks wrote their tables to",
    )
    return parser


def _engine(
    seed: int, testbed: str = "haswell", racks: int = 1
) -> ExecutionEngine:
    racks_arg = racks if racks > 1 else None
    spec = {
        "haswell": haswell_testbed,
        "broadwell": broadwell_testbed,
        "mixed": mixed_testbed,
        "gpu": gpu_testbed,
        "mixed-gpu": mixed_gpu_testbed,
    }[testbed](racks=racks_arg)
    return ExecutionEngine(SimulatedCluster(spec), seed=seed)


def cmd_apps(_args) -> int:
    rows = [
        [a.name, a.problem_size, a.description[:48]]
        for a in all_apps()
    ]
    print(render_table(["name", "input", "description"], rows))
    return 0


def cmd_profile(args) -> int:
    engine = _engine(args.seed)
    profile = SmartProfiler(engine).profile(get_app(args.app))
    rows = [
        ["class", profile.scalability_class.value],
        ["Perf_half / Perf_all", f"{profile.ratio:.3f}"],
        ["affinity", profile.affinity.value],
        ["memory intensive", str(profile.memory_intensive)],
        ["all-core PKG / DRAM (W)",
         f"{profile.all_run.pkg_w:.1f} / {profile.all_run.dram_w:.1f}"],
        ["low-freq PKG / DRAM (W)",
         f"{profile.all_run.pkg_lo_w:.1f} / {profile.all_run.dram_lo_w:.1f}"],
        ["measured bandwidth (GB/s)",
         f"{profile.all_run.events.memory_bandwidth / 1e9:.1f}"],
    ]
    print(render_table(["metric", "value"], rows, title=f"Profile: {args.app}"))
    return 0


def cmd_classify(args) -> int:
    engine = _engine(args.seed)
    profile = SmartProfiler(engine).profile(get_app(args.app))
    print(f"{args.app}: {profile.scalability_class.value} (ratio {profile.ratio:.3f})")
    return 0


def _scheduler(engine: ExecutionEngine) -> ClipScheduler:
    print("Training CLIP's inflection predictor...", file=sys.stderr)
    return ClipScheduler(engine, inflection=build_trained_inflection(engine))


def cmd_schedule(args) -> int:
    engine = _engine(args.seed, args.testbed, args.racks)
    app = get_app(args.app)
    clip = _scheduler(engine)
    if args.json:
        decision, trace = clip.schedule_traced(
            app, args.budget, allocation_mode=args.mode
        )
        payload = {"decision": decision.to_dict(), "trace": trace.to_dict()}
        rack_budgets = decision.allocation.rack_budgets_w
        if rack_budgets is not None:
            spec = engine.cluster.spec
            records, start = [], 0
            for name, size in zip(spec.rack_names, spec.rack_sizes):
                take = min(size, decision.n_nodes - start)
                if take <= 0:
                    break
                records.append(
                    {
                        "name": name,
                        "n_nodes": take,
                        "budget_w": rack_budgets[len(records)],
                    }
                )
                start += size
            payload["racks"] = records
        print(json.dumps(payload, indent=2))
        return 0
    decision = clip.schedule(app, args.budget, allocation_mode=args.mode)
    print(render_script(app, decision))
    print(
        f"predicted performance: {decision.predicted_perf:.3f} it/s "
        f"({decision.scalability_class.value}, NP={decision.inflection_point})"
    )
    return 0


def cmd_run(args) -> int:
    engine = _engine(args.seed, args.testbed, args.racks)
    app = get_app(args.app)
    clip = _scheduler(engine)
    decision, result = clip.run(app, args.budget, allocation_mode=args.mode)
    print(render_script(app, decision))
    print(result.summary())
    return 0


def cmd_compare(args) -> int:
    engine = _engine(args.seed, args.testbed, args.racks)
    apps = (
        [get_app(n) for n in args.apps]
        if args.apps
        else list(all_apps()[:10])
    )
    print("Profiling and training (one-time)...", file=sys.stderr)
    comp = compare_methods(
        engine, apps, [args.budget], make_schedulers(engine), iterations=3
    )
    methods = ["All-In", "Lower-Limit", "Coordinated", "CLIP"]
    rows = [
        [a.name] + [comp.cell(m, a.name, args.budget).relative for m in methods]
        for a in apps
    ]
    print(
        render_table(
            ["Benchmark"] + methods,
            rows,
            title=f"Relative performance at {args.budget:.0f} W",
        )
    )
    return 0


#: The demo queue: six jobs, two of them repeat submissions.
FAULT_DEMO_APPS = ("comd", "sp-mz.C", "stream", "bt-mz.C", "comd", "stream")


def demo_fault_events(makespan_s: float, budget_w: float):
    """The canonical fault scenario, anchored to a clean-drain makespan.

    Node 2 fails early, the budget drops to 70% mid-drain, the node
    comes back, and the budget is restored — one failure, one recovery,
    two budget swings, all guaranteed to fire while jobs remain.
    """
    from repro.sim.faults import FaultEvent

    return [
        FaultEvent(at_s=0.15 * makespan_s, action="fail_node", node_id=2),
        FaultEvent(
            at_s=0.30 * makespan_s, action="set_budget",
            budget_w=0.7 * budget_w,
        ),
        FaultEvent(at_s=0.55 * makespan_s, action="recover_node", node_id=2),
        FaultEvent(
            at_s=0.70 * makespan_s, action="set_budget", budget_w=budget_w
        ),
    ]


def demo_chaos_events(makespan_s: float):
    """Enforcement faults layered on top of :func:`demo_fault_events`.

    Caps start silently drifting at t=0, cap writes begin dropping a
    quarter of the way in, and the sensors turn noisy then stale — the
    full lying-hardware gauntlet for the enforcement watchdog.
    """
    from repro.sim.faults import FaultEvent

    return [
        FaultEvent(at_s=0.0, action="cap_drift", factor=0.15, seed=11),
        FaultEvent(
            at_s=0.25 * makespan_s, action="cap_write_fail",
            factor=0.3, seed=12,
        ),
        FaultEvent(
            at_s=0.40 * makespan_s, action="sensor_noise",
            factor=0.05, seed=13,
        ),
        FaultEvent(
            at_s=0.60 * makespan_s, action="sensor_stale",
            factor=3, seed=14,
        ),
    ]


def _actuation_totals(cluster) -> dict:
    """Sum every node's RAPL actuation counters."""
    totals: dict = {}
    for node_id in range(cluster.n_nodes):
        for key, value in cluster.node(node_id).rapl.actuation_stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def cmd_faults(args) -> int:
    from repro.core.jobqueue import PowerBoundedJobQueue
    from repro.sim.faults import FaultInjector

    engine = _engine(args.seed, args.testbed, args.racks)
    clip = _scheduler(engine)
    queue = PowerBoundedJobQueue(clip)
    apps = [get_app(n) for n in FAULT_DEMO_APPS]
    if args.policy == "coscheduled":
        # co-scheduled batches are atomic — faults apply at batch
        # boundaries — so double the queue to span several batches
        apps = apps * 2

    print("Calibrating: clean drain to anchor the fault timeline...",
          file=sys.stderr)
    clean = queue.drain(
        apps, args.budget, policy=args.policy, iterations=args.iterations
    )
    events = demo_fault_events(clean.makespan_s, args.budget)
    if args.chaos:
        events = sorted(
            events + demo_chaos_events(clean.makespan_s),
            key=lambda e: e.at_s,
        )
    injector = FaultInjector(engine.cluster, events, budget_w=args.budget)
    clip.monitor.reset()
    report = queue.drain(
        apps,
        args.budget,
        policy=args.policy,
        iterations=args.iterations,
        faults=injector,
    )
    audit = clip.monitor.report()

    if args.json:
        payload = {
            "policy": report.policy,
            "events": [e.describe() for e in injector.fired],
            "jobs": [
                {
                    "app_name": j.app_name,
                    "started_at_s": j.started_at_s,
                    "finished_at_s": j.finished_at_s,
                    "n_nodes": j.n_nodes,
                    "n_threads": j.n_threads,
                    "batch": j.batch,
                }
                for j in report.jobs
            ],
            "makespan_s": report.makespan_s,
            "clean_makespan_s": clean.makespan_s,
            "monitor": audit,
        }
        if args.chaos:
            payload["watchdog"] = report.watchdog
            payload["actuation"] = _actuation_totals(engine.cluster)
        print(json.dumps(payload, indent=2))
    else:
        print("Fault timeline:")
        for e in injector.fired:
            print(f"  {e.describe()}")
        rows = [
            [
                j.app_name,
                f"{j.started_at_s:.1f}",
                f"{j.finished_at_s:.1f}",
                j.n_nodes,
                j.n_threads,
                j.batch,
            ]
            for j in sorted(report.jobs, key=lambda j: j.started_at_s)
        ]
        print(
            render_table(
                ["job", "start (s)", "finish (s)", "nodes", "threads", "batch"],
                rows,
                title=f"Faulted drain ({report.policy}) at {args.budget:.0f} W",
            )
        )
        print(
            f"makespan: {report.makespan_s:.1f} s "
            f"(clean: {clean.makespan_s:.1f} s)"
        )
        print(
            f"invariant audit: {audit['n_violations']} violation(s) across "
            f"{audit['n_audits']} cap sets "
            f"({', '.join(f'{k}: {v}' for k, v in sorted(audit['audits_by_source'].items()))})"
        )
        if args.chaos:
            dog = report.watchdog
            act = _actuation_totals(engine.cluster)
            print(
                f"enforcement watchdog: {dog['breaches']} breach(es) across "
                f"{dog['observations']} segments, actions "
                f"({', '.join(f'{k}: {v}' for k, v in sorted(dog['actions'].items()))})"
            )
            print(
                f"actuation: {act.get('writes', 0)} writes "
                f"({act.get('verified', 0)} verified, "
                f"{act.get('dropped', 0)} dropped, "
                f"{act.get('partial', 0)} partial, "
                f"{act.get('drifted', 0)} drifted), "
                f"{act.get('retries', 0)} retries"
            )
    return 1 if audit["n_violations"] else 0


def _job_state(job) -> dict:
    """JSON-ready summary of one recovered job."""
    return {
        "app_name": job.app.name,
        "budget_w": job.budget_w,
        "n_nodes": job.n_nodes,
        "n_threads": job.n_threads,
        "node_ids": list(job.node_ids),
        "remaining_iterations": job.remaining_iterations,
        "segments": len(job.segments),
        "elapsed_s": job.elapsed_s,
        "energy_j": job.energy_j,
        "parked": job.parked,
        "park_reason": job.park_reason,
        "done": job.done,
    }


def _print_jobs(runtime) -> None:
    rows = [
        [
            i,
            j.app.name,
            f"{j.budget_w:.0f}",
            j.n_nodes,
            j.n_threads,
            len(j.segments),
            j.remaining_iterations,
            "parked" if j.parked else ("done" if j.done else "running"),
        ]
        for i, j in enumerate(runtime.jobs)
    ]
    print(
        render_table(
            ["#", "app", "budget W", "nodes", "threads", "segments",
             "remaining", "state"],
            rows,
            title="Recovered runtime state",
        )
    )


def cmd_replay(args) -> int:
    import tempfile
    from pathlib import Path

    from repro.core.runtime import PowerBoundedRuntime
    from repro.errors import RuntimeCrashError
    from repro.sim.faults import FaultEvent, FaultInjector, run_scripted

    if not args.demo and args.journal is None:
        print("error: supply a journal file or use --demo", file=sys.stderr)
        return 2

    engine = _engine(args.seed, args.testbed, args.racks)
    clip = _scheduler(engine)

    if not args.demo:
        runtime = PowerBoundedRuntime.restore(
            args.journal, clip, reattach=False
        )
        audit = clip.monitor.report()
        if args.json:
            print(json.dumps({
                "journal": args.journal,
                "jobs": [_job_state(j) for j in runtime.jobs],
                "monitor": audit,
            }, indent=2))
        else:
            _print_jobs(runtime)
            print(
                f"invariant audit: {audit['n_violations']} violation(s) "
                f"across {audit['n_audits']} replayed cap sets"
            )
        return 1 if audit["n_violations"] else 0

    # --demo: journal a run, crash it, restore, verify, resume
    with tempfile.TemporaryDirectory() as tmp:
        journal_path = Path(tmp) / "runtime.journal"
        runtime = PowerBoundedRuntime(clip, journal=journal_path)
        injector = FaultInjector(
            engine.cluster,
            [
                FaultEvent(at_s=0.0, action="cap_drift", factor=0.10, seed=3),
                FaultEvent(at_s=1.0, action="crash"),
            ],
            budget_w=args.budget,
        )
        job = runtime.launch(
            get_app("comd"), args.budget, n_nodes=4,
            allow_concurrency_change=True,
        )
        crashed = False
        try:
            run_scripted(runtime, job, injector, segment_iterations=10)
        except RuntimeCrashError as exc:
            crashed = True
            print(f"crash: {exc}", file=sys.stderr)
        pre_audits = list(clip.monitor.audits)
        pre_segments = len(job.segments)

        clip.monitor.reset()
        restored = PowerBoundedRuntime.restore(journal_path, clip)
        job2 = restored.jobs[0]
        identical = (
            job2 == job and list(clip.monitor.audits) == pre_audits
        )
        if crashed and not job2.done:
            run_scripted(restored, job2, injector, segment_iterations=10)
        audit = clip.monitor.report()

        if args.json:
            print(json.dumps({
                "crashed": crashed,
                "pre_crash_segments": pre_segments,
                "bit_identical": identical,
                "job": _job_state(job2),
                "monitor": audit,
            }, indent=2))
        else:
            _print_jobs(restored)
            print(f"crashed mid-run: {crashed}")
            print(
                f"restore bit-identical "
                f"({pre_segments} journaled segment(s), "
                f"{len(pre_audits)} audit(s)): {identical}"
            )
            print(
                f"resumed to completion: {job2.done} | invariant audit: "
                f"{audit['n_violations']} violation(s) across "
                f"{audit['n_audits']} cap sets"
            )
        return 0 if identical and job2.done and not audit["n_violations"] else 1


def cmd_serve(args) -> int:
    from repro.core.knowledge import KnowledgeDB
    from repro.core.scheduler import ClipScheduler as _Clip
    from repro.serve import SchedulerService, ServeDaemon, TenantQuota

    # fail on bad quota specs before the expensive predictor training
    quotas = dict(TenantQuota.parse(spec) for spec in args.quota)
    engine = _engine(args.seed, args.testbed, args.racks)
    knowledge = None
    if args.knowledge:
        knowledge = KnowledgeDB.load_or_fresh(args.knowledge)
        if knowledge.load_error is not None:
            print(
                f"warning: {knowledge.load_error} — starting with an "
                "empty knowledge DB",
                file=sys.stderr,
            )
    print("Training CLIP's inflection predictor...", file=sys.stderr)
    clip = _Clip(
        engine,
        inflection=build_trained_inflection(engine),
        knowledge=knowledge,
    )
    service = SchedulerService(
        clip, args.budget, max_pending=args.max_pending, quotas=quotas
    )
    daemon = ServeDaemon(
        service,
        host=args.host,
        port=args.port,
        window_s=args.window_ms / 1e3,
        max_burst=args.max_burst,
    )
    print(
        f"clip-sched serve: budget {args.budget:.0f} W, testbed "
        f"{args.testbed}, window {args.window_ms:g} ms — listening on "
        f"http://{args.host}:{args.port or '<ephemeral>'} "
        "(Ctrl-C or SIGTERM stops)",
        file=sys.stderr,
    )
    daemon.run()
    stats = service.stats()
    if args.knowledge:
        clip.knowledge.save(args.knowledge)
        print(f"knowledge DB saved to {args.knowledge}", file=sys.stderr)
    print(
        f"served {stats['decided']} decisions in {stats['bursts']} bursts "
        f"({stats['rejected']} rejected, "
        f"{stats['audit_violations']} audit violations)",
        file=sys.stderr,
    )
    return 0 if stats["audit_violations"] == 0 else 1


def cmd_learn(args) -> int:
    """Per-app decision-quality report from the learning layer.

    With ``--knowledge`` the report reads a saved database's
    observation history; without it a short learning-on campaign runs
    on the simulated testbed first (scheduler decisions executed and
    fed back through the outcome choke point), so the command
    demonstrates the whole closed loop out of the box.
    """
    from repro.core.knowledge import KnowledgeDB
    from repro.core.learning import LearningConfig

    stats = None
    if args.knowledge:
        kb = KnowledgeDB.load(args.knowledge)
        source = args.knowledge
    else:
        engine = _engine(args.seed, args.testbed, args.racks)
        print(
            f"Running a {args.jobs}-decision learning-on campaign...",
            file=sys.stderr,
        )
        clip = ClipScheduler(
            engine,
            inflection=build_trained_inflection(engine),
            learning=LearningConfig(enabled=True),
        )
        # rotate a small app set so entries accumulate enough
        # observations for the refit policy to act within the demo
        apps = all_apps()[:4]
        for i in range(args.jobs):
            clip.run(apps[i % len(apps)], args.budget, iterations=2)
        kb = clip.knowledge
        stats = clip.pipeline.learning_stats()
        source = "demo campaign"

    rows = []
    entries = []
    for key in kb.keys():
        entry = kb.get(*key)
        for cell in entry.quality_cells():
            rows.append(
                [
                    entry.profile.app_name,
                    entry.profile.problem_size,
                    f"{cell.band_w:.0f}",
                    str(cell.n),
                    str(entry.model_version),
                    f"{cell.mean_abs_time_error * 100:.1f}%",
                    f"{cell.mean_abs_power_error * 100:.1f}%",
                    f"{cell.score:.3f}",
                ]
            )
            entries.append(cell.to_dict())
    if args.json:
        payload = {"source": source, "cells": entries}
        if stats is not None:
            payload["learning"] = stats
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if not rows:
        print(f"no observations recorded in {source}")
        return 0
    print(
        render_table(
            [
                "app",
                "input",
                "band (W)",
                "obs",
                "model v",
                "time err",
                "power err",
                "score",
            ],
            rows,
            title=f"Decision quality ({source})",
        )
    )
    if stats is not None:
        print(f"outcomes={stats['outcomes']} refits={stats['refits']}")
    return 0


def cmd_report(args) -> int:
    from repro.analysis.report import assemble_report

    print(assemble_report(args.results))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "apps": cmd_apps,
        "profile": cmd_profile,
        "classify": cmd_classify,
        "schedule": cmd_schedule,
        "run": cmd_run,
        "compare": cmd_compare,
        "faults": cmd_faults,
        "replay": cmd_replay,
        "serve": cmd_serve,
        "learn": cmd_learn,
        "report": cmd_report,
    }[args.command]
    try:
        return handler(args)
    except ClipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
