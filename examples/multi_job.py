#!/usr/bin/env python3
"""Multi-job power sharing (extension; cf. POW-shed, SC'15 [11]).

Three jobs with very different power personalities — a linear MD code,
a parabolic multizone solver, and a bandwidth-bound kernel — arrive at
a cluster with a single 1800 W budget.  The coordinator partitions both
the nodes and the watts using each job's CLIP models (including per-job
concurrency throttling); the co-scheduled queue then runs all three
concurrently through the power-bounded runtime, and the result is
compared against a naive equal split.

Run:  python examples/multi_job.py
"""

from repro import quickstart_scheduler
from repro.analysis.metrics import geometric_mean
from repro.analysis.tables import render_table
from repro.core.jobqueue import PowerBoundedJobQueue
from repro.sim.engine import ExecutionConfig
from repro.workloads import get_app

JOBS = ("comd", "sp-mz.C", "stream")
BUDGET_W = 1800.0


def naive_equal_split(engine, apps):
    """Equal nodes, equal power, all cores — the do-nothing policy."""
    per_job_nodes = engine.cluster.n_nodes // len(apps)
    per_job_budget = BUDGET_W / len(apps)
    results = {}
    next_node = 0
    for app in apps:
        share = per_job_budget / per_job_nodes
        result = engine.run(
            app,
            ExecutionConfig(
                n_nodes=per_job_nodes,
                n_threads=engine.cluster.spec.node.n_cores,
                pkg_cap_w=share - 30.0,
                dram_cap_w=30.0,
                node_ids=tuple(range(next_node, next_node + per_job_nodes)),
                iterations=5,
            ),
        )
        next_node += per_job_nodes
        results[app.name] = result
    return results


def main() -> None:
    print("Building testbed + training CLIP...")
    clip = quickstart_scheduler()
    engine = clip._engine
    apps = [get_app(n) for n in JOBS]

    queue = PowerBoundedJobQueue(clip)
    report = queue.drain(apps, BUDGET_W, policy="coscheduled", iterations=5)
    naive = naive_equal_split(engine, apps)

    rows = []
    clip_rel, naive_rel = [], []
    for job in report.jobs:
        rel_clip = job.performance
        rel_naive = naive[job.app_name].performance
        rows.append(
            [
                job.app_name,
                f"{job.n_nodes} nodes",
                job.n_threads,
                f"{job.energy_j:.0f} J",
                rel_clip,
                rel_naive,
            ]
        )
        clip_rel.append(rel_clip)
        naive_rel.append(rel_naive)

    print()
    print(
        render_table(
            ["Job", "Nodes", "Threads", "Energy", "coordinated it/s",
             "equal-split it/s"],
            rows,
            title=f"Three concurrent jobs under one {BUDGET_W:.0f} W budget",
        )
    )
    print()
    print(
        render_table(
            ["Job", "coordinated", "equal split"],
            [
                [r[0], r[4] / max(r[4], r[5]), r[5] / max(r[4], r[5])]
                for r in rows
            ],
            title="Per-job throughput (normalized to the better policy)",
        )
    )
    gain = geometric_mean(
        [c / n for c, n in zip(clip_rel, naive_rel)]
    )
    print(f"\nGeomean throughput gain of coordination: {gain - 1:+.1%}")


if __name__ == "__main__":
    main()
