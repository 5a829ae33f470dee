#!/usr/bin/env python3
"""Runtime re-coordination under a changing budget (§VII future work).

A production BT-MZ job is launched with a *fixed* 8-node decomposition.
Mid-run the machine room takes power away (a higher-priority job
arrives), then gives it back.  The runtime re-splits per-node budgets
and CPU/DRAM caps at every change — and, because the job allows it,
throttles concurrency when the budget dips below the all-core floor.

Halfway through, node 5 degrades (thermal event); after recalibration
the runtime shifts extra power to it so the bulk-synchronous steps stay
balanced.

Run:  python examples/runtime_budget_changes.py
"""

from repro import quickstart_scheduler
from repro.analysis.tables import render_table
from repro.core.runtime import PowerBoundedRuntime
from repro.workloads import get_app


def main() -> None:
    print("Building testbed + training CLIP...")
    clip = quickstart_scheduler()
    runtime = PowerBoundedRuntime(clip)
    app = get_app("bt-mz.C")

    job = runtime.launch(
        app, 1800.0, n_nodes=8, allow_concurrency_change=True
    )
    print(
        f"\nlaunched {app.name}: 8 nodes (fixed), {job.n_threads} threads, "
        f"{job.budget_w:.0f} W"
    )

    schedule = [
        ("steady state", 1800.0, 40),
        ("power emergency", 900.0, 40),
        ("partial restore", 1300.0, 40),
    ]
    for label, budget, iters in schedule:
        if budget != job.budget_w:
            runtime.update_budget(job, budget)
        seg = runtime.advance(job, iters)
        print(
            f"  [{label:16s}] {budget:6.0f} W -> {seg.n_threads:2d} threads, "
            f"{seg.performance:.3f} it/s"
        )

    print("\nnode 5 degrades (thermal event); recalibrating...")
    clip._engine.cluster.degrade_node(5, 1.2)
    runtime.recalibrate()
    runtime.update_budget(job, 1300.0)  # re-coordinate with fresh factors
    seg = runtime.advance(job, 40)
    print(
        f"  [post-recalibration] 1300 W -> {seg.n_threads:2d} threads, "
        f"{seg.performance:.3f} it/s"
    )
    caps = [pkg + dram for pkg, dram in job.per_node_caps]
    print()
    print(
        render_table(
            ["node", "budget (W)"],
            [[i, cap] for i, cap in enumerate(caps)],
            title="Per-node budgets after recalibration (node 5 compensated)",
            float_fmt="{:.0f}",
        )
    )

    runtime.run_to_completion(job)
    print()
    print(
        render_table(
            ["segment", "budget (W)", "threads", "it/s"],
            [
                [i, s.budget_w, s.n_threads, s.performance]
                for i, s in enumerate(job.segments)
            ],
            title="Segment history",
        )
    )
    print(
        f"\njob finished: {job.mean_performance:.3f} it/s average, "
        f"{job.energy_j / 1e6:.2f} MJ total"
    )


if __name__ == "__main__":
    main()
