"""The Application Execution Module's launch script (§IV-B.3).

The framework "creates a script to launch the job with the execution
configuration on a power-bounded multicore cluster through our job
scheduler".  On the simulated testbed the launch is an engine run
(:meth:`~repro.sim.engine.ExecutionEngine.run`); the launch script is
still rendered (mpirun + OMP environment + RAPL cap commands) so users
can see exactly what the real framework would have executed.
"""

from __future__ import annotations

from repro.core.scheduler import SchedulingDecision
from repro.workloads.characteristics import WorkloadCharacteristics

__all__ = ["render_script"]


def render_script(
    app: WorkloadCharacteristics, decision: SchedulingDecision
) -> str:
    """Render the launch script the real helper tools would emit.

    One RAPL cap command pair per node (budgets differ under
    variability coordination), then the hybrid MPI/OpenMP launch line.
    """
    lines = [
        "#!/bin/sh",
        f"# CLIP launch plan for {app.name} ({app.problem_size})",
        f"# class={decision.scalability_class.value}"
        + (
            f" NP={decision.inflection_point}"
            if decision.inflection_point is not None
            else ""
        ),
        f"# cluster budget {decision.cluster_budget_w:.0f} W, "
        f"allocated {decision.total_capped_w:.0f} W",
    ]
    for i, cap in enumerate(decision.per_node_caps):
        # the --gpu flag appears only for ranks with a device grant, so
        # CPU-only scripts stay byte-identical to the pre-GPU emitter
        lines.append(
            f"clip-rapl --node {i} --pkg {cap[0]:.1f} --dram {cap[1]:.1f}"
            + (f" --gpu {cap[2]:.1f}" if len(cap) == 3 else "")
        )
    lines.append(
        "mpirun -np {n} --map-by node -x OMP_NUM_THREADS={t} "
        "-x OMP_PROC_BIND={bind} {prog}".format(
            n=decision.n_nodes,
            t=decision.n_threads,
            bind="spread" if decision.affinity.value == "scatter" else "close",
            prog=app.name,
        )
    )
    return "\n".join(lines) + "\n"
