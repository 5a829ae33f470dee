"""clipbench: this repository's benchmark.

    python3 benchmarks/clipbench/run.py --workload W --seed S \\
        [--seconds N] [--trace 0|1] [--out FILE]
    python3 benchmarks/clipbench/run.py reference
    python3 benchmarks/clipbench/run.py compare PARENT_DIR CHILD_DIR

A run measures one workload (``serve-open``, ``decide-cold``,
``decide-fleet``, ``runtime-chaos``) for ``--seconds`` in this fresh
process, checks the outputs, prints every metric with its unit and a
machine stamp, and ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Times are adjusted for the host's speed
(``speed.py``); ``info`` also holds them in wall-clock time.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` spends a third of the time untraced and the rest
with every layer boundary traced, and reports the per-layer metrics.
The exit code is 0 only for a correct run, and 2 (with no result) when
the program's source is absent.

``reference`` regenerates the committed oracle fixture;
``compare`` runs parent/child pairs (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import paths

#: End-to-end metric -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "ops_per_s": "1/s",
    "aux_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Share of a traced run measured without tracing (the overhead base).
UNTRACED_SHARE = 1 / 3


def _run_seconds() -> float:
    spec = paths.HERE.parents[1] / "BENCHMARK.json"
    return float(json.loads(spec.read_text())["run_seconds"])


def _measure(workload, seconds: float, trace: bool, info: dict):
    """``(metrics, ops, problems)`` of one workload run."""
    import gate
    import layers
    from stats import own_peak_rss_mb
    from tracer import Tracer

    if not trace:
        setups = workload.setup_samples()
        workload.prepare()
        result = workload.measure(seconds, None)
        adjusted = workload.speed.adjust(setups)
        info.update(result.info, setup_samples_s=adjusted)
        info["unadjusted"]["setup_s"] = statistics.median(s for _, s in setups)
        metrics = {"setup_s": statistics.median(adjusted),
                   "peak_rss_mb": own_peak_rss_mb(), **result.metrics}
        return metrics, result.ops, []
    workload.prepare()
    base = workload.measure(seconds * UNTRACED_SHARE, None)
    tracer = Tracer()
    layers.install(tracer)
    try:
        result = workload.measure(seconds * (1 - UNTRACED_SHARE), tracer)
        counts = dict(tracer.counts)
        for key, value in result.counts.items():
            counts[key] = counts.get(key, 0) + value
        metrics = layers.layer_metrics(
            tracer.spans + result.spans, counts,
            overhead=result.metrics["p50_ms"] / base.metrics["p50_ms"],
            windows=result.windows,
        )
        tracer.dump(paths.WORK_DIR / f"spans-{workload.name}.jsonl")
        # the same decisions must come out with every wrapper in place
        _, problems = gate.check_golden()
    finally:
        tracer.unwrap()
    info.update(result.info, untraced_p50_ms=base.metrics["p50_ms"],
                traced_p50_ms=result.metrics["p50_ms"])
    base.ops.merge(result.ops)
    return metrics, base.ops, problems


def run(args) -> int:
    import gate
    import layers
    import workloads
    from speed import HostSpeed
    from stats import machine_stamp

    paths.WORK_DIR.mkdir(exist_ok=True)
    info = {"stamp": machine_stamp(paths.ROOT)}
    cls = workloads.WORKLOADS[args.workload]
    # set-up children and load-generator threads inherit these CPUs
    os.sched_setaffinity(0, cls.cpus)
    speed = HostSpeed(workloads.SYSTEM_CPUS,
                      paths.WORK_DIR / f"speed-{args.workload}.txt")
    workload = cls(args.seed, speed)
    try:
        checked, problems = gate.check_golden()
        metrics, ops, more = _measure(workload, args.seconds, args.trace, info)
    finally:
        workload.close()
        speed.stop()
    problems += more
    if workload.name == "decide-cold":
        info["quality.oracle_frac"] = gate.oracle_frac()
    info["host_probe"] = speed.summary()
    info["golden_decisions_checked"] = checked
    errors = ops.errors + problems
    if errors:
        info["errors"] = errors
    units = layers.UNITS if args.trace else END_TO_END
    report = {
        "correct": not problems and ops.failed == 0,
        "attempted": ops.attempted + checked,
        "failed": ops.failed + len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(f"clipbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={int(args.trace)}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed,
             "seconds": args.seconds, "trace": int(args.trace),
             **report, "info": info},
            indent=1, sort_keys=True) + "\n")
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    if not paths.bootstrap():
        print(f"clipbench: no program source under {paths.SRC}",
              file=sys.stderr)
        return 2
    if argv[:1] == ["reference"]:
        import gate

        gate.write_reference()
        print(f"wrote {gate.REFERENCE}")
        return 0
    import workloads

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="seed every generated input derives from")
    parser.add_argument("--seconds", type=float, default=_run_seconds(),
                        help="measured time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of a traced run")
    parser.add_argument("--out", type=Path,
                        help="also write the full result (stamp, info) as JSON")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
