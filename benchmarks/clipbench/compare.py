"""Parent-vs-child comparison with this checkout's benchmark code.

    python3 benchmarks/clipbench/run.py compare PARENT_DIR CHILD_DIR

For every workload in ``BENCHMARK.json``, ``PAIRS`` pairs run it on
both checkouts with the same seed (``SEED_BASE`` + pair index) for
``run_seconds``, alternating which side goes first; both sides run
*this* benchmark code against their own ``src/`` (``CLIPBENCH_ROOT``).
For every (end-to-end metric, workload) the verdict follows the
choosing-metrics rules:

* improved -- the child wins at least 9 of 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's own
  quartile spread;
* unresolved -- otherwise, when the parent's quartile spread exceeds
  the metric's bound, unless every child run beats every parent run;
* regressed -- the child median is worse by more than the bound;
* unchanged -- the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import paths

#: Pairs per workload: the 9-of-10 win rule needs ten.
PAIRS = 10
#: Seeds of the pairs; apart from the seeds runs usually use.
SEED_BASE = 1000


def _run(checkout: Path, workload: str, seed: int, out: Path) -> dict:
    env = dict(os.environ, CLIPBENCH_ROOT=str(checkout))
    cmd = [sys.executable, str(paths.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--out", str(out)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{checkout} {workload} seed {seed} failed "
            f"({proc.returncode}):\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], child: list[float], better: str,
            bound: float) -> dict:
    """Classify one (metric, workload) from paired runs."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (child - parent) > 0: worse
    wins = sum(1 for p, c in zip(parent, child) if sign * (c - p) < 0)
    losses = sum(1 for p, c in zip(parent, child) if sign * (c - p) > 0)
    q1, p_med, q3 = statistics.quantiles(parent, n=4)
    c_q1, c_med, c_q3 = statistics.quantiles(child, n=4)
    parent_iqr = q3 - q1
    worse_by = sign * (c_med - p_med) / p_med
    child_all_better = (max(child) < min(parent) if better == "lower"
                        else min(child) > max(parent))
    if (wins >= 0.9 * len(parent) and abs(c_med - p_med) > parent_iqr
            and worse_by < 0):
        status = "improved"
    elif parent_iqr / p_med > bound and not child_all_better:
        status = "unresolved"
    elif worse_by > bound:
        status = "regressed"
    else:
        status = "unchanged"
    return {
        "status": status,
        "parent": {"median": p_med, "q1": q1, "q3": q3},
        "child": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "ratio": c_med / p_med,
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
    }


def main(argv: list[str]) -> int:
    spec = json.loads((paths.HERE.parents[1] / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("child", type=Path)
    args = parser.parse_args(argv)
    out_dir = paths.WORK_DIR / "compare"
    sides = {"parent": args.parent.resolve(), "child": args.child.resolve()}
    report = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "child": []}
        for i in range(PAIRS):
            seed = SEED_BASE + i
            order = ("parent", "child") if i % 2 == 0 else ("child", "parent")
            for side in order:
                runs[side].append(_run(
                    sides[side], workload, seed,
                    out_dir / f"{workload}-{side}-{seed}.json",
                ))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            v = verdict([r[name] for r in runs["parent"]],
                        [r[name] for r in runs["child"]],
                        metric["better"], metric["bound"])
            report[f"{workload}/{name}"] = v
            print(
                f"{workload:14} {name:12} {v['status']:10} "
                f"child/parent {v['ratio']:.4f} (base: parent median "
                f"{v['parent']['median']:.6g} {metric['unit']}, "
                f"{v['pairs']} pairs; child won {v['wins']}, lost "
                f"{v['losses']}; bound {metric['bound']:.0%})"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0
