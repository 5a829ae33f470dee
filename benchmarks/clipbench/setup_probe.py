"""Set one workload's system up in a fresh process, then print "ready".

``python benchmarks/clipbench/setup_probe.py WORKLOAD`` imports the
program, trains the inflection predictor and constructs the workload's
scheduler(s).  The parent times spawn to "ready" as ``setup_s``.
"""

import sys

import paths

if not paths.bootstrap():
    sys.exit(f"setup_probe: no program source under {paths.SRC}")

import workloads  # noqa: E402  (imports the program)

workloads.WORKLOADS[sys.argv[1]](seed=0).build()
print("ready", flush=True)
