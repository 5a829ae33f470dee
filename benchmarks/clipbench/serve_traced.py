"""``clip-sched serve`` with the benchmark's layer spans installed.

``python benchmarks/clipbench/serve_traced.py SPANS_PATH [serve args]``
patches the traced boundaries (``layers.install``), runs the daemon
through ``repro.cli.main(["serve", ...])`` until SIGTERM, then writes
the spans to SPANS_PATH and exits with the daemon's code.
"""

import sys
from pathlib import Path

import paths

if not paths.bootstrap():
    sys.exit(f"serve_traced: no program source under {paths.SRC}")

import layers  # noqa: E402  (imports the program)
from repro.cli import main  # noqa: E402
from tracer import Tracer  # noqa: E402

tracer = Tracer()
layers.install(tracer)
code = main(["serve", *sys.argv[2:]])
tracer.dump(Path(sys.argv[1]))
sys.exit(code)
