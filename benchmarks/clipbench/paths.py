"""Where the program under test and the run's scratch files live.

The program is the checkout holding this benchmark unless
``CLIPBENCH_ROOT`` names another one: ``run.py compare`` measures a
parent and a child checkout with identical benchmark code that way.
Scratch files (journals, spans, compare results) always go to
``.clipbench/`` in the benchmark's own checkout.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path(os.environ.get("CLIPBENCH_ROOT") or HERE.parents[1]).resolve()
SRC = ROOT / "src"
WORK_DIR = HERE.parents[1] / ".clipbench"


def bootstrap() -> bool:
    """Put the program's source first on ``sys.path``; False when the
    source is absent (nothing to measure)."""
    if not (SRC / "repro").is_dir():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
