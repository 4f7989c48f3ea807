"""Set up one workload's inputs in a directory; the timed set-up of run.py.

    python3 perfbench/prepare.py WORKLOAD SEED SIZE DIR
"""

from __future__ import annotations

import sys
from pathlib import Path

from workloads import WORKLOADS, set_up

if __name__ == "__main__":
    name, seed, size, root = sys.argv[1:]
    set_up(WORKLOADS[name](), Path(root), int(seed), size)
