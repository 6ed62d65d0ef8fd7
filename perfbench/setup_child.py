"""One set-up of a workload in a fresh interpreter, for the ``setup_s`` metric.

    python3 perfbench/setup_child.py <workload> <seed>

It imports ``tailmax``, generates the workload's specs from the seed and
parses them into models; the parent times the whole process.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tailmax  # noqa: E402,F401

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
