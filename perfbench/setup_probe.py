"""Time the program's set-up in a fresh interpreter and print the seconds.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR``.  Covers
importing the program and building everything a round builds before its
first simulated cycle (configurations, runners, one controller of each
technique, trace store), so work moved into set-up shows in ``setup_s``.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, workdir).prepare()
    print(time.perf_counter() - STARTED)
