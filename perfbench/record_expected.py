"""Record the expected output fingerprints into ``expected.json``.

Usage::

    python3 perfbench/record_expected.py --seeds 0-15,HELDOUT [--workloads ...]

Each (workload, seed) runs one round and stores its fingerprint parts.
``parallel_sweep`` is recorded from a *sequential* run of its grid, so a
pool run that disagrees with the sequential backend fails the output
check.  Only re-record when the program's results are meant to change,
and say why in the commit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15,4242")
    parser.add_argument("--workloads", nargs="*",
                        default=sorted(workloads.WORKLOADS))
    args = parser.parse_args()
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=scratch)
    try:
        for name in args.workloads:
            for seed in _seeds(args.seeds):
                workload = workloads.WORKLOADS[name](seed, workdir)
                if isinstance(workload, workloads.ParallelSweep):
                    result = workload.sequential_round()
                else:
                    result = workload.run_round(contextlib.nullcontext)
                if result.problems or result.failed:
                    print(f"{name} seed {seed}: not recorded:"
                          f" {result.problems} ({result.failed} failed)")
                    return 1
                expected.setdefault(name, {})[str(seed)] = result.parts
                print(f"{name} seed {seed}: {result.fingerprint}",
                      flush=True)
                with open(EXPECTED, "w") as handle:
                    json.dump(expected, handle, indent=1, sort_keys=True)
                    handle.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
