"""Smoke check: the held-out seed runs and passes the output check.

Usage: ``python3 perfbench/smoke.py``.  ``HELD_OUT_SEED`` was not used
while the benchmark was written; its expected fingerprints were recorded
once it was final.  Exits nonzero unless every workload reports correct
outputs that match ``expected.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 9173
WORKLOADS = ("closed_loop", "supply_design_space", "parallel_sweep")


def main() -> int:
    failures = 0
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    for workload in WORKLOADS:
        with tempfile.NamedTemporaryFile(dir=scratch, suffix=".json") as out:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(HELD_OUT_SEED),
                 "--seconds", "1", "--trace", "0", "--out", out.name],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            report = json.load(out) if proc.returncode in (0, 1) else {}
        verdict = report.get("expected", f"exit {proc.returncode}")
        ok = proc.returncode == 0 and verdict == "matched"
        failures += not ok
        print(f"{workload}: {'ok' if ok else 'FAILED'} (expected {verdict})")
        if not ok:
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
