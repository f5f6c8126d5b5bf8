"""Compare two reports written by ``run.py --out``.

Usage: ``python3 perfbench/compare.py BASE.json NEW.json``.  Prints each
metric's relative change, or ``incomparable`` (exit 3) when the reports
come from hosts with different fingerprints, or from different
workloads, seeds or trace modes.
"""

from __future__ import annotations

import json
import sys

import host


def compare(base: dict, new: dict) -> int:
    reasons = [
        f"{key}: {base['host'].get(key)!r} vs {new['host'].get(key)!r}"
        for key in host.FINGERPRINT_KEYS
        if base["host"].get(key) != new["host"].get(key)
    ]
    reasons += [
        f"{key}: {base[key]!r} vs {new[key]!r}"
        for key in ("workload", "seed", "trace") if base[key] != new[key]
    ]
    if reasons:
        print("incomparable: " + "; ".join(reasons))
        return 3
    for name, metric in base["metrics"].items():
        old = metric["value"]
        value = new["metrics"].get(name, {}).get("value")
        if value is None:
            print(f"{name:40s} missing in the new report")
            continue
        change = (value - old) / old if old else float("nan")
        print(f"{name:40s} {old:>14.6g} -> {value:>14.6g} {metric['unit']:6s}"
              f" {change:+.2%}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1]) as a, open(sys.argv[2]) as b:
        sys.exit(compare(json.load(a), json.load(b)))
