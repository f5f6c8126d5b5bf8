"""The repository benchmark: closed-loop sweeps measured end to end.

Run from the repository root::

    python3 perfbench/run.py --workload closed_loop --seed 0 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``closed_loop``,
``supply_design_space`` and ``parallel_sweep``.  One run

1. times the program's set-up several times in fresh interpreters
   (``setup_probe.py``) and keeps the median;
2. repeats *rounds* -- the workload's whole grid, from cold caches --
   until ``--seconds`` have passed, timing each with tracing off;
3. checks the outputs: every round's fingerprint must be identical, each
   sweep summary internally consistent, one cell recomputed another way
   must agree, and where ``expected.json`` records the (workload, seed)
   the fingerprints must equal it;
4. prints a readable report, then one JSON line: the end-to-end metrics
   with ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 1`` untraced and traced rounds alternate: the traced ones
give the per-layer budget (``layers.py``), and the two together give the
tracing overhead.  The command exits 1 when any check fails and 2 when
the program's source is missing.  ``--out PATH`` also writes the whole
report, host record included, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="also write the whole report as JSON to PATH")
    return parser.parse_args(argv)


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _peak_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _setup_seconds(workload: str, seed: int, workdir: str) -> list:
    """Set-up time of fresh interpreters, one probe at a time."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, str(seed), workdir],
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout
        samples.append(float(out.strip().splitlines()[-1]))
    return samples


class _Rounds:
    """Runs and times rounds; traced ones go through a LayerClock."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.records = []

    def run(self, traced: bool):
        from repro import obs
        from layers import LayerClock

        clock = None
        if traced:
            obs.configure(
                trace_out=os.path.join(self.workdir, "obs-trace.json"),
                metrics_out=os.path.join(self.workdir, "obs-metrics.json"),
            )
            clock = LayerClock()
            clock.install()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            result = self.workload.run_round(
                clock.paused if clock else contextlib.nullcontext)
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            if clock is not None:
                clock.uninstall()
        record = {
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "result": result,
        }
        if clock is not None:
            record["parent"] = dict(clock.totals)
            record["workers"] = dict(clock.absorb(obs.active_registry()))
            obs.finalize()
            record["cell_busy_s"] = _cell_busy_seconds(
                os.path.join(self.workdir, "obs-trace.json"))
        self.records.append(record)
        return record


def _cell_busy_seconds(trace_path: str) -> float:
    from repro.obs.trace import CAT_CELL, load_trace_events

    return sum(
        event.get("dur", 0.0) for event in load_trace_events(trace_path)
        if event.get("ph") == "X" and event.get("cat") == CAT_CELL
    ) / 1e6


def _median(values):
    return statistics.median(values) if values else 0.0


def _end_to_end(records, setup_samples, attempted, failed):
    untraced = [r for r in records if not r["traced"]]
    first = untraced[0]["result"]
    return {
        "sim_cycles_per_s": _median(
            [r["result"].cycles / r["wall_s"] for r in untraced]),
        "cpu_s_per_mcycle": _median(
            [r["cpu_s"] / (r["result"].cycles / 1e6) for r in untraced]),
        "setup_s": _median(setup_samples),
        "peak_rss_mb": _peak_rss_mb(),
        "cell_success_ratio": 1.0 - failed / attempted,
        "avg_slowdown": first.avg_slowdown,
        "violation_cycles": first.violation_cycles,
    }


def _per_layer(records):
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    total = {}
    parent_self = worker_self = wall = busy = 0.0
    setup = checkpoint = aggregate = capacity = requeued = 0.0
    for record in traced:
        for source in (record["parent"], record["workers"]):
            for key, value in source.items():
                total[key] = total.get(key, 0.0) + value
        parent_self += sum(v for k, v in record["parent"].items()
                           if k.endswith(".self_s"))
        worker_self += sum(v for k, v in record["workers"].items()
                           if k.endswith(".self_s"))
        wall += record["wall_s"]
        busy += record["cell_busy_s"]
        for summary in record["result"].summaries:
            timings = getattr(summary, "timings", {})
            setup += timings.get("setup", 0.0)
            checkpoint += timings.get("checkpoint_io", 0.0)
            aggregate += timings.get("aggregate", 0.0)
            capacity += timings.get("workers", 1.0) * timings.get("execute", 0.0)
            requeued += sum(1 for i in summary.incidents
                            if not i.error_type.startswith("TraceStore"))

    def get(key):
        return total.get(key, 0.0) / n

    def ratio(num, den):
        return total.get(num, 0.0) / total[den] if total.get(den) else 0.0

    hits, misses = get("trace.store.hits"), get("trace.store.misses")
    untraced = [r["result"].cycles / r["wall_s"]
                for r in records if not r["traced"]]
    traced_rate = [r["result"].cycles / r["wall_s"] for r in traced]
    metrics = {
        "uarch.trace.self_s": get("uarch.trace.self_s"),
        "uarch.trace.calls": get("uarch.trace.calls"),
        "uarch.pipeline.self_s": get("uarch.pipeline.self_s"),
        "uarch.pipeline.cycles": get("uarch.pipeline.calls"),
        "uarch.power_model.self_s": get("uarch.power_model.self_s"),
        "uarch.power_model.calls": get("uarch.power_model.calls"),
        "core.sensor.self_s": get("core.sensor.self_s"),
        "core.detector.self_s": get("core.detector.self_s"),
        "core.detector.events": get("core.detector.events"),
        "core.detector.comparisons": get("core.detector.comparisons"),
        "controller.self_s": get("controller.self_s"),
        "controller.first_level_engagements":
            get("controller.first_level_engagements"),
        "controller.second_level_engagements":
            get("controller.second_level_engagements"),
        "power.supply.self_s": get("power.supply.self_s"),
        "power.supply.steps": get("power.supply.calls"),
        "core.kernel.self_s": get("core.kernel.self_s"),
        "trace.store.load_s": get("trace.store.load.self_s"),
        "trace.store.save_s": get("trace.store.save.self_s"),
        "trace.store.hits": hits,
        "trace.store.misses": misses,
        "trace.store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.replay.self_s": get("trace.replay.self_s"),
        "sim.simulation.self_s": get("sim.simulation.self_s"),
        "sim.runner.self_s": get("sim.runner.self_s"),
        "sim.runner.setup_s": setup / n,
        "sim.runner.checkpoint_io_s": checkpoint / n,
        "sim.runner.aggregate_s": aggregate / n,
        "sim.runner.base_cache_hit_ratio":
            ratio("sim.runner.base_hits", "sim.runner.base_lookups"),
        "sim.backends.self_s": get("sim.backends.self_s"),
        "sim.backends.cell_busy_s": busy / n,
        "sim.backends.idle_share": 1.0 - busy / capacity if capacity else 0.0,
        "sim.backends.cells_requeued": requeued / n,
        "tracing.total_s": (wall + worker_self) / n,
        "tracing.residual_s": (wall - parent_self) / n,
        "tracing.overhead_ratio": _median(untraced) / _median(traced_rate),
    }
    layer_self = sum(v for k, v in total.items() if k.endswith(".self_s")) / n
    identity_gap = metrics["tracing.total_s"] - (
        layer_self + metrics["tracing.residual_s"])
    return metrics, identity_gap


def _check(records, spot_problems, expected):
    """Count failed or mismatched cells; list what went wrong."""
    problems = list(spot_problems)
    reference = expected or records[0]["result"].parts
    attempted = failed = 0
    for index, record in enumerate(records):
        result = record["result"]
        attempted += result.cells
        failed += result.failed
        problems += [f"round {index}: {p}" for p in result.problems]
        bad = sorted(k for k in set(reference) | set(result.parts)
                     if reference.get(k) != result.parts.get(k))
        if bad:
            failed += min(result.cells, sum(result.part_cells.get(k, result.cells)
                                            for k in bad))
            source = "expected.json" if expected else "round 0"
            problems.append(f"round {index}: fingerprint parts differ from"
                            f" {source}: {', '.join(bad)}")
    if spot_problems:
        attempted += 1
        failed += 1
    return attempted, failed, problems


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program at {SRC}/repro; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import host
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r};"
              f" choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = _load_json(os.path.join(ROOT, "BENCHMARK.json"))
    host_record = host.record(ROOT)
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        setup_samples = _setup_seconds(args.workload, args.seed, workdir)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        rounds = _Rounds(workload, workdir)
        started = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds.records) % 2 == 1
            rounds.run(traced)
            kinds = {r["traced"] for r in rounds.records}
            enough = len(kinds) == 2 if args.trace else True
            if enough and time.perf_counter() - started >= args.seconds:
                break
        spot = workload.spot_check(rounds.records[-1]["result"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host_record["loadavg_end"] = list(os.getloadavg())

    expected = _load_json(os.path.join(HERE, "expected.json"))
    recorded = expected.get(args.workload, {}).get(str(args.seed))
    attempted, failed, problems = _check(rounds.records, spot, recorded)
    correct = not problems and failed == 0

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, identity_gap = _per_layer(rounds.records)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = _end_to_end(rounds.records, setup_samples, attempted, failed)
        identity_gap = None
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if sorted(metrics) != sorted(names):
        print(f"perfbench: BENCHMARK.json lists {sorted(names)}, the run"
              f" measured {sorted(metrics)}", file=sys.stderr)
        return 2

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_record,
        "fingerprint": rounds.records[0]["result"].fingerprint,
        "expected": "matched" if recorded and correct
        else "mismatch" if recorded else "not recorded",
        "rounds": [
            {"traced": r["traced"], "wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
             "cycles": r["result"].cycles, "fingerprint": r["result"].fingerprint}
            for r in rounds.records
        ],
        "setup_samples_s": setup_samples,
        "problems": problems,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    if identity_gap is not None:
        report["self_time_identity_gap_s"] = identity_gap
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    _print_report(report, why.get(args.workload, ""))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


def _print_report(report, why: str) -> None:
    host = report["host"]
    print(f"perfbench {report['workload']} seed={report['seed']}"
          f" trace={report['trace']}: {why}")
    print(f"host: {host['cpu_count']} cpus, python {host['python']},"
          f" numpy {host['numpy']}, {host['platform']},"
          f" commit {host['commit'] or '-'}, source {host['source_digest'][:12]},"
          f" load {host['loadavg_start'][0]:.2f} -> {host['loadavg_end'][0]:.2f}")
    for index, r in enumerate(report["rounds"]):
        print(f"round {index}: {'traced' if r['traced'] else 'untraced'}"
              f" {r['wall_s']:.3f} s wall, {r['cpu_s']:.3f} s cpu,"
              f" {r['cycles']} cycles, {r['fingerprint']}")
    print(f"outputs: fingerprint {report['fingerprint']},"
          f" expected {report['expected']}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for name, metric in report["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if "self_time_identity_gap_s" in report:
        print(f"  layer self times + residual - total ="
              f" {report['self_time_identity_gap_s']:.3g} s")


if __name__ == "__main__":
    sys.exit(main())
