"""The benchmark's workloads: grids derived from a seed, run through the
program's public API (``BenchmarkRunner.sweep`` / ``run_base``,
``TraceStore`` and the ``repro.cli`` controller builders).

Every workload is a closed loop: one client submits a sweep and waits for
it to finish before submitting the next.  A *round* runs a workload's
whole grid once, from cold caches and an empty trace store; the benchmark
repeats rounds for the length of a run.

Grids mix fixed traces of each application -- its paper-default trace
(seed ``None``, the cell behind Tables 3-5) and one or two more -- with a
trace derived from ``--seed``.  A run's base violations vary by about 30%
from one trace to the next, so the fixed traces keep the simulated metrics
of different seeds comparable; the derived one makes every seed a
different input.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import shutil
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cli import (
    _build_convolution,
    _build_damping,
    _build_tuning,
    _build_voltage_threshold,
)
from repro.config import TABLE1_SUPPLY, TuningConfig
from repro.sim.runner import BenchmarkRunner, ResilienceConfig, SweepConfig
from repro.trace import TraceStore

WARMUP_CYCLES = 2_000

#: Violating (bzip, lucas) and clean (gzip, eon) applications of Table 2;
#: bzip and lucas give the most base violations at Table 1.
CLOSED_LOOP_APPS = ("bzip", "lucas", "gzip", "eon")
#: bzip's and lucas's violations start after about 6000 cycles.
CLOSED_LOOP_CYCLES = 8_000

#: Trace seeds every grid holds, whatever the workload seed.
ANCHOR_SEEDS = (None, 1000)
#: parallel_sweep's wider grid adds one more fixed trace.
PARALLEL_ANCHOR_SEEDS = (None, 1000, 2000)

#: Front ends recorded once and replayed on every supply variant.
SUPPLY_APPS = ("bzip", "gzip")
SUPPLY_CYCLES = 10_000
#: Decoupling capacitance (nF) x package inductance (pH) around Table 1's
#: 1500 nF / 1.69 pH: 64 variants, so 2 x 3 recordings serve 378 replays
#: and replay, not recording, takes most of a round.
SUPPLY_CAPACITANCE_NF = (900.0, 1100.0, 1300.0, 1500.0, 1700.0, 1900.0,
                         2100.0, 2300.0)
SUPPLY_INDUCTANCE_PH = (1.2, 1.4, 1.55, 1.69, 1.85, 2.0, 2.2, 2.4)

PARALLEL_WORKERS = 2

Cell = Tuple[str, Optional[int]]


def techniques() -> List[Tuple[str, Callable]]:
    """The four paper techniques at their paper defaults."""
    return [
        ("tuning", functools.partial(
            _build_tuning, tuning=TuningConfig(initial_response_time=100))),
        ("voltage-threshold", functools.partial(
            _build_voltage_threshold, threshold_volts=30e-3,
            noise_volts=0.0, delay_cycles=0)),
        ("damping", functools.partial(_build_damping, delta_amps=13.0)),
        ("convolution", functools.partial(
            _build_convolution, estimate_gain=1.0)),
    ]


def grid_seeds(seed: int, anchors=ANCHOR_SEEDS) -> List[Optional[int]]:
    """The anchor trace seeds plus one drawn from the workload seed."""
    return list(anchors) + [random.Random(f"perfbench:{seed}").randrange(1, 2**31)]


def supply_variants() -> List[Tuple[str, object]]:
    return [
        (f"C{c:g}nF-L{l:g}pH", dataclasses.replace(
            TABLE1_SUPPLY,
            capacitance_farads=c * 1e-9,
            inductance_henries=l * 1e-12,
        ))
        for c in SUPPLY_CAPACITANCE_NF
        for l in SUPPLY_INDUCTANCE_PH
    ]


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def _canonical(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def digest(obj) -> str:
    """64-bit SHA-256 prefix of ``obj``, floats written exactly (``float.hex``)."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    elif isinstance(obj, (list, tuple)):
        obj = [dataclasses.asdict(o) if dataclasses.is_dataclass(o) else o
               for o in obj]
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Round:
    """What one round of a workload produced."""

    parts: Dict[str, str]
    cycles: int
    cells: int
    failed: int
    avg_slowdown: float
    violation_cycles: int
    problems: List[str]
    #: cells each fingerprint part covers
    part_cells: Dict[str, int] = dataclasses.field(default_factory=dict)
    summaries: list = dataclasses.field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        return digest(self.parts)


def _check_summary(summary, grid: Sequence[Cell], n_cycles: int) -> List[str]:
    """Internal consistency of one sweep summary."""
    problems = []
    rows = summary.per_benchmark
    if len(rows) + len(summary.failures) != len(grid):
        problems.append(
            f"{summary.technique}: {len(rows)} rows + {len(summary.failures)}"
            f" failures for a {len(grid)}-cell grid")
    if not summary.failures and [r.benchmark for r in rows] != [b for b, _ in grid]:
        problems.append(f"{summary.technique}: rows out of grid order")
    if rows:
        mean = sum(r.slowdown for r in rows) / len(rows)
        if not math.isclose(mean, summary.avg_slowdown, rel_tol=1e-12):
            problems.append(f"{summary.technique}: avg_slowdown {summary.avg_slowdown}"
                            f" != row mean {mean}")
        total = sum(round(r.violation_fraction * n_cycles) for r in rows)
        if total != summary.total_violation_cycles:
            problems.append(f"{summary.technique}: violation total mismatch")
    return problems


def _sweep_round(runner: BenchmarkRunner, apps, seeds,
                 resilience: ResilienceConfig, n_cycles: int) -> Round:
    grid = [(a, s) for a in apps for s in seeds]
    summaries = []
    for _name, factory in techniques():
        summaries.append(runner.sweep(
            factory, benchmarks=list(apps), seeds=list(seeds),
            resilience=resilience,
        ))
    parts = {f"sweep.{s.technique}": digest(s) for s in summaries}
    problems: List[str] = []
    for summary in summaries:
        problems += _check_summary(summary, grid, n_cycles)
    failed = sum(len(s.failures) for s in summaries)
    # Base violations come from the rows (every row carries its base run's
    # fraction); the first sweep covers each (app, seed) once.
    base_violations = sum(
        round(r.base_violation_fraction * n_cycles)
        for r in summaries[0].per_benchmark
    )
    return Round(
        parts=parts,
        cycles=len(grid) * (1 + len(summaries)) * (n_cycles + WARMUP_CYCLES),
        cells=len(grid) * len(summaries),
        failed=failed,
        avg_slowdown=sum(s.avg_slowdown for s in summaries) / len(summaries),
        violation_cycles=base_violations
        + sum(s.total_violation_cycles for s in summaries),
        problems=problems,
        part_cells={part: len(grid) for part in parts},
        summaries=summaries,
    )


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Build what a round builds before its first cycle (set-up)."""
        raise NotImplementedError

    def run_round(self, untraced: Callable) -> Round:
        """Run the grid once; ``untraced`` pauses layer spans."""
        raise NotImplementedError

    def spot_check(self, last: Round) -> List[str]:
        """Recompute part of the last round another way; [] if it agrees."""
        return []


class ClosedLoop(Workload):
    name = "closed_loop"

    def grid(self):
        return CLOSED_LOOP_APPS, grid_seeds(self.seed)

    def config(self) -> SweepConfig:
        return SweepConfig(n_cycles=CLOSED_LOOP_CYCLES,
                           warmup_cycles=WARMUP_CYCLES)

    def prepare(self) -> None:
        config = self.config()
        for _name, factory in techniques():
            factory(config.supply, config.processor)
        BenchmarkRunner(config).close()

    def run_round(self, untraced) -> Round:
        apps, seeds = self.grid()
        with BenchmarkRunner(self.config(), max_base_cache_entries=64) as runner:
            result = _sweep_round(runner, apps, seeds,
                                  ResilienceConfig(), CLOSED_LOOP_CYCLES)
            with untraced():
                bases = [runner.run_base(a, seed=s) for a in apps for s in seeds]
        result.parts["base"] = digest(bases)
        result.part_cells["base"] = len(bases)
        return result


class ParallelSweep(ClosedLoop):
    name = "parallel_sweep"

    def grid(self):
        return CLOSED_LOOP_APPS, grid_seeds(self.seed, PARALLEL_ANCHOR_SEEDS)

    def resilience(self, workers: int = PARALLEL_WORKERS) -> ResilienceConfig:
        path = os.path.join(self.workdir, "checkpoint.json")
        for leftover in (path, path + ".summary.json"):
            if os.path.exists(leftover):
                os.remove(leftover)
        return ResilienceConfig(workers=workers, checkpoint_path=path)

    def run_round(self, untraced) -> Round:
        apps, seeds = self.grid()
        with BenchmarkRunner(self.config()) as runner:
            return _sweep_round(runner, apps, seeds, self.resilience(),
                                CLOSED_LOOP_CYCLES)

    def sequential_round(self) -> Round:
        """The same grid on the sequential backend (for the expected outputs)."""
        apps, seeds = self.grid()
        with BenchmarkRunner(self.config()) as runner:
            return _sweep_round(runner, apps, seeds, self.resilience(1),
                                CLOSED_LOOP_CYCLES)

    def spot_check(self, last: Round) -> List[str]:
        # One pool-computed cell, recomputed in this process.
        apps, seeds = self.grid()
        rng = random.Random(f"spot:{self.seed}")
        index = rng.randrange(len(apps) * len(seeds))
        app, seed = apps[index // len(seeds)], seeds[index % len(seeds)]
        technique = rng.randrange(len(last.summaries))
        _name, factory = techniques()[technique]
        summary = last.summaries[technique]
        with BenchmarkRunner(self.config()) as runner:
            again = runner.compare(app, factory, seed=seed)
        if summary.per_benchmark[index] != again:
            return [f"pool cell {app}/{summary.technique}/{seed} differs from"
                    f" an in-process run"]
        return []


class SupplyDesignSpace(Workload):
    name = "supply_design_space"

    def grid(self):
        return SUPPLY_APPS, grid_seeds(self.seed)

    def _runner(self, supply, store) -> BenchmarkRunner:
        return BenchmarkRunner(
            SweepConfig(n_cycles=SUPPLY_CYCLES, warmup_cycles=WARMUP_CYCLES,
                        supply=supply),
            trace_store=store,
        )

    def prepare(self) -> None:
        store = TraceStore(os.path.join(self.workdir, "trace-store-probe"))
        for _label, supply in supply_variants():
            self._runner(supply, store).close()

    def run_round(self, untraced) -> Round:
        apps, seeds = self.grid()
        root = os.path.join(self.workdir, "trace-store")
        shutil.rmtree(root, ignore_errors=True)
        store = TraceStore(root)
        parts: Dict[str, str] = {}
        violations = 0
        variants = supply_variants()
        self._last_results = {}
        for label, supply in variants:
            with self._runner(supply, store) as runner:
                results = [runner.run_base(a, seed=s) for a in apps for s in seeds]
            self._last_results[label] = results
            parts[f"base.{label}"] = digest(results)
            violations += sum(r.violation_cycles for r in results)
        problems = []
        stats = dict(store.stats)
        if stats.get("misses", 0) * 8 > stats.get("hits", 0):
            problems.append(f"replays do not outnumber recordings 8:1: {stats}")
        n_cells = len(variants) * len(apps) * len(seeds)
        return Round(
            parts=parts,
            cycles=n_cells * (SUPPLY_CYCLES + WARMUP_CYCLES),
            cells=n_cells,
            failed=0,
            avg_slowdown=1.0,
            violation_cycles=violations,
            problems=problems,
            part_cells={part: len(apps) * len(seeds) for part in parts},
        )

    def spot_check(self, last: Round) -> List[str]:
        # One replayed cell, recomputed by a full simulation without a store.
        apps, seeds = self.grid()
        variants = supply_variants()
        rng = random.Random(f"spot:{self.seed}")
        # Variant 0's cells were recorded; every later one replayed.
        label, supply = variants[rng.randrange(1, len(variants))]
        index = rng.randrange(len(apps) * len(seeds))
        app, seed = apps[index // len(seeds)], seeds[index % len(seeds)]
        with self._runner(supply, None) as runner:
            again = runner.run_base(app, seed=seed)
        if digest(again) != digest(self._last_results[label][index]):
            return [f"replayed cell {app}/{seed}/{label} differs from a full"
                    f" simulation"]
        return []


WORKLOADS = {w.name: w for w in (ClosedLoop, SupplyDesignSpace, ParallelSweep)}
