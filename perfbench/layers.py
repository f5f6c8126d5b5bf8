"""Per-layer spans for the traced benchmark run.

The wrappers here are patched onto the program's public per-cycle entry
points (classes and module attributes) for a traced round only, and taken
off again afterwards; the program itself is not edited.  Each wrapper is a
span: it measures its call with ``time.perf_counter`` and charges the
duration, minus the time its child spans covered, to its layer.  So within
one process the layer self times add up exactly to the time covered by
outermost spans, and the benchmark reports the rest of the round's wall
time as the residual.

Pool workers are forked from the benchmark process after the patches are
in place, so they run the same wrappers.  A worker's totals reach the
parent through the program's own metrics registry (``repro.obs``): at the
end of every outermost span the worker adds its deltas to one counter,
which the sweep pool ships back with each cell result and merges.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Tuple

#: Counter the pool workers use to ship their layer totals to the parent.
SHIP_COUNTER = "perfbench_layer_total"

_POWER_MODEL_METHODS = (
    "add_dispatch", "add_issue", "add_cache_access", "add_commit",
    "add_occupancy", "preview_current", "end_cycle",
)


class LayerClock:
    """Accumulates span self time and counts, keyed ``<layer>.<stat>``."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self.active = True
        self._owner_pid = os.getpid()
        self._stack: List[float] = []
        self._shipped: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object]] = []
        # A worker forks mid-span: it must start from no open spans and no
        # totals, or it would never ship and would re-ship the parent's.
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _forget(ref))

    # -- spans ----------------------------------------------------------
    def span(self, layer, fn: Callable, after=None, before=None) -> Callable:
        """Wrap ``fn`` as a span of ``layer``.

        ``layer`` is a name or a function of the call's first argument
        (the instance) returning one.  ``after(totals, args, result,
        token)`` runs once the span has closed, to harvest counts;
        ``token`` is what ``before(totals)`` returned at entry, if given.
        """
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter
        pick = layer if callable(layer) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            name = pick(args[0]) if pick is not None else layer
            token = before(totals) if before is not None else None
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                totals[name + ".self_s"] += elapsed - children
                totals[name + ".calls"] += 1
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(totals, args, result, token)
            if not stack:
                self._ship()
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block untraced (bookkeeping the benchmark adds itself)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _ship(self) -> None:
        """In a pool worker, hand new totals to the metrics registry."""
        if os.getpid() == self._owner_pid:
            return
        from repro.obs import active_registry

        registry = active_registry()
        if registry is None:
            return
        counter = registry.counter(SHIP_COUNTER)
        for key, value in self.totals.items():
            delta = value - self._shipped.get(key, 0.0)
            if delta:
                counter.inc(delta, labels={"key": key})
                self._shipped[key] = value

    def absorb(self, registry) -> Dict[str, float]:
        """Totals the pool workers shipped into ``registry``."""
        shipped: Dict[str, float] = defaultdict(float)
        if registry is None:
            return shipped
        for labels, value in registry.counter(SHIP_COUNTER).samples():
            shipped[dict(labels)["key"]] += value
        return shipped

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, name: str, layer, after=None, before=None) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, self.span(layer, original, after, before))

    def install(self) -> None:
        """Patch every layer boundary; :meth:`uninstall` undoes it."""
        from repro.baselines.convolution import ConvolutionController
        from repro.baselines.damping import PipelineDampingController
        from repro.baselines.voltage_threshold import VoltageThresholdController
        from repro.core import kernel
        from repro.core.detector import ResonanceDetector
        from repro.core.sensor import CurrentSensor
        from repro.core.tuning import ResonanceTuningController
        from repro.power.supply import PowerSupply
        from repro.sim import backends, simulation
        from repro.sim.runner import BenchmarkRunner
        from repro.trace.replay import ReplaySimulation
        from repro.trace.store import TraceStore
        from repro.uarch import processor
        from repro.uarch.power_model import PowerModel

        self._patch(processor, "generate_trace", "uarch.trace")
        self._patch(processor.Processor, "step", "uarch.pipeline")
        for method in _POWER_MODEL_METHODS:
            self._patch(PowerModel, method, "uarch.power_model")
        self._patch(CurrentSensor, "read", "core.sensor")
        self._patch(ResonanceDetector, "observe", "core.detector",
                    after=_count_event)
        for controller in (
            ResonanceTuningController, VoltageThresholdController,
            PipelineDampingController, ConvolutionController,
        ):
            self._patch(controller, "directives", "controller")
            self._patch(controller, "observe", "controller")
        self._patch(PowerSupply, "step", "power.supply")
        self._patch(kernel, "run_supply", "core.kernel")
        self._patch(kernel, "run_supply_batch", "core.kernel")
        self._patch(TraceStore, "load", "trace.store.load",
                    after=_count_load)
        self._patch(TraceStore, "save", "trace.store.save")
        # A replay is a Simulation subclass whose run ends in
        # Simulation.run, so one wrapper serves both layers.
        self._patch(
            simulation.Simulation, "run",
            lambda sim: (
                "trace.replay" if isinstance(sim, ReplaySimulation)
                else "sim.simulation"
            ),
            after=_harvest_controller,
        )
        self._patch(ReplaySimulation, "run", "trace.replay")
        self._patch(simulation, "run_batch", "sim.simulation")
        self._patch(BenchmarkRunner, "sweep", "sim.runner")
        self._patch(BenchmarkRunner, "run_base", "sim.runner",
                    after=_count_base_lookup,
                    before=lambda totals: totals["sim.runs"])
        self._patch(backends.SequentialBackend, "execute", "sim.backends")
        self._patch(backends.ProcessPoolBackend, "execute", "sim.backends")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def _forget(ref) -> None:
    clock = ref()
    if clock is not None:
        clock.totals.clear()
        clock._stack.clear()
        clock._shipped.clear()


# -- count harvesting (run after a span closes) -----------------------------
def _count_event(totals, args, event, token) -> None:
    if event is not None:
        totals["core.detector.events"] += 1


def _count_load(totals, args, payload, token) -> None:
    totals["trace.store.hits" if payload is not None
           else "trace.store.misses"] += 1


def _count_base_lookup(totals, args, result, runs_before) -> None:
    # run_base either serves its cache or runs exactly one simulation,
    # and every simulation ends in a Simulation.run span.
    totals["sim.runner.base_lookups"] += 1
    if totals["sim.runs"] == runs_before:
        totals["sim.runner.base_hits"] += 1


def _harvest_controller(totals, args, result, token) -> None:
    totals["sim.runs"] += 1
    controller = args[0].controller
    detector = getattr(controller, "detector", None)
    if detector is not None:
        totals["core.detector.comparisons"] += detector.comparisons
    for level in ("first", "second"):
        engagements = getattr(controller, f"{level}_level_engagements", None)
        if engagements is not None:
            totals[f"controller.{level}_level_engagements"] += engagements
