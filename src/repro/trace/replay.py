"""Replay a recorded current trace through the supply stage.

:class:`ReplaySimulation` is a :class:`~repro.sim.simulation.Simulation`
whose "processor" is a stub that deals out the recorded per-cycle currents
and re-derives the energy accounting, skipping the uarch pipeline (the
dominant cost of a run) entirely.  Everything downstream -- the supply
recurrence, violation tracking, metrics harvesting -- is the *real*
simulation code, including the whole-trace supply fast path, so a
replayed result is bit-identical to a full run of the same front end.

Replay is only sound for the base processor (:class:`NullController`):
the recorded trace embeds the controller's effect on the processor, so a
controller that reacts to what it observes needs the pipeline in the
loop.  :func:`schedule_token` is the gate -- ``None`` means "this
controller cannot replay", anything else names the schedule inside the
store key.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.controller import NoiseController, NullController
from repro.errors import TraceStoreError
from repro.power.supply import PowerSupply
from repro.sim.simulation import Simulation
from repro.trace.store import TracePayload

__all__ = ["ReplayFrontEnd", "ReplaySimulation", "schedule_token"]


def schedule_token(controller: Optional[NoiseController]) -> Optional[str]:
    """Name the controller's directive schedule, or ``None`` if unreplayable.

    ``NullController`` (every base cell) is the ``"null"`` schedule.  Every
    other controller closes a feedback loop, returns ``None`` and always
    runs the full simulation.
    """
    if controller is None or type(controller) is NullController:
        return "null"
    return None


class ReplayFrontEnd:
    """Stand-in for :class:`~repro.uarch.processor.Processor` during replay.

    Re-derives the energy ledger from the recorded currents with the exact
    accumulation the power model uses (``energy += amps * vdd *
    cycle_seconds``, in trace order, from zero), so the ledger is
    bit-identical for *any* supply the replay attaches -- recorded traces
    are supply-independent and one record serves every RLC variant.
    Committed-instruction counts are integers carried verbatim in the
    payload; phantom energy is identically zero (captures with phantom
    energy are never recorded, see :class:`~repro.trace.store.TraceCapture`).
    """

    def __init__(self, payload: TracePayload):
        self.payload = payload
        self._vdd = 1.0
        self._cycle_seconds = 1e-10
        self.total_energy_joules = 0.0
        self.committed_instructions = 0
        self.phantom_energy_joules = 0.0

    @property
    def power(self) -> "ReplayFrontEnd":
        # Simulation only uses processor.power for attach_supply.
        return self

    def attach_supply(self, vdd_volts: float, cycle_seconds: float) -> None:
        self._vdd = vdd_volts
        self._cycle_seconds = cycle_seconds

    def _accumulate(self, currents: List[float]) -> None:
        energy = self.total_energy_joules
        vdd = self._vdd
        cycle_seconds = self._cycle_seconds
        for amps in currents:
            energy += amps * vdd * cycle_seconds
        self.total_energy_joules = energy

    def advance_to_boundary(self) -> None:
        payload = self.payload
        self._accumulate(payload.currents[:payload.warmup_cycles])
        self.committed_instructions = payload.instructions_warmup

    def advance_to_end(self) -> None:
        payload = self.payload
        self._accumulate(payload.currents[payload.warmup_cycles:])
        self.committed_instructions = payload.instructions_total


class ReplaySimulation(Simulation):
    """Feed a recorded trace to the supply stage, bit-exactly.

    A plain :class:`PowerSupply` takes ``run_supply`` exactly as a full
    simulation would, while supply subclasses (e.g. a
    :class:`~repro.faults.attacker.ResonantAttacker` wrap) use a
    per-cycle loop that mirrors ``Simulation._scalar_cycle_loop`` minus
    the processor step.  Errors the supply would raise mid-run
    (:class:`~repro.errors.FaultError` guards, overlay faults) surface at
    the same cycle as in a full run.
    """

    def __init__(
        self,
        payload: TracePayload,
        supply: PowerSupply,
        controller: Optional[NoiseController] = None,
        record: bool = False,
        benchmark: str = "workload",
    ):
        super().__init__(
            ReplayFrontEnd(payload),
            supply,
            controller=controller,
            record=record,
            benchmark=benchmark,
            warmup_cycles=payload.warmup_cycles,
        )
        self._payload = payload
        if schedule_token(self.controller) is None:
            raise TraceStoreError(
                f"controller {self.controller.name!r} closes a feedback "
                f"loop; it cannot replay a recorded trace"
            )

    def run(self, n_cycles: int):
        if n_cycles != self._payload.n_cycles:
            raise TraceStoreError(
                f"recorded trace covers {self._payload.n_cycles} measured "
                f"cycles; asked to replay {n_cycles}"
            )
        return super().run(n_cycles)

    # -- kernel fast path: the collect stage reads the payload instead of
    # stepping the pipeline; _kernel_advance_supply/_kernel_boundary/
    # _kernel_record/_assemble_result are inherited unchanged.
    def _kernel_collect(self, n_cycles: int):
        front_end = self.processor
        front_end.advance_to_boundary()
        snapshot = self._snapshot()
        front_end.advance_to_end()
        return self._payload.currents, snapshot

    # -- scalar path: a supply subclass (overlay).  The controller is a
    # NullController, whose observe is a no-op, so it is not called.
    def _scalar_cycle_loop(self, n_cycles: int) -> dict:
        front_end = self.processor
        supply = self.supply
        currents = self._payload.currents
        record = self.record
        warmup = self.warmup_cycles
        snapshot = self._snapshot()
        for cycle in range(warmup + n_cycles):
            if cycle == warmup:
                reset_tracking = getattr(
                    supply, "reset_violation_tracking", None
                )
                if reset_tracking is not None:
                    reset_tracking()
                front_end.advance_to_boundary()
                snapshot = self._snapshot()
            amps = currents[cycle]
            voltage = supply.step(amps)
            if record and cycle >= warmup:
                self.currents.append(amps)
                self.voltages.append(voltage)
        front_end.advance_to_end()
        return snapshot
