"""Whole-trace supply advance: the one supply fast path.

The scalar simulation advances one cycle at a time through
``PowerSupply.step``.  This module advances *whole traces* per call:

* :func:`run_supply` -- the Heun recurrence of ``power/integrator.py``
  with every per-cycle attribute lookup hoisted out of the loop, plus a
  vectorized post-pass for the violation bookkeeping.  The recurrence is
  serial in time (each cycle's state feeds the next), so it cannot be
  time-vectorized without changing float rounding; the win here is pure
  interpreter overhead removal, and the result is **bit-identical** to
  ``PowerSupply.step`` cycle by cycle.
* :func:`run_supply_batch` -- the same recurrence advanced for several
  independent traces (sweep lanes) at once with NumPy elementwise ops.
  IEEE-754 elementwise arithmetic matches scalar arithmetic exactly, so
  every lane is bit-identical to its own scalar run.  It is slower than
  per-lane :func:`run_supply` and the sweep runner does not use it.

``PowerSupply.step`` stays the oracle: a supply whose class is not exactly
:class:`~repro.power.PowerSupply` (an overlay, or a no-op subclass in the
differential tests) always takes the per-cycle loop.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import FaultError, SimulationError

__all__ = [
    "run_supply",
    "run_supply_batch",
]


def run_supply(supply, currents) -> np.ndarray:
    """Advance a ``PowerSupply`` over a whole current trace, bit-exactly.

    Equivalent to ``[supply.step(c) for c in currents]`` -- same voltages
    to the last bit, same violation bookkeeping, same trace recording,
    same ``FaultError``/``SimulationError`` at the same cycle with the
    supply state advanced exactly as far as the scalar loop would have
    advanced it -- but with the integrator locals hoisted out of the
    per-cycle loop and the violation statistics computed vectorized.
    Returns the voltage waveform.
    """
    arr = np.asarray(currents, dtype=float)
    currents = arr.tolist()
    n_cycles = len(currents)
    integrator = supply._integrator
    state = integrator.state
    v = state.voltage
    i_l = state.inductor_current
    dt, inv_c, inv_l, r, substeps = integrator.coefficients()
    half_dt = 0.5 * dt

    # Common case: all inputs finite and the integration stays finite.
    # Run the recurrence with no per-cycle checks, then verify the whole
    # voltage waveform at once; on the rare non-finite input or
    # divergence, discard and replay with the per-cycle checked loop
    # from the untouched starting state so the error lands at the exact
    # scalar cycle.  (Identical arithmetic either way: float ops are
    # deterministic, and garbage computed past a divergence is thrown
    # away.)
    if n_cycles and bool(np.isfinite(arr).all()):
        volts: List[float] = []
        append = volts.append
        if substeps == 1:
            for u in currents:
                dv1 = (i_l - u) * inv_c
                di1 = (-v - r * i_l) * inv_l
                v_pred = v + dt * dv1
                i_pred = i_l + dt * di1
                dv2 = (i_pred - u) * inv_c
                di2 = (-v_pred - r * i_pred) * inv_l
                v = v + half_dt * (dv1 + dv2)
                i_l = i_l + half_dt * (di1 + di2)
                append(v + r * u)
        else:
            for u in currents:
                for _ in range(substeps):
                    dv1 = (i_l - u) * inv_c
                    di1 = (-v - r * i_l) * inv_l
                    v_pred = v + dt * dv1
                    i_pred = i_l + dt * di1
                    dv2 = (i_pred - u) * inv_c
                    di2 = (-v_pred - r * i_pred) * inv_l
                    v = v + half_dt * (dv1 + dv2)
                    i_l = i_l + half_dt * (di1 + di2)
                append(v + r * u)
        volts_arr = np.asarray(volts)
        if bool(np.isfinite(volts_arr).all()):
            _writeback_supply(supply, currents, volts, v, i_l, None)
            return volts_arr
        v = state.voltage
        i_l = state.inductor_current

    start = supply.cycle
    isfinite = math.isfinite
    volts = []
    append = volts.append
    error: Optional[Exception] = None
    for u in currents:
        if not isfinite(u):
            error = FaultError(
                f"non-finite CPU current {u!r} at cycle "
                f"{start + len(volts)}"
            )
            break
        for _ in range(substeps):
            dv1 = (i_l - u) * inv_c
            di1 = (-v - r * i_l) * inv_l
            v_pred = v + dt * dv1
            i_pred = i_l + dt * di1
            dv2 = (i_pred - u) * inv_c
            di2 = (-v_pred - r * i_pred) * inv_l
            v = v + half_dt * (dv1 + dv2)
            i_l = i_l + half_dt * (di1 + di2)
        voltage = v + r * u
        if not isfinite(voltage):
            error = SimulationError(
                f"power-supply voltage diverged ({voltage!r}) at cycle"
                f" {start + len(volts)}; integrator state is no longer"
                " trustworthy"
            )
            break
        append(voltage)

    _writeback_supply(supply, currents, volts, v, i_l, error)
    if error is not None:
        raise error
    return np.asarray(volts)


def _writeback_supply(supply, currents, volts, v, i_l, error) -> None:
    """Apply a kernel advance's effects back onto the supply object.

    ``volts`` holds the completed cycles only; on an error the state is
    written back exactly as the scalar loop leaves it at the failing
    cycle (``FaultError`` precedes the integrator update for that cycle,
    a divergence ``SimulationError`` follows it -- the caller passes the
    matching ``v``/``i_l``).
    """
    n_done = len(volts)
    state = supply._integrator.state
    state.voltage = v
    state.inductor_current = i_l
    if n_done:
        volts_arr = np.asarray(volts)
        violated = np.abs(volts_arr) > supply._margin
        previous = np.empty_like(violated)
        previous[0] = supply._in_violation
        previous[1:] = violated[:-1]
        supply.violation_cycles += int(np.count_nonzero(violated))
        supply.violation_events += int(np.count_nonzero(violated & ~previous))
        if supply.first_violation_cycle is None and violated.any():
            supply.first_violation_cycle = supply.cycle + int(
                np.argmax(violated)
            )
        supply._in_violation = bool(violated[-1])
        supply.last_voltage = volts[-1]
        if supply._record:
            trace = supply.trace
            trace.currents.extend(currents[:n_done])
            trace.voltages.extend(volts)
            trace.violations.extend(bool(flag) for flag in violated)
    supply.cycle += n_done


def run_supply_batch(
    supplies: Sequence, currents: Sequence
) -> List[Union[np.ndarray, Exception]]:
    """Advance several independent supplies over equal-length traces.

    Lanes are stacked ``(cycles, lanes)`` and advanced with elementwise
    NumPy ops -- IEEE-identical per lane to that lane's scalar run.  A
    lane whose inputs are non-finite, whose integration diverges, or
    whose ``substeps`` differs from the group is replayed through
    :func:`run_supply` on its own (reproducing the scalar error at the
    exact cycle); its entry in the returned list is the raised exception
    instead of the voltage array.
    """
    n_lanes = len(supplies)
    if n_lanes != len(currents):
        raise SimulationError("one current trace per supply lane required")
    if n_lanes == 0:
        return []
    traces = [np.ascontiguousarray(c, dtype=float) for c in currents]
    n_cycles = traces[0].shape[0]
    if any(t.shape != (n_cycles,) for t in traces):
        raise SimulationError("batched supply lanes must share a trace length")

    results: List[Union[np.ndarray, Exception, None]] = [None] * n_lanes

    def scalar_lane(lane: int) -> None:
        try:
            results[lane] = run_supply(supplies[lane], traces[lane])
        except (FaultError, SimulationError) as exc:
            results[lane] = exc

    # Group batchable lanes by substep count; degrade odd lanes to the
    # scalar kernel (still far faster than per-cycle ``step`` calls).
    groups: dict = {}
    for lane, (supply, trace) in enumerate(zip(supplies, traces)):
        if not np.isfinite(trace).all():
            scalar_lane(lane)
            continue
        groups.setdefault(supply._integrator.substeps, []).append(lane)

    for substeps, lanes in groups.items():
        if len(lanes) == 1 or n_cycles == 0:
            for lane in lanes:
                scalar_lane(lane)
            continue
        stacked = np.column_stack([traces[lane] for lane in lanes])
        integrators = [supplies[lane]._integrator for lane in lanes]
        coeffs = [i.coefficients() for i in integrators]
        v = np.array([i.state.voltage for i in integrators])
        i_l = np.array([i.state.inductor_current for i in integrators])
        dt = np.array([c[0] for c in coeffs])
        inv_c = np.array([c[1] for c in coeffs])
        inv_l = np.array([c[2] for c in coeffs])
        r = np.array([c[3] for c in coeffs])
        half_dt = 0.5 * dt
        volts = np.empty((n_cycles, len(lanes)), dtype=float)
        with np.errstate(all="ignore"):
            for t in range(n_cycles):
                u = stacked[t]
                for _ in range(substeps):
                    dv1 = (i_l - u) * inv_c
                    di1 = (-v - r * i_l) * inv_l
                    v_pred = v + dt * dv1
                    i_pred = i_l + dt * di1
                    dv2 = (i_pred - u) * inv_c
                    di2 = (-v_pred - r * i_pred) * inv_l
                    v = v + half_dt * (dv1 + dv2)
                    i_l = i_l + half_dt * (di1 + di2)
                volts[t] = v + r * u
        finite_lane = np.isfinite(volts).all(axis=0)
        for column, lane in enumerate(lanes):
            if not finite_lane[column]:
                # Replay scalar from the untouched supply state so the
                # divergence error lands at the exact scalar cycle.
                scalar_lane(lane)
                continue
            lane_volts = volts[:, column].tolist()
            _writeback_supply(
                supplies[lane], traces[lane].tolist(), lane_volts,
                float(v[column]), float(i_l[column]), None,
            )
            results[lane] = volts[:, column].copy()

    return results  # type: ignore[return-value]
