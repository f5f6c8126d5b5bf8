"""The resonance-tuning controller: two-tier prevention (Section 3.2).

First-level response (gentle): when a new resonant event arrives with a
resonant event count at or above the *initial response threshold*, reduce
the issue width (8 to 4) and the cache ports (2 to 1) for the *initial
response time*.  Lowering the rate instructions move through the pipeline
lowers the frequency of current variations, steering them out of the
resonance band.

Second-level response (brute force): when the count reaches one below the
*maximum repetition tolerance*, stall the frontend and issue while holding
the current at a medium level with phantom operations.  Both halves matter:
without the stall the variation frequency might not change, and without the
phantom current the stall edge itself would be a large variation.  The
response stays engaged for at least the second-level response time *and*
until the resonant event count has decreased (Section 3.2's guarantee).

An optional sensing/actuation delay shifts both responses later; Section 5.2
shows delays up to a quarter resonant period cost little.

A *watchdog* bounds each second-level engagement: the normal release needs
the resonant event count to decrease, which a faulted sensor (stuck-at, or
one entrained by an external resonant attacker the stall cannot quiet) may
never report.  After ``second_level_watchdog_cycles`` of continuous hold the
response is force-released and re-engagement locked out for one response
time, degrading a would-be permanent stall into a bounded duty cycle.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.config import PowerSupplyConfig, ProcessorConfig, TuningConfig
from repro.core.controller import NoiseController
from repro.core.detector import ResonanceDetector
from repro.core.sensor import CurrentSensor
from repro.power.rlc import RLCAnalysis
from repro.uarch.pipeline import ControlDirectives, NO_CONTROL

__all__ = ["ResonanceTuningController"]

_FIRST = 1
_SECOND = 2


class ResonanceTuningController(NoiseController):
    """Detect nascent resonance and tune its frequency away from the band."""

    name = "resonance-tuning"

    def __init__(
        self,
        supply_config: PowerSupplyConfig,
        processor_config: ProcessorConfig,
        tuning_config: Optional[TuningConfig] = None,
        sensor: Optional[CurrentSensor] = None,
        detector: Optional[ResonanceDetector] = None,
        enable_first_level: bool = True,
        enable_second_level: bool = True,
    ):
        self.supply_config = supply_config
        self.processor_config = processor_config
        self.tuning = tuning_config or TuningConfig()
        #: ablation switches: the paper's design uses both tiers; disabling
        #: one shows why (first-only loses the guarantee, second-only pays
        #: the harsh response for every nascent resonance)
        self.enable_first_level = enable_first_level
        self.enable_second_level = enable_second_level
        self.sensor = sensor or CurrentSensor()
        if detector is None:
            band = RLCAnalysis(supply_config).band
            detector = ResonanceDetector(
                half_periods=band.half_periods,
                threshold_amps=self.tuning.resonant_current_threshold_amps,
                max_repetition_tolerance=self.tuning.max_repetition_tolerance,
            )
        self.detector = detector

        self._first_directives = ControlDirectives(
            issue_width_limit=self.tuning.reduced_issue_width,
            cache_ports_limit=self.tuning.reduced_cache_ports,
        )
        self._second_directives = ControlDirectives(
            stall_issue=True,
            stall_fetch=True,
            current_floor_amps=processor_config.medium_current_amps,
        )

        self._pending: List[Tuple[int, int]] = []  # (activation cycle, level)
        self._first_until = -1
        self._second_active = False
        self._second_min_until = -1
        self._second_engaged_at = -1
        self._second_entry_count = 0
        self._watchdog_lockout_until = -1

        self.watchdog_hold_cycles = (
            self.tuning.second_level_watchdog_cycles
            if self.tuning.second_level_watchdog_cycles is not None
            else 8 * self.tuning.second_level_response_time
        )
        # Per-cycle constants.  A disabled tier gets a threshold no chain
        # count reaches.
        self._second_threshold = (
            self.tuning.second_level_threshold if enable_second_level
            else math.inf
        )
        self._first_threshold = (
            self.tuning.initial_response_threshold if enable_first_level
            else math.inf
        )
        self._activation_delay = 1 + self.tuning.response_delay_cycles
        self._first_response_time = self.tuning.initial_response_time
        self._second_response_time = self.tuning.second_level_response_time
        self.first_level_cycles = 0
        self.second_level_cycles = 0
        self.first_level_engagements = 0
        self.second_level_engagements = 0
        self.watchdog_releases = 0
        self.max_second_level_hold_cycles = 0

        from repro.core.overheads import estimate_overheads

        #: Section 3.3 hardware inventory; its per-cycle energy is charged
        #: on top of the processor energy by the simulation (Section 4.1)
        self.overheads = estimate_overheads(
            self.detector,
            processor_config,
            vdd_volts=supply_config.vdd_volts,
            clock_hz=supply_config.clock_hz,
        )

    # ------------------------------------------------------------------
    def observe(
        self, cycle: int, current_amps: float, voltage_volts: float, stats=None
    ) -> None:
        """Sense the cycle's current and react to any new resonant event."""
        event = self.detector.observe(cycle, self.sensor.read(current_amps))
        if event is None or self._second_active:
            return
        activation = cycle + self._activation_delay
        if event.count >= self._second_threshold:
            self._pending.append((activation, _SECOND))
        elif event.count >= self._first_threshold:
            self._pending.append((activation, _FIRST))

    # ------------------------------------------------------------------
    def directives(self, cycle: int) -> ControlDirectives:
        if self._pending:
            self._activate_pending(cycle)
        if self._second_active:
            held = cycle - self._second_engaged_at
            # Release once the minimum response time has elapsed and the
            # resonant event count has effectively decreased: either the
            # chain count dropped, or the stall has kept detection quiet for
            # the whole response time (Section 5.2 sizes that time so the
            # dissipated energy is worth one event).
            quiet = (
                self.detector.last_event is None
                or self.detector.last_event.cycle < self._second_engaged_at
            )
            count_dropped = (
                self.detector.current_count(cycle) < self._second_entry_count
            )
            if held >= self.watchdog_hold_cycles:
                # Watchdog: the release condition has not come true within
                # the bounded hold -- a faulted sensor can keep reporting
                # events forever.  Force the release and lock out
                # re-engagement for one response time so the pipeline makes
                # progress before the (likely still-faulty) detection can
                # stall it again.
                self._release_second_level(held)
                self.watchdog_releases += 1
                self._watchdog_lockout_until = (
                    cycle + self._second_response_time
                )
            elif cycle >= self._second_min_until and (quiet or count_dropped):
                self._release_second_level(held)
            else:
                self.second_level_cycles += 1
                return self._second_directives
        if cycle < self._first_until:
            self.first_level_cycles += 1
            return self._first_directives
        return NO_CONTROL

    def _release_second_level(self, held_cycles: int) -> None:
        self._second_active = False
        self.max_second_level_hold_cycles = max(
            self.max_second_level_hold_cycles, held_cycles
        )

    def _activate_pending(self, cycle: int) -> None:
        remaining = []
        for activation, level in self._pending:
            if activation > cycle:
                remaining.append((activation, level))
                continue
            if level == _SECOND and cycle < self._watchdog_lockout_until:
                continue
            if level == _SECOND and not self._second_active:
                self._second_active = True
                self._second_engaged_at = cycle
                self._second_min_until = cycle + self._second_response_time
                self._second_entry_count = max(
                    1, self.detector.current_count(cycle)
                )
                self.second_level_engagements += 1
            elif level == _FIRST:
                new_until = cycle + self._first_response_time
                if new_until > self._first_until:
                    if cycle >= self._first_until:
                        self.first_level_engagements += 1
                    self._first_until = new_until
        self._pending = remaining

    # ------------------------------------------------------------------
    @property
    def response_cycle_fractions(self) -> dict:
        return {
            "first_level_cycles": self.first_level_cycles,
            "second_level_cycles": self.second_level_cycles,
        }

    def overhead_energy_joules(self, n_cycles: int) -> float:
        return n_cycles * self.overheads.energy_per_cycle_joules
