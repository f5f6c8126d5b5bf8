"""The convolution-based control of Grochowski, Ayers & Tiwari (ref [8]).

The HPCA'02 technique estimates chip current a priori, convolves it in real
time with the power-distribution network's impulse response to compute the
present (and imminent) supply voltage, and throttles or boosts activity when
the computed voltage approaches the noise margin.

We implement the convolution with its mathematically equivalent (and
cheaper) recursive form: an internal model of the Figure 1(b) state
equations driven by the *estimated* current -- convolving the input with
the impulse response of an LTI system is exactly integrating that system.
Each cycle the controller:

1. feeds its current estimate into the model (a-priori estimates are
   modelled as the true sensed current plus a configurable relative error
   and offset, capturing the paper's critique that accurate estimates are
   hard to obtain);
2. projects the model a few cycles ahead with the current held constant;
3. reacts like [10] when the projected voltage leaves the guard band:
   stall fetch/issue when too low, phantom-fire to a medium current when
   too high.

The paper's Section 1 critique -- "computing convolution quickly enough to
prevent noise-margin violations may be difficult to implement" -- concerns
hardware cost; this software model charges no cycle penalty for the
computation itself, so our results are generous to [8], like the paper's
treatment of damping's issue-queue changes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import PowerSupplyConfig, ProcessorConfig
from repro.core.controller import NoiseController
from repro.errors import ConfigurationError
from repro.power.integrator import HeunIntegrator
from repro.uarch.pipeline import ControlDirectives, NO_CONTROL

__all__ = ["ConvolutionController"]


class ConvolutionController(NoiseController):
    """Model-based voltage prediction from estimated current (ref [8])."""

    name = "convolution"

    def __init__(
        self,
        supply_config: PowerSupplyConfig,
        processor_config: ProcessorConfig,
        guard_band_fraction: float = 0.6,
        lookahead_cycles: int = 12,
        estimate_relative_error: float = 0.0,
        estimate_offset_amps: float = 0.0,
        estimate_gain: float = 1.0,
        hold_cycles: int = 5,
        seed: Optional[int] = 0,
    ):
        if not 0.0 < guard_band_fraction < 1.0:
            raise ConfigurationError("guard_band_fraction must be in (0, 1)")
        if lookahead_cycles < 0:
            raise ConfigurationError("lookahead_cycles must be non-negative")
        if estimate_relative_error < 0:
            raise ConfigurationError("estimate_relative_error must be >= 0")
        if estimate_gain <= 0:
            raise ConfigurationError("estimate_gain must be positive")
        if hold_cycles < 1:
            raise ConfigurationError("hold_cycles must be at least 1")
        self.supply_config = supply_config
        self.processor_config = processor_config
        self.guard_volts = (
            guard_band_fraction * supply_config.noise_margin_volts
        )
        self.lookahead_cycles = lookahead_cycles
        self.estimate_relative_error = estimate_relative_error
        self.estimate_offset_amps = estimate_offset_amps
        #: systematic multiplicative error of the a-priori estimates: a gain
        #: below 1 models the under-estimation the paper warns about ("it is
        #: hard to obtain accurate current estimates") -- the model then
        #: under-predicts voltage swings and reacts too late or not at all
        self.estimate_gain = estimate_gain
        self.hold_cycles = hold_cycles
        self._rng = (
            np.random.default_rng(seed) if estimate_relative_error else None
        )
        self._model = HeunIntegrator(supply_config)
        self._model.reset(processor_config.min_current_amps)
        #: scratch integrator each projection restarts from the model state
        self._probe = HeunIntegrator(supply_config)
        self._resistance = supply_config.resistance_ohms
        #: model voltage above which a projection is worth running
        self._arm_volts = 0.6 * self.guard_volts
        self._last_estimate = processor_config.min_current_amps
        self._mode = 0
        self._hold_until = -1
        self._low_directives = ControlDirectives(
            stall_fetch=True, stall_issue=True
        )
        self._high_directives = ControlDirectives(
            current_floor_amps=processor_config.medium_current_amps
        )
        self.response_cycles = 0
        self.projections = 0

    # ------------------------------------------------------------------
    def _estimate(self, true_current: float) -> float:
        estimate = true_current * self.estimate_gain + self.estimate_offset_amps
        if self._rng is not None:
            estimate += true_current * self._rng.uniform(
                -self.estimate_relative_error, self.estimate_relative_error
            )
        return estimate

    def _projected_extreme(self) -> float:
        """Worst |voltage| over the lookahead with current held constant."""
        self.projections += 1
        probe = self._probe
        model_state = self._model.state
        probe.state.voltage = model_state.voltage
        probe.state.inductor_current = model_state.inductor_current
        correction = self._resistance * self._last_estimate
        worst = probe.state.voltage + correction
        extreme = abs(worst)
        signed = worst
        for _ in range(self.lookahead_cycles):
            raw = probe.step(self._last_estimate)
            reported = raw + correction
            if abs(reported) > extreme:
                extreme = abs(reported)
                signed = reported
        return signed

    # ------------------------------------------------------------------
    def observe(
        self, cycle: int, current_amps: float, voltage_volts: float, stats=None
    ) -> None:
        estimate = self._estimate(current_amps)
        self._last_estimate = estimate
        raw = self._model.step(estimate)
        reported = raw + self._resistance * estimate
        # Arm the (more expensive) projection only when the model voltage is
        # already a good fraction of the guard band.
        if abs(reported) > self._arm_volts:
            reported = self._projected_extreme()
        if reported < -self.guard_volts:
            self._mode = -1
            self._hold_until = cycle + self.hold_cycles
        elif reported > self.guard_volts:
            self._mode = 1
            self._hold_until = cycle + self.hold_cycles
        elif cycle >= self._hold_until:
            self._mode = 0

    def directives(self, cycle: int) -> ControlDirectives:
        if self._mode == 0:
            return NO_CONTROL
        self.response_cycles += 1
        return self._low_directives if self._mode < 0 else self._high_directives

    # ------------------------------------------------------------------
    @property
    def response_cycle_fractions(self) -> dict:
        return {
            "first_level_cycles": 0,
            "second_level_cycles": self.response_cycles,
        }
