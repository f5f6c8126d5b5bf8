"""The pipeline-damping baseline of Powell & Vijaykumar, ISCA'03 (ref [14]).

Damping bounds the *estimated* current variation over a damping window of
half the resonant period: within any window, the per-cycle issued-current
estimate may move at most ``delta`` amps peak to peak.  The estimate is
a-priori and per instruction class, in 0.5 A units (Section 5.3.2), and the
issue queue enforces the bound every cycle -- the upper bound by refusing
to issue more current, the lower bound by issuing phantom operations.

Following Section 5.3.2, damping is applied at the resonant period only
(window 50 cycles for the 100-cycle Table 1 period); covering the whole
resonance band instead requires tightening ``delta``, which Tables 5's
0.5x and 0.25x rows evaluate.  Per the paper's generous assumption, the
issue-queue modifications damping needs are not charged any extra delay.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Optional, Sequence, Tuple

from repro.config import PowerSupplyConfig, ProcessorConfig
from repro.core.controller import NoiseController
from repro.errors import ConfigurationError
from repro.power.rlc import RLCAnalysis
from repro.uarch.pipeline import ControlDirectives, NO_CONTROL

__all__ = ["PipelineDampingController"]


class PipelineDampingController(NoiseController):
    """Bounds per-window current variation via issue control (ref [14]).

    ``window_cycles`` may also be a sequence of window lengths: the
    *band-covering* variant the paper mentions but declines ("extend the
    per-cycle decisions to cover the range of frequencies in the band ...
    would complicate the issue queue further").  Each window keeps its own
    history and the issue bounds are the intersection of every window's
    bounds -- strictly stronger damping at strictly higher hardware cost,
    which ``benchmarks/bench_multiwindow_damping.py`` quantifies.
    """

    name = "pipeline-damping"

    def __init__(
        self,
        supply_config: PowerSupplyConfig,
        processor_config: ProcessorConfig,
        delta_amps: float = 26.0,
        window_cycles: "Optional[int | Sequence[int]]" = None,
    ):
        if delta_amps <= 0:
            raise ConfigurationError("delta_amps must be positive")
        self.supply_config = supply_config
        self.processor_config = processor_config
        self.delta_amps = delta_amps
        if window_cycles is None:
            period = RLCAnalysis(supply_config).resonant_period_cycles
            window_cycles = period // 2
        lengths = _window_lengths(window_cycles)
        if not lengths or min(lengths) < 2:
            raise ConfigurationError("window lengths must be at least 2")
        self.window_lengths = lengths
        self.window_cycles = lengths[-1]  # longest, for compatibility
        # Per window: its length and two monotonic deques of (sample index,
        # estimate).  The first holds no estimate below a later one, the
        # second none above a later one, so their fronts are the window's
        # max and min -- the oldest of equal candidates, as max() and
        # min() over the window would pick.
        self._windows = [(length, deque(), deque()) for length in lengths]
        self._samples = 0
        self._bounds = None
        self._directives = NO_CONTROL
        self.damped_cycles = 0
        self.phantom_pad_cycles = 0

    # ------------------------------------------------------------------
    def directives(self, cycle: int) -> ControlDirectives:
        if not self._samples:
            return NO_CONTROL
        delta = self.delta_amps
        low = 0.0
        high = None
        for _, highs, lows in self._windows:
            # The max(low, ...) / min(high, ...) fold, in window order.
            window_low = highs[0][1] - delta
            if window_low > low:
                low = window_low
            window_high = lows[0][1] + delta
            if high is None or window_high < high:
                high = window_high
        self.damped_cycles += 1
        bounds = (low, high)
        if bounds != self._bounds:
            # ``low`` is never -0.0 and ``high`` never -0.0 (delta > 0),
            # so equal bounds are the same floats.
            self._bounds = bounds
            self._directives = ControlDirectives(issue_estimate_bounds=bounds)
        return self._directives

    def observe(
        self, cycle: int, current_amps: float, voltage_volts: float, stats=None
    ) -> None:
        if stats is None:
            raise ConfigurationError(
                "pipeline damping needs per-cycle issue estimates; run it"
                " inside a Simulation (stats must be provided)"
            )
        estimate = stats.issued_estimate_amps
        if stats.phantom_amps > 0:
            self.phantom_pad_cycles += 1
        index = self._samples
        self._samples = index + 1
        entry = (index, estimate)
        for length, highs, lows in self._windows:
            while highs and highs[-1][1] < estimate:
                highs.pop()
            highs.append(entry)
            if highs[0][0] <= index - length:
                highs.popleft()
            while lows and lows[-1][1] > estimate:
                lows.pop()
            lows.append(entry)
            if lows[0][0] <= index - length:
                lows.popleft()

    # ------------------------------------------------------------------
    @property
    def response_cycle_fractions(self) -> dict:
        # Damping is "always on"; the damped-cycle count mirrors how often
        # bounds were in force rather than a discrete response level.
        return {"first_level_cycles": self.damped_cycles, "second_level_cycles": 0}


def _window_lengths(window_cycles) -> Tuple[int, ...]:
    """Sorted distinct window lengths from an integer or integer sequence."""
    try:
        return (operator.index(window_cycles),)
    except TypeError:
        pass
    try:
        return tuple(sorted({operator.index(w) for w in window_cycles}))
    except TypeError:
        raise ConfigurationError(
            "window_cycles must be an integer or a sequence of integers,"
            f" got {window_cycles!r}"
        ) from None
