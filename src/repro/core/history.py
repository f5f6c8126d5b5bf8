"""History registers for resonant-event detection (Section 3.1).

Two small hardware-like structures:

* :class:`CurrentHistoryRegister` -- the per-cycle current history over the
  last half of the longest band period, kept as a running cumulative sum so
  each quarter-period comparison is O(1) (the paper's "current-history
  adders").
* :class:`EventHistoryRegister` -- a one-bit-per-cycle shift register of
  detected resonant events of one polarity (the paper's high-low and
  low-high histories), long enough to cover the maximum repetition
  tolerance.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, SimulationError

__all__ = ["CurrentHistoryRegister", "EventHistoryRegister"]


class CurrentHistoryRegister:
    """Running cumulative current sums over a sliding cycle window.

    ``quarter_diff(q)`` returns ``sum(last q cycles) - sum(previous q
    cycles)``: positive when current rose (a low-to-high transition),
    negative when it fell.

    The ring stores running cumulative sums, so after millions of cycles
    at tens of amps an unbounded total would dwarf any quarter-period
    window and ``quarter_diff``'s cancellation would eat the low bits.
    Two measures keep the comparison at window precision forever:

    * every time the ring wraps, the oldest retained cumulative value is
      subtracted from every slot (*re-anchoring*), so stored magnitudes
      stay at window scale rather than trace scale;
    * each slot carries a Neumaier compensation term absorbing the
      rounding of its append (and of the re-anchor subtraction), and
      ``quarter_diff`` folds the compensation differences back in.

    Both are exact no-ops on exactly representable traces (e.g. the
    dyadic sensor grid the conformance goldens use): every addition is
    then exact, the compensation terms stay identically zero, and the
    returned bits match the plain running-sum implementation.
    """

    def __init__(self, max_quarter_period: int):
        if max_quarter_period < 1:
            raise ConfigurationError("max_quarter_period must be at least 1")
        self.max_quarter_period = max_quarter_period
        size = 1
        while size < 2 * max_quarter_period + 1:
            size *= 2
        self._size = size
        self._mask = size - 1
        self._cumsum = [0.0] * size
        self._comp = [0.0] * size
        self._cycles_seen = 0

    def append(self, current_amps: float) -> None:
        """Record one cycle's sensed current."""
        index = self._cycles_seen & self._mask
        if index == 0 and self._cycles_seen:
            self._reanchor()
        previous_index = (self._cycles_seen - 1) & self._mask
        previous = self._cumsum[previous_index]
        total = previous + current_amps
        # TwoSum error term of ``previous + current_amps`` (exact under
        # round-to-nearest); zero whenever the addition was exact.
        if (previous if previous >= 0.0 else -previous) >= (
            current_amps if current_amps >= 0.0 else -current_amps
        ):
            error = (previous - total) + current_amps
        else:
            error = (current_amps - total) + previous
        self._cumsum[index] = total
        self._comp[index] = self._comp[previous_index] + error
        self._cycles_seen += 1

    def _reanchor(self) -> None:
        """Subtract the oldest retained cumulative value from every slot.

        Runs once per ring wrap (amortized O(1) per append), right before
        slot 0 -- the oldest value, deterministically -- is overwritten.
        Differences between slots are untouched, so ``quarter_diff`` is
        unaffected except that stored magnitudes drop back to window
        scale; each slot's subtraction rounding goes to its compensation
        term, and is zero when the subtraction was exact.
        """
        anchor = self._cumsum[0]
        if anchor == 0.0:
            return
        cumsum, comp = self._cumsum, self._comp
        abs_anchor = anchor if anchor >= 0.0 else -anchor
        for slot in range(self._size):
            value = cumsum[slot]
            shifted = value - anchor
            if (value if value >= 0.0 else -value) >= abs_anchor:
                error = (value - shifted) - anchor
            else:
                error = ((-anchor) - shifted) + value
            cumsum[slot] = shifted
            comp[slot] += error

    @property
    def cycles_seen(self) -> int:
        return self._cycles_seen

    def ready(self, quarter_period: int) -> bool:
        """True once enough history exists to compare two quarter periods."""
        return self._cycles_seen >= 2 * quarter_period

    def quarter_diff(self, quarter_period: int) -> float:
        """Difference between the two most recent quarter-period sums."""
        if quarter_period < 1 or quarter_period > self.max_quarter_period:
            raise SimulationError(
                f"quarter period {quarter_period} outside register range"
            )
        if not self.ready(quarter_period):
            raise SimulationError("insufficient history for this quarter period")
        newest = (self._cycles_seen - 1) & self._mask
        mid = (self._cycles_seen - 1 - quarter_period) & self._mask
        oldest = (self._cycles_seen - 1 - 2 * quarter_period) & self._mask
        base = (
            self._cumsum[newest]
            - 2.0 * self._cumsum[mid]
            + self._cumsum[oldest]
        )
        correction = (
            self._comp[newest]
            - 2.0 * self._comp[mid]
            + self._comp[oldest]
        )
        # ``correction`` is identically 0.0 on exactly representable
        # traces, leaving ``base`` bit-for-bit unchanged there.
        return base + correction

    def ready_quarter_diffs(self, quarter_periods) -> list:
        """``quarter_diff`` of every ready period in an ascending sequence.

        Bit-identical to :meth:`quarter_diff`, without its per-period
        checks; :meth:`strongest_quarter_diff` reads the same diffs.
        Periods must be ascending and within the register's range; the
        ready ones are a prefix, and the list holds one diff per ready
        period.
        """
        seen = self._cycles_seen
        mask = self._mask
        cumsum = self._cumsum
        comp = self._comp
        newest = (seen - 1) & mask
        cumsum_newest = cumsum[newest]
        comp_newest = comp[newest]
        diffs = []
        for quarter_period in quarter_periods:
            if seen < 2 * quarter_period:
                break
            mid = (seen - 1 - quarter_period) & mask
            oldest = (seen - 1 - 2 * quarter_period) & mask
            diffs.append(
                (cumsum_newest - 2.0 * cumsum[mid] + cumsum[oldest])
                + (comp_newest - 2.0 * comp[mid] + comp[oldest])
            )
        return diffs

    def strongest_quarter_diff(self, adders) -> tuple:
        """A detector's per-cycle adder scan, without a per-cycle list.

        ``adders`` holds ``(quarter_period, threshold)`` pairs in ascending
        period order.  Each ready adder's diff is bit-identical to
        :meth:`ready_quarter_diffs`; among the diffs whose magnitude
        reaches their adder's threshold, the largest magnitude per cycle
        wins, and the shortest period wins a tie.  Returns ``(compared,
        diff)``: the number of ready adders and the winning diff, or 0.0
        when none reaches its threshold (thresholds must be positive, so a
        winning diff is never zero).
        """
        seen = self._cycles_seen
        if seen < 2 * adders[-1][0]:
            # Filling up: the ready adders are a prefix.
            adders = [adder for adder in adders if seen >= 2 * adder[0]]
        mask = self._mask
        cumsum = self._cumsum
        comp = self._comp
        newest = seen - 1
        cumsum_newest = cumsum[newest & mask]
        comp_newest = comp[newest & mask]
        best = 0.0
        winner = 0.0
        for quarter_period, threshold in adders:
            mid = (newest - quarter_period) & mask
            oldest = (newest - 2 * quarter_period) & mask
            diff = (
                (cumsum_newest - 2.0 * cumsum[mid] + cumsum[oldest])
                + (comp_newest - 2.0 * comp[mid] + comp[oldest])
            )
            magnitude = diff if diff >= 0.0 else -diff
            if magnitude >= threshold and magnitude / quarter_period > best:
                best = magnitude / quarter_period
                winner = diff
        return len(adders), winner


class EventHistoryRegister:
    """One-bit-per-cycle shift register of resonant events of one polarity."""

    def __init__(self, length_cycles: int):
        if length_cycles < 1:
            raise ConfigurationError("length_cycles must be at least 1")
        self.length_cycles = length_cycles
        size = 1
        while size < length_cycles + 1:
            size *= 2
        self._mask = size - 1
        self._bits = bytearray(size)
        self._cycle = -1

    def shift(self, cycle: int, event: bool) -> None:
        """Record this cycle's event bit (must be called every cycle)."""
        if cycle != self._cycle + 1:
            raise SimulationError(
                f"event history must shift every cycle (got {cycle}, "
                f"expected {self._cycle + 1})"
            )
        self._bits[cycle & self._mask] = 1 if event else 0
        self._cycle = cycle

    def has_event_at(self, cycle: int) -> bool:
        """Was an event recorded at ``cycle`` (and is it still in range)?"""
        if cycle < 0 or cycle > self._cycle:
            return False
        if self._cycle - cycle >= self.length_cycles:
            return False
        return bool(self._bits[cycle & self._mask])

    def latest_event_in(self, start_cycle: int, end_cycle: int) -> "int | None":
        """Most recent event cycle within ``[start_cycle, end_cycle]``."""
        lo = max(start_cycle, self._cycle - self.length_cycles + 1, 0)
        for cycle in range(min(end_cycle, self._cycle), lo - 1, -1):
            if self._bits[cycle & self._mask]:
                return cycle
        return None

    def run_start(self, cycle: int) -> int:
        """First cycle of the consecutive-event run containing ``cycle``.

        Events in consecutive cycles are one physical variation spanning
        several cycles and must count only once (Section 3.1.3); counting
        code uses the run's start as the event's canonical cycle.
        """
        if not self.has_event_at(cycle):
            raise SimulationError(f"no event at cycle {cycle}")
        start = cycle
        while start > 0 and self.has_event_at(start - 1):
            start -= 1
        return start
