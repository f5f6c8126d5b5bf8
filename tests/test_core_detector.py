"""Tests for band-wide resonant-event detection (Section 3.1)."""

import pytest

from repro.config import TABLE1_SUPPLY, TABLE1_TUNING
from repro.core import CurrentSensor, Polarity, ResonanceDetector
from repro.errors import ConfigurationError
from repro.power import RLCAnalysis, waveforms


def table1_detector(threshold=None, tolerance=4):
    band = RLCAnalysis(TABLE1_SUPPLY).band
    return ResonanceDetector(
        half_periods=band.half_periods,
        threshold_amps=threshold
        or TABLE1_TUNING.resonant_current_threshold_amps,
        max_repetition_tolerance=tolerance,
    )


def feed(detector, wave, start_cycle=0):
    events = []
    for offset, current in enumerate(wave):
        event = detector.observe(start_cycle + offset, current)
        if event is not None:
            events.append(event)
    return events


class TestConstruction:
    def test_table1_band_uses_nine_adders(self):
        """Half-periods 42-59 share quarter periods 21-29 (Section 3.3)."""
        assert table1_detector().adder_count == 9

    def test_register_length_covers_tolerance(self):
        detector = table1_detector(tolerance=4)
        assert detector.register_length == 4 * 59

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ResonanceDetector([], 32.0, 4)
        with pytest.raises(ConfigurationError):
            ResonanceDetector([42, 59], 0.0, 4)
        with pytest.raises(ConfigurationError):
            ResonanceDetector([42, 59], 32.0, 1)
        with pytest.raises(ConfigurationError):
            ResonanceDetector([1], 32.0, 4)


class TestEventIdentification:
    def test_flat_current_never_triggers(self):
        detector = table1_detector()
        events = feed(detector, [70.0] * 2000)
        assert events == []

    def test_resonant_square_wave_triggers_alternating_events(self):
        detector = table1_detector()
        wave = waveforms.square_wave(1000, 100, amplitude_pp=40.0, mean=70.0)
        events = feed(detector, wave)
        assert events, "resonant wave must be detected"
        polarities = {event.polarity for event in events}
        assert polarities == {Polarity.HIGH_LOW, Polarity.LOW_HIGH}
        # Adder q (quarters 21-29) compares once 2q samples are in.
        assert detector.comparisons == sum(
            max(0, 1000 - 2 * q + 1) for q in range(21, 30)
        )
        assert sum(detector.events_by_polarity.values()) == (
            detector.total_events
        ) == len(events)

    def test_below_threshold_wave_ignored(self):
        detector = table1_detector(threshold=32.0)
        # Sine of 20 A p-p: quarter-sum diff ~ 0.64 * X * q < threshold.
        wave = waveforms.sine_wave(2000, 100, amplitude_pp=20.0, mean=70.0)
        assert feed(detector, wave) == []

    def test_off_band_fast_wave_ignored(self):
        """Variations at 10-cycle period are far above the band."""
        detector = table1_detector()
        wave = waveforms.square_wave(2000, 10, amplitude_pp=60.0, mean=70.0)
        assert feed(detector, wave) == []

    def test_slow_wave_ignored(self):
        """A 1000-cycle-period wave is below the band; its edges are slow."""
        detector = table1_detector()
        wave = waveforms.triangle_wave(4000, 1000, amplitude_pp=60.0, mean=70.0)
        assert feed(detector, wave) == []

    def test_isolated_step_triggers_single_event_run(self):
        detector = table1_detector()
        wave = waveforms.step(800, before=50.0, after=100.0, at_cycle=400)
        events = feed(detector, wave)
        assert events
        assert all(event.polarity is Polarity.LOW_HIGH for event in events)
        # All detections of an isolated step are one consecutive run with
        # count 1: no repetition, no nascent resonance.
        assert max(event.count for event in events) == 1
        cycles = [event.cycle for event in events]
        assert cycles == list(range(cycles[0], cycles[0] + len(cycles)))


class TestInexactReadings:
    def test_inexact_readings_decide_on_compensated_diffs(self):
        """On a 0.1 A grid the running sums are inexact, so the adders
        must fold in the register's compensation terms.  A square wave
        that swings by exactly M/2 puts many diffs exactly at ``M q / 2``,
        where a dropped compensation term flips the decision."""
        from repro.core import CurrentHistoryRegister

        detector = table1_detector()
        quarters = sorted({h // 2 for h in detector.half_periods})
        register = CurrentHistoryRegister(quarters[-1])
        swing = 0.5 * TABLE1_TUNING.resonant_current_threshold_amps
        events = 0
        for cycle in range(3000):
            amps = 80.7 + (swing if (cycle // 50) % 2 else 0.0)
            amps = round((amps + (0.7 if cycle % 7 == 0 else 0.0)) * 10) * 0.1
            event = detector.observe(cycle, amps)
            register.append(amps)
            best, expected = 0.0, None
            for q, diff in zip(quarters, register.ready_quarter_diffs(quarters)):
                if abs(diff) >= swing * q and abs(diff) / q > best:
                    best = abs(diff) / q
                    expected = (
                        Polarity.LOW_HIGH if diff > 0 else Polarity.HIGH_LOW
                    )
            assert (None if event is None else event.polarity) == expected
            events += event is not None
        assert events


class TestRepetitionCounting:
    def test_count_climbs_with_each_half_wave(self):
        """Figure 3: counts 1, 2, 3, 4 across the first two periods."""
        detector = table1_detector()
        wave = waveforms.square_wave(
            800, 100, amplitude_pp=34.0, mean=70.0, start=100, end=500
        )
        events = feed(detector, wave)
        first_count_cycle = {}
        for event in events:
            first_count_cycle.setdefault(event.count, event.cycle)
        assert set(first_count_cycle) >= {1, 2, 3, 4}
        assert (
            first_count_cycle[1]
            < first_count_cycle[2]
            < first_count_cycle[3]
            < first_count_cycle[4]
        )
        # Consecutive count increases are about half a period apart.
        spacing = first_count_cycle[3] - first_count_cycle[2]
        assert 40 <= spacing <= 64

    def test_count_capped_above_tolerance(self):
        detector = table1_detector(tolerance=4)
        wave = waveforms.square_wave(1500, 100, amplitude_pp=40.0, mean=70.0)
        events = feed(detector, wave)
        assert max(event.count for event in events) == 5  # tolerance + 1

    def test_isolated_variations_never_accumulate(self):
        """Key observation 2: isolated variations are not nascent resonance."""
        detector = table1_detector()
        wave = [70.0] * 3000
        for start in range(200, 2800, 700):  # far more than a period apart
            for offset in range(40):
                wave[start + offset] = 110.0
        events = feed(detector, wave)
        assert events
        assert max(event.count for event in events) <= 2

    def test_current_count_decays_when_quiet(self):
        detector = table1_detector()
        wave = waveforms.square_wave(
            600, 100, amplitude_pp=40.0, mean=70.0, start=0, end=300
        )
        events = feed(detector, wave)
        last = events[-1]
        assert detector.current_count(last.cycle) >= 2
        assert detector.current_count(last.cycle + 30) >= 1
        assert detector.current_count(last.cycle + 200) == 0

    def test_current_count_before_any_event_is_zero(self):
        detector = table1_detector()
        assert detector.current_count(0) == 0

    def test_band_edge_periods_also_counted(self):
        """Detection covers the whole band, not just the 100-cycle centre."""
        for period in (86, 116):
            detector = table1_detector()
            wave = waveforms.square_wave(
                1200, period, amplitude_pp=45.0, mean=70.0
            )
            events = feed(detector, wave)
            assert max(event.count for event in events) >= 3, period

    def test_quantized_current_still_detected(self):
        """Whole-amp sensing is precise enough (Section 5.1.2)."""
        detector = table1_detector()
        sensor = CurrentSensor(quantum_amps=1.0)
        wave = waveforms.square_wave(1000, 100, amplitude_pp=34.0, mean=70.3)
        events = []
        for cycle, current in enumerate(wave):
            event = detector.observe(cycle, sensor.read(current))
            if event:
                events.append(event)
        assert events and max(e.count for e in events) >= 4
