"""Differential fuzz: optimized hot paths vs the repro.oracles references.

Three oracle pairs, each fuzzed with Hypothesis:

* ``ResonanceDetector`` (O(1) cumulative-sum adders) vs
  ``ReferenceDetector`` (brute-force window re-summation) -- **bit-exact**
  on the dyadic grid the shared strategies generate;
* ``PowerSupply`` (per-cycle Heun stepping) vs ``ConvolutionSupply``
  (whole-run transient + direct convolution) -- within
  ``REFERENCE_RTOL`` of the run's voltage peak;
* ``ConvolutionSupply`` vs the closed forms in ``repro.power.analytic``
  (step, sine steady state, ring-down) -- within the discretization
  tolerances documented there.

Plus the golden-trace gate: the committed ``tests/goldens/goldens.json``
must match a sequential recomputation (CI additionally checks the
``--workers 2`` backend via ``tools/conformance.py``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TABLE1_SUPPLY
from repro.core import CurrentSensor, ResonanceDetector
from repro.faults import FaultySensor
from repro.oracles import (
    ConvolutionSupply,
    ReferenceDetector,
    compute_goldens,
    default_goldens_path,
    diff_goldens,
    load_goldens,
    violation_stats,
)
from repro.oracles.supply_ref import REFERENCE_RTOL
from repro.power import PowerSupply, RLCAnalysis, waveforms
from repro.power.analytic import (
    ring_amplitude_after,
    sine_steady_state_amplitude,
    step_response,
)

from tests.strategies import (
    band_configs,
    band_traces,
    fault_overlays,
    quantize_to_grid,
    supply_stimuli,
    underdamped_supply_configs,
)


def _assert_detectors_agree(config, trace):
    """Drive both implementations in lockstep and demand bit-identity."""
    optimized = ResonanceDetector(**config)
    reference = ReferenceDetector(**config)
    for cycle, amps in enumerate(trace):
        amps = float(amps)
        fast = optimized.observe(cycle, amps)
        slow = reference.observe(cycle, amps)
        # ResonantEvent is a frozen dataclass: == compares cycle, polarity,
        # count and the full deduplicated chain.
        assert fast == slow, (
            f"cycle {cycle}: optimized {fast!r} != reference {slow!r}"
        )
        assert optimized.current_count(cycle) == reference.current_count(cycle)
    assert optimized.total_events == reference.total_events
    assert optimized.nonfinite_samples == reference.nonfinite_samples
    assert optimized.comparisons == _expected_comparisons(config, len(trace))
    assert sum(optimized.events_by_polarity.values()) == (
        optimized.total_events
    )


def _expected_comparisons(config, n_samples):
    """Adder comparisons after ``n_samples``: adder q compares once the
    history holds 2q samples, so it runs ``n - 2q + 1`` times."""
    quarters = config.get("quarter_periods") or [
        h // 2 for h in config["half_periods"]
    ]
    return sum(max(0, n_samples - 2 * q + 1) for q in set(quarters))


class TestDetectorDifferential:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_on_fuzzed_traces(self, data):
        config = data.draw(band_configs())
        trace = data.draw(band_traces(config))
        _assert_detectors_agree(config, trace)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_under_fault_overlays(self, data):
        """Degraded sensor inputs (fault chains) must not split the pair.

        The faulted stream is quantized before observation -- the grid
        models the hardware quantizer sitting after any analog fault, and
        keeps the comparison exact.
        """
        config = data.draw(band_configs())
        trace = data.draw(band_traces(config, allow_nan=False))
        sensor = FaultySensor(data.draw(fault_overlays()), base=CurrentSensor())
        faulted = quantize_to_grid(
            np.asarray([sensor.read(float(x)) for x in trace])
        )
        _assert_detectors_agree(config, faulted)

    def test_matches_reference_on_table1_band(self):
        """Deterministic long-trace anchor on the paper's own band."""
        band = RLCAnalysis(TABLE1_SUPPLY).band
        rng = np.random.default_rng(42)
        trace = quantize_to_grid(
            waveforms.square_wave(4000, 100, 40.0, mean=70.0)
            + rng.integers(-3, 4, 4000)
        )
        _assert_detectors_agree(
            {
                "half_periods": band.half_periods,
                "threshold_amps": 26.0,
                "max_repetition_tolerance": 4,
            },
            trace,
        )

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_dyadic_quarter_override_agrees(self, data):
        """The wavelet-style quarter_periods override uses the same pair."""
        config = data.draw(band_configs())
        quarters = sorted({h // 2 for h in config["half_periods"]})
        config["quarter_periods"] = [
            max(1, 1 << (quarters[0].bit_length() - 1)),
            1 << (quarters[-1] - 1).bit_length(),
        ]
        trace = data.draw(band_traces(config, allow_nan=False))
        _assert_detectors_agree(config, trace)


class TestSupplyDifferential:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_heun_matches_convolution(self, data):
        config = data.draw(underdamped_supply_configs())
        stimulus = data.draw(supply_stimuli(config))
        initial = float(stimulus[0])
        simulated = PowerSupply(config, initial_current=initial).run(stimulus)
        reference = ConvolutionSupply(config, initial_current=initial).run(stimulus)
        scale = max(np.max(np.abs(simulated)), config.noise_margin_volts)
        assert np.max(np.abs(simulated - reference)) <= REFERENCE_RTOL * scale

    @given(substeps=st.integers(1, 4), amplitude=st.floats(5.0, 60.0))
    @settings(max_examples=40, deadline=None)
    def test_substeps_preserve_agreement(self, substeps, amplitude):
        period = RLCAnalysis(TABLE1_SUPPLY).resonant_period_cycles
        wave = waveforms.square_wave(1200, period, amplitude, mean=50.0, start=60)
        simulated = PowerSupply(
            TABLE1_SUPPLY, initial_current=50.0, substeps=substeps
        ).run(wave)
        reference = ConvolutionSupply(
            TABLE1_SUPPLY, initial_current=50.0, substeps=substeps
        ).run(wave)
        scale = max(np.max(np.abs(simulated)), TABLE1_SUPPLY.noise_margin_volts)
        assert np.max(np.abs(simulated - reference)) <= REFERENCE_RTOL * scale

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_violation_bookkeeping_matches(self, data):
        """PowerSupply's stepped margin counters equal the recomputation."""
        config = data.draw(underdamped_supply_configs())
        stimulus = data.draw(supply_stimuli(config))
        supply = PowerSupply(config, initial_current=float(stimulus[0]))
        voltages = supply.run(stimulus)
        stats = violation_stats(voltages, config.noise_margin_volts)
        assert stats["violation_cycles"] == supply.violation_cycles
        assert stats["violation_events"] == supply.violation_events
        assert stats["first_violation_cycle"] == supply.first_violation_cycle


class TestConvolutionVsClosedForm:
    """The reference itself is checked against the analytic oracles.

    Tolerances are the documented Heun discretization bounds: ~2 % of peak
    for the Table 1 circuit at one substep (omega0*dt ~ 0.06), tightening
    with substeps.
    """

    def test_step_response_within_discretization_tolerance(self):
        delta = 40.0
        n = 400
        wave = waveforms.step(n, before=0.0, after=delta, at_cycle=0)
        reference = ConvolutionSupply(TABLE1_SUPPLY).run(wave)
        t = (np.arange(n) + 1) * TABLE1_SUPPLY.cycle_seconds
        exact = step_response(TABLE1_SUPPLY, delta, t)
        assert np.max(np.abs(reference - exact)) < 0.02 * np.max(np.abs(exact))

    @pytest.mark.parametrize("period_cycles", [50, 100, 200])
    def test_sine_steady_state_within_tolerance(self, period_cycles):
        amplitude_pp = 20.0
        frequency = TABLE1_SUPPLY.clock_hz / period_cycles
        exact = sine_steady_state_amplitude(TABLE1_SUPPLY, frequency, amplitude_pp)
        wave = waveforms.sine_wave(4000, period_cycles, amplitude_pp, mean=40.0)
        voltages = ConvolutionSupply(TABLE1_SUPPLY, initial_current=40.0).run(wave)
        measured = 0.5 * (voltages[2000:].max() - voltages[2000:].min())
        assert measured == pytest.approx(exact, rel=0.05)

    def test_ring_down_decay_within_tolerance(self):
        """Free decay after a resonant kick follows the analytic envelope."""
        period = RLCAnalysis(TABLE1_SUPPLY).resonant_period_cycles
        kick = waveforms.square_wave(3000, period, 40.0, mean=50.0, start=0, end=600)
        voltages = ConvolutionSupply(TABLE1_SUPPLY, initial_current=50.0).run(kick)
        quiet = voltages[600:]
        spans = [600, 600 + 5 * period]
        a0 = np.max(np.abs(quiet[: 2 * period]))
        a1 = np.max(np.abs(quiet[5 * period : 7 * period]))
        expected = ring_amplitude_after(TABLE1_SUPPLY, a0, 5 * period)
        assert a1 == pytest.approx(expected, rel=0.15), spans


class TestGoldenTraces:
    def test_committed_goldens_match_sequential_recompute(self):
        committed = load_goldens(default_goldens_path())
        computed = compute_goldens(workers=1)
        differences = diff_goldens(committed["cells"], computed)
        assert not differences, (
            "golden traces drifted; if intentional run tools/conformance.py "
            "--regen --reason '...' and commit the diff:\n" + "\n".join(differences)
        )

    def test_goldens_record_a_regen_reason(self):
        committed = load_goldens(default_goldens_path())
        assert len(committed["regen_reason"].strip()) >= 10

    @pytest.mark.slow
    def test_parallel_backend_is_byte_identical(self):
        """Same gate CI runs via tools/conformance.py --workers 2."""
        from repro.oracles import render_goldens

        sequential = render_goldens(compute_goldens(workers=1), "x")
        parallel = render_goldens(compute_goldens(workers=2), "x")
        assert sequential == parallel
