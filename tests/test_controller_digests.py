"""The four paper controllers inside the closed loop, pinned cycle by cycle.

The goldens pin only base and resonance-tuning runs at paper defaults.
These digests drive whole :class:`Simulation` runs under every controller
and under sensor variants that exercise the detector's compensated sums:
whole-amp readings (exact sums), readings that are inexact from the first
cycle (drift, a 0.1 A quantum), readings that turn inexact mid-run, and a
delayed, noisy sensor.  Each digest hashes every cycle's directives, every
resonant event, the final controller and detector counters and the
simulation result, floats written with ``float.hex``.  A digest change
means a controller's per-cycle semantics drifted.
"""

import hashlib

import pytest

from repro.baselines import (
    ConvolutionController,
    PipelineDampingController,
    VoltageThresholdController,
)
from repro.config import TABLE1_PROCESSOR, TABLE1_SUPPLY, TuningConfig
from repro.core import CurrentSensor, ResonanceTuningController
from repro.faults import DriftFault, FaultySensor, SensorFault
from repro.power import PowerSupply
from repro.sim import Simulation
from repro.uarch import SPEC2K, Processor

_APPS = ("bzip", "lucas", "gzip")
_WARMUP = 1_000
_CYCLES = 3_000
_INSTRUCTIONS = 30_000


class _OffsetFrom(SensorFault):
    """Adds a fixed offset to every reading from ``start_cycle`` on."""

    def __init__(self, start_cycle: int, offset_amps: float):
        super().__init__()
        self.start_cycle = start_cycle
        self.offset_amps = offset_amps

    def apply(self, cycle: int, reading_amps: float) -> float:
        if cycle >= self.start_cycle:
            return reading_amps + self.offset_amps
        return reading_amps


def _tuning(sensor=lambda: None):
    return lambda: ResonanceTuningController(
        TABLE1_SUPPLY, TABLE1_PROCESSOR,
        TuningConfig(initial_response_time=100), sensor=sensor(),
    )


#: name -> controller factory (a fresh controller per run)
CONTROLLERS = {
    "tuning": _tuning(),
    "tuning-drift": _tuning(lambda: FaultySensor([DriftFault(0.37)])),
    "tuning-offset-midrun": _tuning(
        lambda: FaultySensor([_OffsetFrom(1_500, 0.3)])
    ),
    "tuning-quantum-0.1": _tuning(lambda: CurrentSensor(quantum_amps=0.1)),
    "tuning-delay-noise": _tuning(
        lambda: CurrentSensor(delay_cycles=3, noise_pp_amps=4.0)
    ),
    "damping": lambda: PipelineDampingController(
        TABLE1_SUPPLY, TABLE1_PROCESSOR, delta_amps=13.0
    ),
    "damping-multiwindow": lambda: PipelineDampingController(
        TABLE1_SUPPLY, TABLE1_PROCESSOR, delta_amps=3.25,
        window_cycles=(25, 50),
    ),
    "voltage-threshold": lambda: VoltageThresholdController(
        TABLE1_SUPPLY, TABLE1_PROCESSOR, target_threshold_volts=30e-3,
    ),
    "voltage-threshold-noise-delay": lambda: VoltageThresholdController(
        TABLE1_SUPPLY, TABLE1_PROCESSOR, target_threshold_volts=30e-3,
        sensor_noise_pp_volts=10e-3, delay_cycles=2,
    ),
    "convolution": lambda: ConvolutionController(
        TABLE1_SUPPLY, TABLE1_PROCESSOR,
    ),
    "convolution-estimate-error": lambda: ConvolutionController(
        TABLE1_SUPPLY, TABLE1_PROCESSOR, estimate_relative_error=0.1,
    ),
}

#: final counters hashed per controller class (detector counters separately)
_COUNTERS = {
    ResonanceTuningController: (
        "first_level_cycles", "second_level_cycles",
        "first_level_engagements", "second_level_engagements",
        "watchdog_releases", "max_second_level_hold_cycles",
    ),
    PipelineDampingController: ("damped_cycles", "phantom_pad_cycles"),
    VoltageThresholdController: (
        "response_cycles", "low_response_cycles", "high_response_cycles",
    ),
    ConvolutionController: ("response_cycles", "projections"),
}

#: sha256 per (controller, app), recorded before the controllers' fast
#: paths existed
EXPECTED_DIGESTS = {
    "tuning/bzip":
        "9d914e8d6150d71be8ec14db5e989a8364ca53eb463f654a6c7dc4901667d502",
    "tuning/lucas":
        "3685b7d5a617fb67ce9fa20c50234cd58d08bff6c4279b2de6d0671b909186b2",
    "tuning/gzip":
        "42007f45afe8fe73511ea76d403ace7238ec2ef39778de03fbc47e1f143d4863",
    "tuning-drift/bzip":
        "7cc9b46da5162cdeccfaf916ad01ac1b4820aadc2ec6fef3a5320cdae3c67253",
    "tuning-drift/lucas":
        "9305dc92729dab1bc651e0341f15ffa2abffa285cae2920675403638e5271fc8",
    "tuning-drift/gzip":
        "970b95a47963a981af3f7e5ae4fde329cf05382d6a87d483e6d3d23a369f8797",
    "tuning-offset-midrun/bzip":
        "52bf5280f13aabe628639d35a4abba744d696efd22a638c278bfb2b4fd464eb5",
    "tuning-offset-midrun/lucas":
        "3685b7d5a617fb67ce9fa20c50234cd58d08bff6c4279b2de6d0671b909186b2",
    "tuning-offset-midrun/gzip":
        "42007f45afe8fe73511ea76d403ace7238ec2ef39778de03fbc47e1f143d4863",
    "tuning-quantum-0.1/bzip":
        "c62d84b764005e425f9a24048c2aa5cb1df7956b41cfba2db1aef57451afde63",
    "tuning-quantum-0.1/lucas":
        "d9f53546cfec8aa4052422779cdbfd35ef7e6de616734c92818681de77024e07",
    "tuning-quantum-0.1/gzip":
        "2399584e536b6a8177c37ef66c96793a48c2c549dbc33082278fea6d942d1bf9",
    "tuning-delay-noise/bzip":
        "544b677e97a192bc7fac0265cadddd681a7ac06b3b53034eb7feb4894731de19",
    "tuning-delay-noise/lucas":
        "df3a23d44aa95d0fbb0e3a9e8c72f02d3649f465353c14b453daf676a06c36ce",
    "tuning-delay-noise/gzip":
        "d0244f69623b4b206a288336fbd2d9990af4a1d71e9d042e4d4581aeb31dd57c",
    "damping/bzip":
        "03b693a3c405225bc74fc5196a23ea08a3bd7c96d50725cc17cbb16f407448aa",
    "damping/lucas":
        "425a8c6d69b248ce60d166cc369f36518bceba1ae03ab8c04b43d87e67d00747",
    "damping/gzip":
        "be3f3e2a63c4b565df1db31d412ac75051d3f712efe2f95b0f175c09cd39af8a",
    "damping-multiwindow/bzip":
        "07b6a868e5adfb3c76f4e9931a29a3c012101d5276069ca3c38ac5fcba503034",
    "damping-multiwindow/lucas":
        "3389a3fd0e7d3c5cc2201b3c03d7b6683d165a73e49da655f1b65ca56c45e99b",
    "damping-multiwindow/gzip":
        "8ec42357c1d0608e96d4c727b52d80ba016bf7124b504b223c1f61c4831b421b",
    "voltage-threshold/bzip":
        "d52b9d8b6670d8fbfa99a45f2d5cb4cc4e45e20938f04d487dbbaba61773e7e8",
    "voltage-threshold/lucas":
        "315b5dfb2355e3499d7b5dc26414bd334290ee3ced766b5da8a10dff1d2adb42",
    "voltage-threshold/gzip":
        "e2958c05eca8f139920b3215220e50e13940d682798e99150f2293f7dc54d56f",
    "voltage-threshold-noise-delay/bzip":
        "6e626815a680a303047029d1cba700241ec59b548e92de975460efe30c5197be",
    "voltage-threshold-noise-delay/lucas":
        "61cecef29549ee29215b85bb0a00fc804160be10a172165df924e89bd610ecd0",
    "voltage-threshold-noise-delay/gzip":
        "b4e1afb0504599b20f576459ec11ecd883354295e7fe011bfabfed2669d94103",
    "convolution/bzip":
        "8a46f4e20b95f1edf3c2199a2cb9fd16d531a0eff9d9fe50040e70611fc6d3fe",
    "convolution/lucas":
        "857d54741f3e4879044bf970652e021f653378dd13a8cad5f14b36a4525d671b",
    "convolution/gzip":
        "a5e8eef06d286f55d2c634d070545e8e0a01cca343b545cb78b7a64e4d06fb18",
    "convolution-estimate-error/bzip":
        "330a5d28affa087aa2cbfb810e94779891f8d6b66df57ddc5dffc192aa345b29",
    "convolution-estimate-error/lucas":
        "cd886aaab8165dda5c1af7b64df1a067969e95ff3b2186f13fd4d52ffd884a80",
    "convolution-estimate-error/gzip":
        "fe3b90763c81fadef272d171ba2c81a3579d29025410c3f542164c733c5834ea",
}


def _hex(value) -> str:
    return float.hex(float(value))


def _directives_line(cycle, d) -> str:
    bounds = d.issue_estimate_bounds
    bounds = "-" if bounds is None else f"{_hex(bounds[0])},{_hex(bounds[1])}"
    return (
        f"d {cycle} {d.issue_width_limit} {d.cache_ports_limit} "
        f"{d.stall_issue} {d.stall_fetch} {_hex(d.current_floor_amps)} "
        f"{bounds}\n"
    )


def controller_digest(name: str, app: str) -> str:
    """Run ``app`` under ``CONTROLLERS[name]`` and hash what it decides."""
    digest = hashlib.sha256()
    controller = CONTROLLERS[name]()
    # Instance attributes shadow the class methods the simulation calls.
    directives = controller.directives

    def recording_directives(cycle):
        d = directives(cycle)
        digest.update(_directives_line(cycle, d).encode())
        return d

    controller.directives = recording_directives
    detector = getattr(controller, "detector", None)
    if detector is not None:
        observe = detector.observe

        def recording_observe(cycle, amps):
            event = observe(cycle, amps)
            if event is not None:
                digest.update(
                    f"e {event.cycle} {int(event.polarity)} {event.count} "
                    f"{event.chain_cycles}\n".encode()
                )
            return event

        detector.observe = recording_observe

    processor = Processor.from_profile(
        SPEC2K[app],
        n_instructions=_INSTRUCTIONS,
        config=TABLE1_PROCESSOR,
        supply_config=TABLE1_SUPPLY,
    )
    supply = PowerSupply(
        TABLE1_SUPPLY, initial_current=TABLE1_PROCESSOR.min_current_amps
    )
    result = Simulation(
        processor, supply, controller, record=True, benchmark=app,
        warmup_cycles=_WARMUP,
    ).run(_CYCLES)

    counters = [
        (field, getattr(controller, field))
        for field in _COUNTERS[type(controller)]
    ]
    if detector is not None:
        counters += [
            ("total_events", detector.total_events),
            ("events_by_polarity",
             sorted((int(p), n) for p, n in
                    detector.events_by_polarity.items())),
            ("comparisons", detector.comparisons),
            ("nonfinite_samples", detector.nonfinite_samples),
        ]
    digest.update(repr(counters).encode())
    digest.update(
        f"r {result.benchmark} {result.technique} {result.cycles} "
        f"{result.instructions} {_hex(result.energy_joules)} "
        f"{_hex(result.phantom_energy_joules)} {result.violation_cycles} "
        f"{result.violation_events} {result.first_level_cycles} "
        f"{result.second_level_cycles}\n".encode()
    )
    for current, voltage in zip(result.currents, result.voltages):
        digest.update(f"{_hex(current)} {_hex(voltage)}\n".encode())
    return digest.hexdigest()


_CELLS = [(name, app) for name in CONTROLLERS for app in _APPS]


class TestControllerDigests:
    def test_every_cell_has_a_digest(self):
        assert sorted(EXPECTED_DIGESTS) == sorted(
            f"{name}/{app}" for name, app in _CELLS
        )

    @pytest.mark.parametrize("name,app", _CELLS)
    def test_per_cycle_digest_is_pinned(self, name, app):
        assert controller_digest(name, app) == EXPECTED_DIGESTS[f"{name}/{app}"]
