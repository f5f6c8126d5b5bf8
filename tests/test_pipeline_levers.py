"""The pipeline under every control lever, pinned cycle by cycle.

The goldens pin only base and resonance-tuning runs.  The [10], damping
and convolution techniques pull the other levers (fetch and issue stalls,
phantom current floors, issued-estimate bounds), so these digests drive
the pipeline directly under a seeded per-cycle schedule that covers every
:class:`ControlDirectives` field at its edge values, and hash everything
it reports.  A digest change means the per-cycle semantics drifted.
"""

import hashlib
import random

import pytest

from repro.config import TABLE1_PROCESSOR, TABLE1_SUPPLY
from repro.uarch import SPEC2K, ControlDirectives, Processor

_CYCLES = 3000
_INSTRUCTIONS = 20_000
_SCHEDULE_SEED = 20040619

#: Edge values for each lever; ``None`` / ``0.0`` / ``False`` is inactive.
_WIDTHS = (None, None, 0, 1, 4, 20)
_PORTS = (None, None, 0, 1, 10)
_FLOORS = (0.0, 0.0, 70.0, 104.0)
#: (0.0, 0.25) caps issue below the cheapest a-priori estimate (0.5 A).
_BOUNDS = (None, None, (0.0, 0.25), (10.0, 30.0), (0.0, 1000.0), (50.0, 60.0))

#: sha256 of every cycle's CycleStats plus the final counters.
EXPECTED_DIGESTS = {
    "gzip": "40407e7cf8f5b518d8a6e6d55a102b09074d7b9390bf453832f2fe806383a6b2",
    "lucas": "de24d0051af197b1b2bd5389c5b9c5d4ed152aa95e804000284da3aa803132c3",
    "swim": "f4f3053ec5b0222e349ff2c740a3bcf0faeaf9593bae1920974748096a998e38",
}


def lever_schedule(seed: int, n_cycles: int):
    """Per-cycle directives: random lever combinations held 1-40 cycles."""
    rng = random.Random(seed)
    schedule = []
    while len(schedule) < n_cycles:
        directives = ControlDirectives(
            issue_width_limit=rng.choice(_WIDTHS),
            cache_ports_limit=rng.choice(_PORTS),
            stall_issue=rng.random() < 0.15,
            stall_fetch=rng.random() < 0.15,
            current_floor_amps=rng.choice(_FLOORS),
            issue_estimate_bounds=rng.choice(_BOUNDS),
        )
        schedule.extend([directives] * rng.randint(1, 40))
    return schedule[:n_cycles]


def _hex(value) -> str:
    return float.hex(float(value))


def lever_digest(app: str) -> str:
    """Run ``app`` under the lever schedule and hash what it reports."""
    processor = Processor.from_profile(
        SPEC2K[app],
        n_instructions=_INSTRUCTIONS,
        config=TABLE1_PROCESSOR,
        supply_config=TABLE1_SUPPLY,
    )
    digest = hashlib.sha256()
    for directives in lever_schedule(_SCHEDULE_SEED, _CYCLES):
        s = processor.step(directives)
        digest.update(
            f"{s.cycle} {_hex(s.current_amps)} {_hex(s.phantom_amps)} "
            f"{s.dispatched} {s.issued} {s.committed} "
            f"{_hex(s.issued_estimate_amps)} {s.rob_occupancy}\n".encode()
        )
    pipeline = processor.pipeline
    cache = processor.cache
    power = processor.power
    final = (
        cache.l1_accesses, cache.l2_accesses, cache.memory_accesses,
        pipeline.icache_stalls, pipeline.mshr_stall_cycles,
        pipeline.branch_unit.mispredicts,
        pipeline.total_dispatched, pipeline.total_issued,
        pipeline.total_committed,
        _hex(power.total_energy_joules), _hex(power.phantom_energy_joules),
    )
    digest.update(repr(final).encode())
    return digest.hexdigest()


class TestLeverSchedule:
    def test_schedule_covers_every_lever_edge(self):
        schedule = lever_schedule(_SCHEDULE_SEED, _CYCLES)
        assert {d.issue_width_limit for d in schedule} == set(_WIDTHS)
        assert {d.cache_ports_limit for d in schedule} == set(_PORTS)
        assert {d.stall_issue for d in schedule} == {False, True}
        assert {d.stall_fetch for d in schedule} == {False, True}
        assert {d.current_floor_amps for d in schedule} == set(_FLOORS)
        assert {d.issue_estimate_bounds for d in schedule} == set(_BOUNDS)

    @pytest.mark.parametrize("app", sorted(EXPECTED_DIGESTS))
    def test_per_cycle_digest_is_pinned(self, app):
        assert lever_digest(app) == EXPECTED_DIGESTS[app]
