"""Unit tests for cache, branch and power-model components.

Functional-unit pools and cache ports have no object of their own: the
pipeline's issue stage counts them per cycle, so their tests drive a
:class:`Pipeline` and read its per-cycle issue counts.
"""

import pytest

from repro.config import ProcessorConfig, TABLE1_PROCESSOR, TABLE1_SUPPLY
from repro.errors import ConfigurationError, SimulationError
from repro.uarch import (
    BranchUnit,
    CacheHierarchy,
    ControlDirectives,
    EnergyWeights,
    MemLevel,
    OpClass,
    Pipeline,
    PowerModel,
)
from tests.test_uarch_pipeline import make_trace


class TestCacheHierarchy:
    def test_latencies_accumulate_down_the_hierarchy(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        l1 = cache.latency_for(int(MemLevel.L1))
        l2 = cache.latency_for(int(MemLevel.L2))
        mem = cache.latency_for(int(MemLevel.MEMORY))
        assert l1 == 2
        assert l2 == 2 + 12
        assert mem == 2 + 12 + 80

    def test_access_counts_traffic(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        cache.access(int(MemLevel.L1), is_store=False)
        cache.access(int(MemLevel.L2), is_store=False)
        cache.access(int(MemLevel.MEMORY), is_store=False)
        assert cache.l1_accesses == 3
        assert cache.l2_accesses == 2
        assert cache.memory_accesses == 1

    def test_stores_complete_quickly(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        access = cache.access(int(MemLevel.MEMORY), is_store=True)
        assert access.latency == 1
        assert access.touches_memory

    def test_non_memory_level_rejected(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        with pytest.raises(SimulationError):
            cache.access(int(MemLevel.NONE), is_store=False)
        with pytest.raises(SimulationError):
            cache.latency_for(99)

    def test_reset_counters(self):
        cache = CacheHierarchy(TABLE1_PROCESSOR)
        cache.access(int(MemLevel.L1), is_store=False)
        cache.reset_counters()
        assert cache.l1_accesses == 0


def _issue_counts(op_classes, config=TABLE1_PROCESSOR, directives=None,
                  cycles=200, fill=10):
    """Per-cycle issue counts of dependency-free ops (memory ops hit L1)."""
    pipeline = Pipeline(make_trace(op_classes), config)
    directives = directives or ControlDirectives()
    counts = [pipeline.step(directives).issued for _ in range(cycles)]
    return counts[fill:]


class TestFunctionalUnits:
    def test_pool_exhaustion(self):
        counts = _issue_counts([int(OpClass.INT_MUL)] * 4000)
        assert max(counts) == TABLE1_PROCESSOR.int_muls

    def test_new_cycle_resets(self):
        """Pools refill every cycle: the multipliers issue every cycle."""
        counts = _issue_counts([int(OpClass.INT_MUL)] * 4000)
        assert set(counts) == {TABLE1_PROCESSOR.int_muls}

    def test_branches_share_int_alus(self):
        config = ProcessorConfig(int_alus=3)
        mixed = _issue_counts([int(OpClass.BRANCH), int(OpClass.INT_ALU)] * 2000,
                              config)
        assert set(mixed) == {3}
        branches = _issue_counts([int(OpClass.BRANCH)] * 4000, config)
        assert set(branches) == {3}

    def test_memory_ops_not_limited_here(self):
        """Memory ops claim cache ports, never an integer ALU."""
        config = ProcessorConfig(int_alus=1, cache_ports=4)
        loads = _issue_counts([int(OpClass.LOAD)] * 4000, config)
        assert set(loads) == {4}
        mixed = _issue_counts(([int(OpClass.LOAD)] * 4 + [int(OpClass.INT_ALU)]) * 800,
                              config)
        assert max(mixed) == 5


class TestCachePorts:
    def test_two_ports_by_default(self):
        counts = _issue_counts([int(OpClass.LOAD)] * 4000)
        assert set(counts) == {TABLE1_PROCESSOR.cache_ports}

    def test_limit_clamps_ports(self):
        """The first-level response reduces ports from 2 to 1."""
        one_port = ControlDirectives(cache_ports_limit=1)
        loads = _issue_counts([int(OpClass.LOAD)] * 4000, directives=one_port)
        assert set(loads) == {1}
        stores = _issue_counts([int(OpClass.STORE)] * 4000, directives=one_port)
        assert set(stores) == {1}

    def test_limit_cannot_exceed_capacity(self):
        loads = [int(OpClass.LOAD)] * 4000
        wide = _issue_counts(loads, directives=ControlDirectives(cache_ports_limit=10))
        assert wide == _issue_counts(loads)
        assert set(wide) == {TABLE1_PROCESSOR.cache_ports}


class TestBranchUnit:
    def test_fetch_blocked_until_resolve_plus_penalty(self):
        unit = BranchUnit(TABLE1_PROCESSOR)
        assert unit.fetch_allowed(0)
        unit.on_dispatch_mispredict(seq=10)
        assert not unit.fetch_allowed(5)
        unit.on_resolve(seq=10, cycle=20)
        penalty = TABLE1_PROCESSOR.branch_mispredict_penalty
        assert not unit.fetch_allowed(20 + penalty - 1)
        assert unit.fetch_allowed(20 + penalty)

    def test_resolve_of_other_branch_ignored(self):
        unit = BranchUnit(TABLE1_PROCESSOR)
        unit.on_dispatch_mispredict(seq=10)
        unit.on_resolve(seq=9, cycle=20)
        assert unit.blocked

    def test_mispredict_counter(self):
        unit = BranchUnit(TABLE1_PROCESSOR)
        unit.on_dispatch_mispredict(seq=1)
        unit.on_resolve(seq=1, cycle=5)
        unit.on_dispatch_mispredict(seq=2)
        assert unit.mispredicts == 2


class TestPowerModel:
    def test_idle_current_is_min(self):
        model = PowerModel(TABLE1_PROCESSOR)
        for _ in range(10):
            current = model.end_cycle()
        assert current == pytest.approx(TABLE1_PROCESSOR.min_current_amps)

    def test_sustained_peak_hits_max(self):
        """Sustained max-power activity must draw the Table 1 peak of 105 A."""
        config = TABLE1_PROCESSOR
        model = PowerModel(config)
        from repro.uarch.cache import CacheAccess

        current = 0.0
        for _ in range(40):  # settle the spread backlog
            model.add_dispatch(config.fetch_width)
            model.add_commit(config.commit_width)
            model.add_occupancy(config.rob_entries)
            # The calibration's max-power mix: 2 loads, 2 FP muls, 4 FP adds.
            for _ in range(config.cache_ports):
                model.add_issue(int(OpClass.LOAD), 2)
                model.add_cache_access(
                    CacheAccess(latency=2, touches_l2=False, touches_memory=False)
                )
            for _ in range(config.fp_muls):
                model.add_issue(int(OpClass.FP_MUL), 4)
            for _ in range(config.fp_alus):
                model.add_issue(int(OpClass.FP_ALU), 2)
            current = model.end_cycle()
        assert current == pytest.approx(config.max_current_amps, rel=0.02)

    def test_phantom_counted_separately(self):
        model = PowerModel(TABLE1_PROCESSOR)
        model.attach_supply(TABLE1_SUPPLY.vdd_volts, TABLE1_SUPPLY.cycle_seconds)
        current = model.end_cycle(phantom_amps=30.0)
        assert current == pytest.approx(TABLE1_PROCESSOR.min_current_amps + 30.0)
        assert model.phantom_energy_joules > 0
        assert model.phantom_energy_joules < model.total_energy_joules

    def test_spread_current_spans_latency(self):
        model = PowerModel(TABLE1_PROCESSOR)
        model.add_issue(int(OpClass.FP_MUL), 4)
        base = TABLE1_PROCESSOR.min_current_amps
        first = model.end_cycle()
        later = [model.end_cycle() for _ in range(4)]
        assert first > base
        assert later[0] > base          # FU current continues
        assert later[2] > base
        assert later[3] == pytest.approx(base)  # spread exhausted

    def test_preview_matches_end_cycle(self):
        model = PowerModel(TABLE1_PROCESSOR)
        model.add_dispatch(4)
        preview = model.preview_current()
        assert model.end_cycle() == pytest.approx(preview)

    def test_apriori_estimates_are_half_amp_units(self):
        model = PowerModel(TABLE1_PROCESSOR)
        for op in range(7):
            estimate = model.apriori_issue_estimate(op)
            assert estimate >= 0.5
            assert (estimate * 2) == pytest.approx(round(estimate * 2))

    def test_load_estimate_exceeds_int_alu(self):
        model = PowerModel(TABLE1_PROCESSOR)
        assert model.apriori_issue_estimate(
            int(OpClass.LOAD)
        ) > model.apriori_issue_estimate(int(OpClass.INT_ALU))

    def test_zero_weights_rejected(self):
        zero = EnergyWeights(
            dispatch=0.0, issue=0.0, commit=0.0, l1_access=0.0,
            l2_access=0.0, memory_access=0.0, rob_occupancy=0.0,
            fu={op: 0.0 for op in range(7)},
        )
        with pytest.raises(ConfigurationError):
            PowerModel(TABLE1_PROCESSOR, zero)

    def test_currents_are_plain_floats(self):
        model = PowerModel(TABLE1_PROCESSOR)
        model.add_issue(int(OpClass.FP_MUL), 4)
        assert type(model.preview_current()) is float
        assert type(model.end_cycle()) is float

    @pytest.mark.parametrize(
        "field", ["l1_hit_cycles", "l2_hit_cycles", "memory_cycles"]
    )
    def test_spread_longer_than_ring_rejected(self, field):
        """A spread past the ring would fold back onto earlier cycles."""
        with pytest.raises(ConfigurationError, match=field):
            PowerModel(ProcessorConfig(**{field: 300}))

    def test_memory_spread_covers_every_cycle_once(self):
        from repro.uarch.cache import CacheAccess

        config = ProcessorConfig(memory_cycles=256)
        model = PowerModel(config)
        for _ in range(200):  # start the spread near the end of the ring
            model.end_cycle()
        model.add_cache_access(
            CacheAccess(latency=1, touches_l2=False, touches_memory=True)
        )
        currents = [model.end_cycle() for _ in range(config.memory_cycles + 1)]
        base = config.min_current_amps
        memory_amps = (
            model.amps_per_unit * model.weights.memory_access / config.memory_cycles
        )
        l1_amps = model.amps_per_unit * model.weights.l1_access / config.l1_hit_cycles
        for cycle, current in enumerate(currents[:-1]):
            expected = base + memory_amps + (l1_amps if cycle < 2 else 0.0)
            assert current == pytest.approx(expected)
        assert currents[-1] == pytest.approx(base)

    def test_energy_accumulates(self):
        model = PowerModel(TABLE1_PROCESSOR)
        model.attach_supply(1.0, 1e-10)
        model.end_cycle()
        # 35 A * 1 V * 0.1 ns = 3.5 nJ
        assert model.total_energy_joules == pytest.approx(3.5e-9)
