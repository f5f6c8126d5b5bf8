"""Cycle-level out-of-order pipeline (Table 1 configuration).

An 8-wide out-of-order core executing a synthetic trace: in-order dispatch
into a 128-entry reorder buffer (and load/store queue), dataflow-driven
issue limited by issue width, functional-unit pools and cache ports,
full-latency execution, and in-order commit.  Mispredicted branches stall
the frontend until they resolve plus a redirect penalty.

The scheduler is event-driven rather than scan-based: consumers are woken by
producer-completion events, and ready instructions sit in heaps, so per-cycle
work is proportional to actual activity instead of window size (the paper's
SimpleScalar-derived simulator scans; the results are equivalent, the speed
is what makes a pure-Python reproduction feasible).

Control hooks (:class:`ControlDirectives`) expose exactly the levers the
paper's techniques use: issue-width and cache-port clamps plus issue stalling
with a phantom current floor (resonance tuning), fetch/issue stalling and
phantom firing (the [10] baseline), and per-cycle issued-current-estimate
bounds (pipeline damping).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional, Tuple

from repro.config import ProcessorConfig
from repro.errors import SimulationError
from repro.uarch.branch import BranchUnit
from repro.uarch.cache import CacheHierarchy
from repro.uarch.isa import EXECUTION_LATENCY, FU_FOR_OP, OpClass
from repro.uarch.power_model import PowerModel
from repro.uarch.trace import MAX_DEP_DISTANCE, SyntheticTrace

__all__ = ["ControlDirectives", "CycleStats", "Pipeline", "NO_CONTROL"]

#: Sliding dependency window; must exceed ROB size plus the maximum
#: producer-consumer distance so producer slots are never reused while a
#: consumer can still look them up.
_WINDOW = 512
_UNFINISHED = 1 << 60
#: Bound on how deep issue selection scans past resource-blocked entries.
_SCAN_FACTOR = 4

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_EXEC_LATENCY = {int(op): lat for op, lat in EXECUTION_LATENCY.items()}


@dataclass(frozen=True)
class ControlDirectives:
    """Per-cycle levers a noise controller may pull (all default inactive)."""

    issue_width_limit: Optional[int] = None
    cache_ports_limit: Optional[int] = None
    stall_issue: bool = False
    stall_fetch: bool = False
    current_floor_amps: float = 0.0
    issue_estimate_bounds: Optional[Tuple[float, float]] = None


NO_CONTROL = ControlDirectives()


@dataclass
class CycleStats:
    """What happened in one cycle (consumed by controllers and metrics)."""

    __slots__ = (
        "cycle",
        "current_amps",
        "phantom_amps",
        "dispatched",
        "issued",
        "committed",
        "issued_estimate_amps",
        "rob_occupancy",
    )

    cycle: int
    current_amps: float
    phantom_amps: float
    dispatched: int
    issued: int
    committed: int
    issued_estimate_amps: float
    rob_occupancy: int


class Pipeline:
    """Executes one synthetic trace cycle by cycle."""

    def __init__(
        self,
        trace: SyntheticTrace,
        config: ProcessorConfig,
        power: Optional[PowerModel] = None,
        cache: Optional[CacheHierarchy] = None,
    ):
        if _WINDOW < config.rob_entries + MAX_DEP_DISTANCE:
            raise SimulationError("dependency window smaller than ROB + max distance")
        self.trace = trace
        self.config = config
        self.power = power or PowerModel(config)
        self.cache = cache or CacheHierarchy(config)
        self.branch_unit = BranchUnit(config)
        # Functional units are fully pipelined: a unit is busy only in the
        # cycle an operation issues to it, so each cycle starts from the
        # full pool.  Memory operations are limited by cache ports instead.
        capacity = {
            "int_alu": config.int_alus,
            "int_mul": config.int_muls,
            "fp_alu": config.fp_alus,
            "fp_mul": config.fp_muls,
        }
        pool_index = {pool: i for i, pool in enumerate(capacity)}
        self._fu_capacity = list(capacity.values())
        #: per op class, the index of its pool (None for memory operations)
        self._fu_pool = [pool_index.get(FU_FOR_OP[op]) for op in OpClass]

        # Trace columns as plain lists: scalar indexing is much faster than
        # numpy element access in the per-cycle loop.
        self._op = trace.op_class.tolist()
        self._dep1 = trace.dep1.tolist()
        self._dep2 = trace.dep2.tolist()
        self._mem_level = trace.mem_level.tolist()
        self._mispredict = trace.mispredict.tolist()
        self._icache_miss = trace.icache_miss.tolist()
        self._n_trace = len(trace)

        # Sliding window state, indexed by sequence number modulo _WINDOW.
        self._finish = [0] * _WINDOW
        self._npend = [0] * _WINDOW
        self._base_rc = [0] * _WINDOW
        self._consumers = [[] for _ in range(_WINDOW)]

        self._pending_ready = []  # (ready_cycle, seq)
        self._ready_now = []      # seq
        self._completions = []    # (finish_cycle, seq)

        self.cycle = 0
        self.seq_dispatch = 0
        self.seq_commit = 0
        self.rob_count = 0
        self.lsq_count = 0
        self._icache_stall_until = 0
        self._outstanding_misses = 0
        self.icache_stalls = 0
        self.mshr_stall_cycles = 0
        self.total_committed = 0
        self.total_issued = 0
        self.total_dispatched = 0
        self._estimates = [
            self.power.apriori_issue_estimate(op) for op in range(len(OpClass))
        ]

    # ------------------------------------------------------------------
    def step(self, directives: ControlDirectives = NO_CONTROL) -> CycleStats:
        """Advance one cycle under the given control directives.

        One pass in hardware order: wake consumers of completed producers,
        dispatch (unless fetch is stalled), issue, commit, then close the
        cycle's current in the power model.  The loop state lives in locals
        for the duration of the cycle and is written back at the end.
        """
        cycle = self.cycle
        config = self.config
        power = self.power
        branch_unit = self.branch_unit
        op_list = self._op
        mem_levels = self._mem_level
        mispredict = self._mispredict
        n_trace = self._n_trace
        finish = self._finish
        npend = self._npend
        base_rc = self._base_rc
        consumers = self._consumers
        pending_ready = self._pending_ready
        ready_now = self._ready_now
        completions = self._completions
        outstanding_misses = self._outstanding_misses
        rob_count = self.rob_count
        lsq_count = self.lsq_count

        # -- completions: resolve branches, free MSHRs, wake consumers --
        while completions and completions[0][0] <= cycle:
            finish_cycle, seq = heappop(completions)
            index = seq % n_trace
            op = op_list[index]
            if op == _BRANCH:
                if mispredict[index]:
                    branch_unit.on_resolve(seq, finish_cycle)
            elif op == _LOAD and mem_levels[index] >= 1:
                outstanding_misses -= 1
            w = seq % _WINDOW
            waiters = consumers[w]
            if waiters:
                for consumer in waiters:
                    cw = consumer % _WINDOW
                    if base_rc[cw] < finish_cycle:
                        base_rc[cw] = finish_cycle
                    npend[cw] -= 1
                    if npend[cw] == 0:
                        heappush(pending_ready, (base_rc[cw], consumer))
                consumers[w] = []

        # -- dispatch: in order into the ROB and LSQ ---------------------
        dispatched = 0
        if (
            not directives.stall_fetch
            and cycle >= self._icache_stall_until
            and branch_unit.fetch_allowed(cycle)
        ):
            icache_miss = self._icache_miss
            dep1 = self._dep1
            dep2 = self._dep2
            lsq_entries = config.lsq_entries
            room = min(config.fetch_width, config.rob_entries - rob_count)
            seq = self.seq_dispatch
            while dispatched < room:
                index = seq % n_trace
                if icache_miss[index]:
                    if dispatched:
                        break  # the missing block starts next cycle's stall
                    self._icache_stall_until = cycle + config.icache_miss_penalty
                    self.icache_stalls += 1
                op = op_list[index]
                is_mem = op == _LOAD or op == _STORE
                if is_mem:
                    if lsq_count >= lsq_entries:
                        break
                    lsq_count += 1
                w = seq % _WINDOW
                finish[w] = _UNFINISHED
                ready_cycle = cycle + 1
                pending = 0
                distance = dep1[index]
                if distance and seq >= distance:
                    pw = (seq - distance) % _WINDOW
                    producer_finish = finish[pw]
                    if producer_finish == _UNFINISHED:
                        consumers[pw].append(seq)
                        pending += 1
                    elif producer_finish > ready_cycle:
                        ready_cycle = producer_finish
                distance = dep2[index]
                if distance and seq >= distance:
                    pw = (seq - distance) % _WINDOW
                    producer_finish = finish[pw]
                    if producer_finish == _UNFINISHED:
                        consumers[pw].append(seq)
                        pending += 1
                    elif producer_finish > ready_cycle:
                        ready_cycle = producer_finish
                if pending:
                    npend[w] = pending
                    base_rc[w] = ready_cycle
                else:
                    heappush(pending_ready, (ready_cycle, seq))
                rob_count += 1
                dispatched += 1
                seq += 1
                if op == _BRANCH and mispredict[index]:
                    # Fetch stops behind a mispredicted branch.
                    branch_unit.on_dispatch_mispredict(seq - 1)
                    break
            self.seq_dispatch = seq

        # -- issue: oldest ready first, within width, units and ports ----
        while pending_ready and pending_ready[0][0] <= cycle:
            heappush(ready_now, heappop(pending_ready)[1])
        issued = 0
        issued_estimate = 0.0
        width = config.issue_width
        if directives.issue_width_limit is not None:
            width = max(0, min(width, directives.issue_width_limit))
        if ready_now and width and not directives.stall_issue:
            bounds = directives.issue_estimate_bounds
            estimate_cap = bounds[1] if bounds is not None else None
            ports_free = config.cache_ports
            if directives.cache_ports_limit is not None:
                ports_free = max(0, min(ports_free, directives.cache_ports_limit))
            units_free = self._fu_capacity[:]
            fu_pool = self._fu_pool
            estimates = self._estimates
            mshr_entries = config.mshr_entries
            cache_access = self.cache.access
            add_cache_access = power.add_cache_access
            add_issue = power.add_issue
            blocked = []
            scans = 0
            max_scans = width * _SCAN_FACTOR
            while ready_now and issued < width and scans < max_scans:
                seq = heappop(ready_now)
                scans += 1
                index = seq % n_trace
                op = op_list[index]
                estimate = estimates[op]
                if estimate_cap is not None and issued_estimate + estimate > estimate_cap:
                    blocked.append(seq)
                    break  # damping bound reached: nothing else may issue
                if op == _LOAD or op == _STORE:
                    is_miss = op == _LOAD and mem_levels[index] >= 1
                    if is_miss and outstanding_misses >= mshr_entries:
                        blocked.append(seq)
                        self.mshr_stall_cycles += 1
                        continue
                    if not ports_free:
                        blocked.append(seq)
                        continue
                    ports_free -= 1
                    access = cache_access(mem_levels[index], op == _STORE)
                    latency = access.latency
                    add_cache_access(access)
                    if is_miss:
                        outstanding_misses += 1
                else:
                    pool = fu_pool[op]
                    if not units_free[pool]:
                        blocked.append(seq)
                        continue
                    units_free[pool] -= 1
                    latency = _EXEC_LATENCY[op]
                finish_cycle = cycle + latency
                finish[seq % _WINDOW] = finish_cycle
                heappush(completions, (finish_cycle, seq))
                add_issue(op, latency)
                issued += 1
                issued_estimate += estimate
            for seq in blocked:
                heappush(ready_now, seq)

        # -- commit: in order, finished instructions only ----------------
        committed = 0
        seq = self.seq_commit
        room = min(config.commit_width, self.seq_dispatch - seq)
        while committed < room and finish[seq % _WINDOW] <= cycle:
            op = op_list[seq % n_trace]
            if op == _LOAD or op == _STORE:
                lsq_count -= 1
            committed += 1
            seq += 1
        rob_count -= committed
        self.seq_commit = seq

        self._outstanding_misses = outstanding_misses
        self.rob_count = rob_count
        self.lsq_count = lsq_count

        # -- current ------------------------------------------------------
        if dispatched:
            power.add_dispatch(dispatched)
        if committed:
            power.add_commit(committed)
        power.add_occupancy(rob_count)

        floor = directives.current_floor_amps
        if floor > 0.0:
            phantom = max(0.0, floor - power.preview_current())
        else:
            phantom = 0.0
        if directives.issue_estimate_bounds is not None:
            low = directives.issue_estimate_bounds[0]
            if issued_estimate < low:
                phantom += low - issued_estimate
                issued_estimate = low
        current = power.end_cycle(phantom)

        self.total_committed += committed
        self.total_issued += issued
        self.total_dispatched += dispatched
        self.cycle = cycle + 1
        return CycleStats(
            cycle, current, phantom, dispatched, issued, committed,
            issued_estimate, rob_count,
        )

    # ------------------------------------------------------------------
    @property
    def ipc(self) -> float:
        """Committed instructions per cycle so far."""
        if self.cycle == 0:
            return 0.0
        return self.total_committed / self.cycle

    def run(self, n_cycles: int, directives: ControlDirectives = NO_CONTROL):
        """Run ``n_cycles`` under fixed directives; returns final stats."""
        stats = None
        for _ in range(n_cycles):
            stats = self.step(directives)
        return stats
