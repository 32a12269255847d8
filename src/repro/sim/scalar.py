"""The scalar reference engine: the Python machine, stepped record by record.

:func:`build_machine` builds the machine model (hierarchy, MSHRs, DRAM
channel, stride and temporal prefetchers); :class:`ScalarRunState`
steps it in global ``(clock, core)`` order.  It is the executable
specification the batch engine and the compiled kernel are held to, bit
for bit, and the kernel's ``sync()`` unpacks into the same machine.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.memory.config import Priority, TrafficCategory
from repro.memory.dram import DramChannel, DramStats
from repro.memory.hierarchy import CmpHierarchy, ServicePoint
from repro.memory.mshr import MshrFile
from repro.prefetchers.stats import PrefetcherStats
from repro.prefetchers.stride import StridePrefetcher, StrideStats
from repro.sim.engine import _RunState
from repro.sim.metrics import stms_transfer_counts

if TYPE_CHECKING:
    from repro.sim.engine import TemporalFactory


def build_machine(
    state: _RunState, temporal_factory: "TemporalFactory | None"
) -> None:
    """Build ``state``'s Python machine, fresh, around its traffic meter."""
    config, cores = state.config, state.trace.cores
    state.hierarchy = CmpHierarchy(config.cmp, state.traffic)
    state.dram = DramChannel(config.dram)
    state.mshrs = MshrFile(config.cmp.l2_mshrs)
    state.stride = (
        StridePrefetcher(cores, state.dram) if config.use_stride else None
    )
    state.temporal = (
        temporal_factory(
            cores, state.dram, state.traffic, state.hierarchy.l2.lookup
        )
        if temporal_factory is not None
        else None
    )
    # Completion times of each core's outstanding off-chip misses
    # (ROB-window bound on per-core memory-level parallelism).
    state.outstanding = [[] for _ in range(cores)]


class ScalarRunState(_RunState):
    """The reference run state: the Python machine, one record a step."""

    __slots__ = ()

    def __init__(self, config, trace, temporal_factory) -> None:
        super().__init__(config, trace, temporal_factory)
        build_machine(self, temporal_factory)

    def _reset_machine(self) -> None:
        self.hierarchy.reset_stats()
        self.dram.stats = DramStats()
        if self.stride is not None:
            self.stride.stats = StrideStats()
        if self.temporal is not None:
            self.temporal.stats = PrefetcherStats()
        self.measure_counters = stms_transfer_counts(self.temporal)

    def _finalize(self, end: float) -> None:
        if self.temporal is not None:
            self.temporal.finalize(end)
        if self.stride is not None:
            self.stride.finalize()

    def _machine_counts(self):
        hierarchy = self.hierarchy
        return (
            sum(l1.stats.hits for l1 in hierarchy.l1s),
            sum(victim.hits for victim in hierarchy.victims),
            hierarchy.l2.stats.hits,
            self.dram.stats.busy_cycles,
            self.temporal.stats if self.temporal is not None else None,
        )

    def _run_until(self, limits: "list[int]") -> None:
        """Advance every core to its per-core record limit, time-ordered."""
        heap = [
            (self.clocks[core], core)
            for core in range(self.trace.cores)
            if self.cursors[core] < limits[core]
        ]
        heapq.heapify(heap)
        while heap:
            _, core = heapq.heappop(heap)
            self._step(core)
            if self.cursors[core] < limits[core]:
                heapq.heappush(heap, (self.clocks[core], core))

    # ------------------------------------------------------------------
    # One trace record.
    # ------------------------------------------------------------------

    def _step(self, core: int) -> None:
        i = self.cursors[core]
        self.cursors[core] = i + 1
        block = int(self.trace.blocks[core][i])
        dep = bool(self.trace.dep[core][i])
        write = bool(self.trace.write[core][i])
        timing = self.config.timing

        t = self.clocks[core] + float(self.trace.work[core][i])
        if self.measuring:
            self.measured_records += 1

        event = self.hierarchy.access(core, block, write=write)
        service = event.service

        if service is ServicePoint.L1:
            t += timing.l1_hit
        elif service is ServicePoint.VICTIM:
            t += timing.victim_hit
            self._drain_writebacks(event.writebacks, t)
        elif service is ServicePoint.L2:
            t += timing.l2_hit(dep)
            self._drain_writebacks(event.writebacks, t)
            if self.stride is not None:
                self.stride.train(core, block, t)
        else:
            t = self._off_chip(core, block, t, dep, write)

        self.clocks[core] = t

    def _off_chip(
        self, core: int, block: int, t: float, dep: bool, write: bool
    ) -> float:
        """Resolve an access no on-chip level could satisfy."""
        timing = self.config.timing

        # 1. Stride prefetcher buffer (part of the base system).
        if self.stride is not None and self.stride.probe(core, block):
            self.traffic.add_block(TrafficCategory.DEMAND_READ, core)
            if self.measuring:
                self.coverage.stride_covered += 1
                self.core_coverage[core].stride_covered += 1
            t += timing.stride_hit(dep)
            self._fill(core, block, write, t)
            self.stride.train(core, block, t)
            return t

        # 2. Temporal prefetcher buffer.
        if self.temporal is not None:
            entry = self.temporal.consume(core, block, t)
            if entry is not None:
                if entry.is_arrived(t):
                    if self.measuring:
                        self.coverage.fully_covered += 1
                        self.core_coverage[core].fully_covered += 1
                    t += timing.prefetch_hit(dep)
                else:
                    if self.measuring:
                        self.coverage.partially_covered += 1
                        self.core_coverage[core].partially_covered += 1
                    if dep:
                        # A demand hit on an in-flight prefetch upgrades
                        # it to demand urgency: the wait is capped at what
                        # a fresh fetch at the core's demand priority
                        # would take (the transfer itself was charged at
                        # prefetch issue).
                        arrival = min(
                            entry.arrival,
                            self.dram.peek_completion(
                                t, self.demand_priority[core]
                            ),
                        )
                        t = arrival + timing.prefetch_hit_dep
                    else:
                        t += timing.prefetch_hit_indep
                self._fill(core, block, write, t)
                if self.stride is not None:
                    self.stride.train(core, block, t)
                return t

        # 3. Demand fetch from main memory.
        issue = t
        # Per-core miss window: an out-of-order core can only run ahead a
        # bounded number of outstanding off-chip misses.
        window = self.outstanding[core]
        if window:
            window[:] = [c for c in window if c > issue]
            while len(window) >= timing.core_miss_window:
                issue = min(window)
                window.remove(issue)
        self.mshrs.retire_complete(issue)
        existing = self.mshrs.outstanding(block)
        if existing is not None:
            # Another core is already fetching this block: merge.
            self.mshrs.merge(block)
            completion = existing.complete_at
        else:
            if self.mshrs.full:
                earliest = self.mshrs.earliest_completion()
                if earliest is not None:
                    issue = max(issue, earliest)
                    self.mshrs.retire_complete(issue)
            completion = self.dram.request(
                issue, self.demand_priority[core]
            )
            self.traffic.add_block(TrafficCategory.DEMAND_READ, core)
            self.mshrs.allocate(block, completion)
        if self.measuring:
            self.coverage.uncovered += 1
            self.core_coverage[core].uncovered += 1
            if self.mlp is not None:
                self.mlp.add(core, issue, completion)
            if self.miss_log is not None:
                self.miss_log[core].append(block)
        if dep:
            t = completion
            window.clear()
        else:
            t = issue + timing.miss_issue_overhead
            window.append(completion)
        self._fill(core, block, write, t)
        if self.temporal is not None:
            self.temporal.on_demand_miss(core, block, issue)
        if self.stride is not None:
            self.stride.train(core, block, t)
        return t

    def _fill(self, core: int, block: int, write: bool, now: float) -> None:
        writebacks = self.hierarchy.fill_off_chip(core, block, dirty=write)
        self._drain_writebacks(writebacks, now)

    def _drain_writebacks(self, writebacks: list, now: float) -> None:
        for _ in writebacks:
            self.dram.request(now, Priority.HIGH)
