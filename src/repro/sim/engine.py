"""Trace-driven CMP simulator with limited-overlap timing.

Each core replays its trace on a local clock; a heap interleaves cores in
global time order so the shared L2, MSHRs, and DRAM channel observe a
consistent schedule.  Per record:

1. the core spends its compute cycles (``work``),
2. the access walks L1 -> victim buffer -> L2,
3. an off-chip read consults the stride prefetcher's buffer, then the
   temporal prefetcher's buffer, then issues a demand fetch;
4. dependent misses stall the core until data arrives, independent ones
   overlap — memory-level parallelism emerges from the trace's
   dependence structure, bounded by the shared L2 MSHR file.

A warm-up phase (sized by the trace) runs first with full state effects
but no accounting, mirroring the paper's warmed-checkpoint methodology;
statistics are reset at the measurement boundary.

Placement note: the paper probes the prefetch buffer at L1-miss time;
for accounting clarity we probe it after the L2 lookup.  Because the
residency filter prevents prefetching L2-resident blocks, the two
orderings see the same events.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Optional

from repro.memory.config import Priority, TrafficCategory
from repro.memory.dram import DramChannel, DramStats
from repro.memory.hierarchy import CmpHierarchy, ServicePoint
from repro.memory.mshr import MshrFile
from repro.memory.traffic import TrafficMeter
from repro.prefetchers.base import TemporalPrefetcher
from repro.prefetchers.stats import PrefetcherStats
from repro.prefetchers.stride import StridePrefetcher, StrideStats
from repro.sim.config import SimConfig, resolve_engine
from repro.sim.metrics import MlpTracker, stms_transfer_counts
from repro.sim.results import CoverageCounts, SimResult
from repro.sim.timing import demand_priority

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

#: Builds the temporal prefetcher under test.  Receives the core count,
#: the shared DRAM channel and traffic meter, and the residency filter.
TemporalFactory = Callable[
    [int, DramChannel, TrafficMeter, Callable[[int], bool]],
    TemporalPrefetcher,
]


class Simulator:
    """Runs traces against a machine configuration."""

    def __init__(self, config: "SimConfig | None" = None) -> None:
        self.config = config if config is not None else SimConfig()

    def run(
        self,
        trace: Trace,
        temporal_factory: "TemporalFactory | None" = None,
        label: str = "baseline",
        shared: "object | None" = None,
    ) -> SimResult:
        """Simulate ``trace``, optionally with a temporal prefetcher.

        ``shared`` is a sweep invocation's precomputation handle (see
        :class:`repro.sim.sweep.SweepShared`): the compiled kernel pulls
        grid-shared metadata classifications from it instead of
        re-deriving them per cell.  It is a pure compute shortcut —
        results are bit-identical with or without it — and the other
        engines ignore it.

        The batch engine steps the cells :func:`kernel_cell` admits
        (baseline and STMS) in the compiled kernel
        (:mod:`repro.sim.native`; :mod:`repro.sim.library` builds it on
        first use); when the library is unavailable they fall back to
        the Python batch engine like every other cell.
        """
        if trace.cores > self.config.cmp.cores:
            raise ValueError(
                f"trace has {trace.cores} cores but the machine only "
                f"{self.config.cmp.cores}"
            )
        engine = resolve_engine(self.config.engine)
        if engine == "scalar":
            state = _RunState(self.config, trace, temporal_factory)
        else:
            state = None
            if kernel_cell(temporal_factory):
                from repro.sim.library import load

                if load() is not None:
                    from repro.sim.native import NativeRunState

                    state = NativeRunState(
                        self.config, trace, temporal_factory, shared
                    )
            if state is None:
                from repro.sim.batch import BatchRunState

                state = BatchRunState(self.config, trace, temporal_factory)
        state.run_warmup()
        state.reset_accounting()
        state.run_measured()
        return state.result(label)


def kernel_cell(temporal_factory: "TemporalFactory | None") -> bool:
    """Whether the compiled kernel models this cell: no temporal
    prefetcher, or STMS built by a :class:`~repro.core.stms.StmsFactory`
    (what ``make_factory`` returns for ``PrefetcherKind.STMS``)."""
    from repro.core.stms import StmsFactory

    return temporal_factory is None or isinstance(
        temporal_factory, StmsFactory
    )


class _RunState:
    """All mutable state of one simulation run (the scalar reference)."""

    __slots__ = ('config', 'trace', 'traffic', 'hierarchy', 'dram', 'mshrs', 'stride', 'temporal', 'coverage', 'core_coverage', 'mlp', 'miss_log', 'outstanding', 'clocks', 'cursors', 'measure_start', 'measure_cursor', 'measured_records', 'measuring', 'demand_priority', 'measure_counters')

    def __init__(
        self,
        config: SimConfig,
        trace: Trace,
        temporal_factory: "TemporalFactory | None",
    ) -> None:
        self.config = config
        self.trace = trace
        self.traffic = TrafficMeter(cores=max(1, trace.cores))
        self.hierarchy = CmpHierarchy(config.cmp, self.traffic)
        self.dram = DramChannel(config.dram)
        self.mshrs = MshrFile(config.cmp.l2_mshrs)
        self.stride: Optional[StridePrefetcher] = (
            StridePrefetcher(trace.cores, self.dram)
            if config.use_stride
            else None
        )
        self.temporal: Optional[TemporalPrefetcher] = None
        if temporal_factory is not None:
            self.temporal = temporal_factory(
                trace.cores,
                self.dram,
                self.traffic,
                self.hierarchy.l2.lookup,
            )
        self.coverage = CoverageCounts()
        #: Per-core coverage tallies (mix-aware breakdowns); the
        #: aggregate above stays authoritative for the headline metric.
        self.core_coverage = [CoverageCounts() for _ in range(trace.cores)]
        self.mlp = MlpTracker(trace.cores) if config.track_mlp else None
        self.miss_log: "list[list[int]] | None" = (
            [[] for _ in range(trace.cores)]
            if config.collect_miss_log
            else None
        )
        #: Completion times of each core's outstanding off-chip misses
        #: (ROB-window bound on per-core memory-level parallelism).
        self.outstanding: list[list[float]] = [
            [] for _ in range(trace.cores)
        ]
        #: DRAM priority class of each core's demand fetches.  Default
        #: HIGH; asymmetric mixes may demote a core's priority class so
        #: its demand traffic queues behind every other core's (rate-
        #: based bandwidth arbitration between co-runners).
        self.demand_priority = [
            demand_priority(trace.core_priority_of(core))
            for core in range(trace.cores)
        ]
        self.clocks = [0.0] * trace.cores
        self.cursors = [0] * trace.cores
        self.measure_start = [0.0] * trace.cores
        self.measure_cursor = [0] * trace.cores
        self.measured_records = 0
        self.measuring = False
        #: STMS metadata transfer counters at the measurement boundary
        #: (those structures' stats survive the reset).
        self.measure_counters: "dict[str, int] | None" = None

    # ------------------------------------------------------------------
    # Phases.
    # ------------------------------------------------------------------

    def run_warmup(self) -> None:
        limits = [
            self.trace.warmup_records(core)
            for core in range(self.trace.cores)
        ]
        self._run_until(limits)

    def reset_accounting(self) -> None:
        """Statistics reset at the measurement boundary (state kept)."""
        self.traffic.reset()
        self.hierarchy.reset_stats()
        self.dram.stats = DramStats()
        if self.stride is not None:
            self.stride.stats = StrideStats()
        if self.temporal is not None:
            self.temporal.stats = PrefetcherStats()
        self.coverage = CoverageCounts()
        self.core_coverage = [
            CoverageCounts() for _ in range(self.trace.cores)
        ]
        self.measure_start = list(self.clocks)
        self.measure_cursor = list(self.cursors)
        self.measure_counters = stms_transfer_counts(self.temporal)
        self.measuring = True

    def run_measured(self) -> None:
        limits = [
            self.trace.core_records(core)
            for core in range(self.trace.cores)
        ]
        self._run_until(limits)
        self._finalize(max(self.clocks) if self.clocks else 0.0)

    def _finalize(self, end: float) -> None:
        """End of the measured phase: flush the prefetchers' leftovers."""
        if self.temporal is not None:
            self.temporal.finalize(end)
        if self.stride is not None:
            self.stride.finalize()

    def sync(self) -> None:
        """Bring every Python machine object up to date (a no-op here:
        the reference keeps its whole state in them)."""

    def _run_until(self, limits: list[int]) -> None:
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

    # ------------------------------------------------------------------
    # Result assembly.
    # ------------------------------------------------------------------

    def result(self, label: str) -> SimResult:
        cores = range(self.trace.cores)
        core_elapsed = [
            self.clocks[core] - self.measure_start[core] for core in cores
        ]
        elapsed = max(core_elapsed)
        l1_hits = sum(l1.stats.hits for l1 in self.hierarchy.l1s)
        victim_hits = sum(v.hits for v in self.hierarchy.victims)
        return SimResult(
            workload=self.trace.name,
            prefetcher=label,
            measured_records=self.measured_records,
            elapsed_cycles=elapsed,
            coverage=self.coverage,
            l1_hits=l1_hits,
            victim_hits=victim_hits,
            l2_hits=self.hierarchy.l2.stats.hits,
            traffic=self.traffic.breakdown(),
            overhead_per_useful_byte=self.traffic.overhead_per_useful_byte(),
            metadata_bytes=self.traffic.metadata_bytes,
            useful_bytes=self.traffic.useful_bytes,
            mlp=self.mlp.result() if self.mlp is not None else 0.0,
            prefetcher_stats=(
                self.temporal.stats if self.temporal is not None else None
            ),
            dram_utilization=self.dram.utilization(max(elapsed, 1.0)),
            miss_log=self.miss_log,
            core_workloads=(
                list(self.trace.core_workloads)
                if self.trace.core_workloads is not None
                else None
            ),
            core_coverage=list(self.core_coverage),
            core_measured_records=[
                self.cursors[core] - self.measure_cursor[core]
                for core in cores
            ],
            core_elapsed_cycles=core_elapsed,
            core_mlp=(
                self.mlp.per_core() if self.mlp is not None else None
            ),
            core_traffic_bytes=self.traffic.core_breakdown()[
                : self.trace.cores
            ],
        )
