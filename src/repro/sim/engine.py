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

Three run states step a cell, each inheriting :class:`_RunState`'s
phases, accounting and result assembly: the scalar reference
(:mod:`repro.sim.scalar`) builds the Python machine model at
construction and steps it record by record, the batch engine
(:mod:`repro.sim.batch`) fuses its per-record step, and the compiled
kernel (:mod:`repro.sim.native`) builds its machine from the
configuration alone, and the Python one only in ``sync()``.  This
module imports no machine model, so a kernel cell loads none.

Placement note: the paper probes the prefetch buffer at L1-miss time;
for accounting clarity we probe it after the L2 lookup.  Because the
residency filter prevents prefetching L2-resident blocks, the two
orderings see the same events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.memory.dram import utilization
from repro.memory.traffic import TrafficMeter
from repro.sim.config import SimConfig, kernel_cell, resolve_engine
from repro.sim.metrics import MlpTracker
from repro.sim.results import CoverageCounts, SimResult
from repro.sim.timing import demand_priority

if TYPE_CHECKING:
    from repro.memory.dram import DramChannel
    from repro.prefetchers.base import TemporalPrefetcher
    from repro.workloads.trace import Trace

#: Builds the temporal prefetcher under test.  Receives the core count,
#: the shared DRAM channel and traffic meter, and the residency filter.
TemporalFactory = Callable[
    [int, "DramChannel", TrafficMeter, Callable[[int], bool]],
    "TemporalPrefetcher",
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
    ) -> SimResult:
        """Simulate ``trace``, optionally with a temporal prefetcher, in
        the run state :func:`run_state_class` picks for the cell."""
        if trace.cores > self.config.cmp.cores:
            raise ValueError(
                f"trace has {trace.cores} cores but the machine only "
                f"{self.config.cmp.cores}"
            )
        state = run_state_class(self.config.engine, temporal_factory)(
            self.config, trace, temporal_factory
        )
        state.run_warmup()
        state.reset_accounting()
        state.run_measured()
        return state.result(label)


def run_state_class(
    engine: str, temporal_factory: "TemporalFactory | None"
) -> "type[_RunState]":
    """The run state that steps one cell, importing only its module.

    On the ``batch`` engine (:func:`resolve_engine` reads ``"auto"``)
    the cells :func:`kernel_cell` admits (baseline and STMS) run in the
    compiled kernel (:mod:`repro.sim.native`; :mod:`repro.sim.library`
    builds it on first use); every other cell, and a kernel cell when
    the library is unavailable, runs in the Python batch engine.  The
    ``scalar`` engine runs every cell in the reference.
    """
    engine = resolve_engine(engine)
    if engine == "batch" and kernel_cell(temporal_factory):
        from repro.sim.library import load

        if load() is not None:
            from repro.sim.native import NativeRunState

            return NativeRunState
    if engine == "scalar":
        from repro.sim.scalar import ScalarRunState

        return ScalarRunState
    from repro.sim.batch import BatchRunState

    return BatchRunState


class _RunState:
    """One run's phases, accounting and result.

    Subclasses own the machine: ``_run_until(limits)`` steps it,
    ``_reset_machine()`` zeroes its statistics at the measurement
    boundary, ``_finalize(end)`` flushes it, and ``_machine_counts()``
    returns what the result takes from it: L1, victim-buffer and L2
    hits, DRAM busy cycles and the temporal prefetcher's stats.
    """

    #: Whether construction builds the Python machine, and with it the
    #: temporal factory's prefetcher model (the kernel builds neither).
    builds_machine = True

    __slots__ = ('config', 'trace', 'traffic', 'mlp', 'coverage', 'core_coverage', 'miss_log', 'demand_priority', 'clocks', 'cursors', 'measure_start', 'measure_cursor', 'measured_records', 'measuring', 'measure_counters', 'hierarchy', 'dram', 'mshrs', 'stride', 'temporal', 'outstanding')

    def __init__(
        self,
        config: SimConfig,
        trace: Trace,
        temporal_factory: "TemporalFactory | None",
    ) -> None:
        self.config = config
        self.trace = trace
        self.traffic = TrafficMeter(cores=max(1, trace.cores))
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
        #: The Python machine (``sim.scalar.build_machine``) and, per
        #: core, the completion times of its outstanding off-chip misses:
        #: None until built.
        self.hierarchy = self.dram = self.mshrs = None
        self.stride = self.temporal = self.outstanding = None

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
        self._reset_machine()
        self.traffic.reset()
        self.coverage = CoverageCounts()
        self.core_coverage = [
            CoverageCounts() for _ in range(self.trace.cores)
        ]
        self.measure_start = list(self.clocks)
        self.measure_cursor = list(self.cursors)
        self.measuring = True

    def run_measured(self) -> None:
        limits = [
            self.trace.core_records(core)
            for core in range(self.trace.cores)
        ]
        self._run_until(limits)
        self._finalize(max(self.clocks) if self.clocks else 0.0)

    def sync(self) -> None:
        """Bring the Python machine up to date (a no-op for engines
        that keep their whole state in it)."""

    # ------------------------------------------------------------------
    # Result assembly.
    # ------------------------------------------------------------------

    def result(self, label: str) -> SimResult:
        cores = range(self.trace.cores)
        core_elapsed = [
            self.clocks[core] - self.measure_start[core] for core in cores
        ]
        elapsed = max(core_elapsed)
        l1_hits, victim_hits, l2_hits, dram_busy, prefetcher_stats = (
            self._machine_counts()
        )
        return SimResult(
            workload=self.trace.name,
            prefetcher=label,
            measured_records=self.measured_records,
            elapsed_cycles=elapsed,
            coverage=self.coverage,
            l1_hits=l1_hits,
            victim_hits=victim_hits,
            l2_hits=l2_hits,
            traffic=self.traffic.breakdown(),
            overhead_per_useful_byte=self.traffic.overhead_per_useful_byte(),
            metadata_bytes=self.traffic.metadata_bytes,
            useful_bytes=self.traffic.useful_bytes,
            mlp=self.mlp.result() if self.mlp is not None else 0.0,
            prefetcher_stats=prefetcher_stats,
            dram_utilization=utilization(dram_busy, max(elapsed, 1.0)),
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
