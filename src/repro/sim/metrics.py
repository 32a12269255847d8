"""Measuring and checking one run: MLP tracking, the conservation laws
(:func:`check_invariants`) and machine-state snapshots.  The result
types a run produces live in :mod:`repro.sim.results`.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields

from repro.memory.config import BLOCK_BYTES, Priority, TrafficCategory
from repro.sim.results import CoverageCounts, SimResult


@dataclass(slots=True)
class _IntervalAccumulator:
    """Online union/total tracker for one core's miss intervals.

    Intervals arrive in non-decreasing start order (the core clock is
    monotonic), so the union can be merged incrementally.
    """

    total: float = 0.0
    union: float = 0.0
    _current_start: float = -1.0
    _current_end: float = -1.0
    count: int = 0

    def add(self, start: float, end: float) -> None:
        if end < start:
            raise ValueError("interval end precedes start")
        self.total += end - start
        self.count += 1
        if self._current_end < 0:
            self._current_start, self._current_end = start, end
            return
        if start <= self._current_end:
            self._current_end = max(self._current_end, end)
        else:
            self.union += self._current_end - self._current_start
            self._current_start, self._current_end = start, end

    def finish(self) -> None:
        if self._current_end >= 0:
            self.union += self._current_end - self._current_start
            self._current_start = self._current_end = -1.0

    @property
    def mlp(self) -> float:
        if self.union <= 0:
            return 1.0 if self.count else 0.0
        return self.total / self.union


class MlpTracker:
    """Per-core interval accumulation -> miss-weighted average MLP."""

    def __init__(self, cores: int) -> None:
        self._accumulators = [_IntervalAccumulator() for _ in range(cores)]

    def add(self, core: int, start: float, end: float) -> None:
        self._accumulators[core].add(start, end)

    def result(self) -> float:
        total_weighted = 0.0
        total_count = 0
        for accumulator in self._accumulators:
            accumulator.finish()
            if accumulator.count:
                total_weighted += accumulator.mlp * accumulator.count
                total_count += accumulator.count
        if total_count == 0:
            return 0.0
        return total_weighted / total_count

    def per_core(self) -> "list[float]":
        """Per-core MLP values (0.0 for cores with no off-chip misses).

        ``finish`` is idempotent, so this composes with :meth:`result`
        in either order.
        """
        values: "list[float]" = []
        for accumulator in self._accumulators:
            accumulator.finish()
            values.append(accumulator.mlp if accumulator.count else 0.0)
        return values


def snapshot_run_state(state) -> dict:
    """Deep snapshot of one engine run's observable machine state.

    Captures everything the differential-equivalence suite compares
    between the scalar reference engine and the other engines: per-core
    clocks and cursors, cache/victim contents and counters, traffic
    bytes per category (which the batched path accumulates from segment
    sums), DRAM and MSHR state, the per-core MLP accumulators,
    stride-prefetcher tables, and — when the temporal prefetcher is
    STMS — the full off-chip metadata state: index-table buckets,
    history buffers (including un-spilled pack segments), bucket-buffer
    residency, stream engines, and the sampler (counters, pending coin
    batch and cursor, and RNG state).

    Cache sets and stride trackers are captured in their dict order,
    which is their LRU order: a replacement-order slip shows up here
    before it changes any counter.  ``state.sync()`` runs first, so an
    engine that keeps its machine outside the Python objects (the
    compiled kernel) is captured whole.
    """
    state.sync()
    hierarchy = state.hierarchy
    snap: dict = {
        "clocks": list(state.clocks),
        "cursors": list(state.cursors),
        "measured_records": state.measured_records,
        "coverage": astuple(state.coverage),
        "demand_accesses": hierarchy.demand_accesses,
        "off_chip_reads": hierarchy.off_chip_reads,
        "l1": [
            (astuple(l1.stats), [list(s.items()) for s in l1._sets])
            for l1 in hierarchy.l1s
        ],
        "victims": [
            (victim.hits, list(victim._fifo.items()))
            for victim in hierarchy.victims
        ],
        "l2": (
            astuple(hierarchy.l2.stats),
            [list(s.items()) for s in hierarchy.l2._sets],
        ),
        "l1_copies": dict(hierarchy._l1_copies),
        "traffic": {
            category.value: count
            for category, count in state.traffic._bytes.items()
        },
        "core_traffic": state.traffic.core_breakdown(),
        "demand_priority": [int(p) for p in state.demand_priority],
        "dram": (
            astuple(state.dram.stats),
            state.dram._busy_until_high,
            state.dram._busy_until_all,
        ),
        "mshr": (
            astuple(state.mshrs.stats),
            sorted(
                (entry.block, entry.complete_at, entry.waiters)
                for entry in state.mshrs._entries.values()
            ),
        ),
        "outstanding": [sorted(window) for window in state.outstanding],
        "core_coverage": [astuple(c) for c in state.core_coverage],
    }
    if state.mlp is not None:
        snap["mlp"] = [
            (acc.total, acc.union, acc._current_start, acc._current_end,
             acc.count)
            for acc in state.mlp._accumulators
        ]
    stride = state.stride
    if stride is not None:
        snap["stride"] = (
            astuple(stride.stats),
            [
                [(region, tuple(entry)) for region, entry in tracker.items()]
                for tracker in stride._trackers
            ],
            [
                (list(buffer._entries.items()),
                 dict(buffer._stream_counts))
                for buffer in stride.buffers
            ],
        )
    temporal = state.temporal
    if temporal is not None:
        snap["temporal_stats"] = astuple(temporal.stats)
        snap["temporal_buffers"] = [
            (list(buffer._entries.items()), dict(buffer._stream_counts))
            for buffer in temporal.buffers
        ]
        if hasattr(temporal, "bucket_buffer"):
            snap["stms"] = {
                "counters": astuple(temporal.counters),
                "sampler": (
                    temporal.sampler.flips,
                    temporal.sampler.accepted,
                    temporal.sampler._cursor,
                    list(temporal.sampler._draws),
                    temporal.sampler._rng.bit_generator.state,
                ),
                "index": (
                    astuple(temporal.index.stats),
                    [
                        temporal.index.bucket_contents(bucket)
                        for bucket in range(temporal.index.buckets)
                    ],
                ),
                "histories": [
                    (
                        history.head,
                        astuple(history.stats),
                        list(history._blocks),
                        list(history._marks),
                        list(history._pend_blocks),
                        list(history._pend_marks),
                    )
                    for history in temporal.histories
                ],
                "bucket_buffer": (
                    astuple(temporal.bucket_buffer.stats),
                    list(temporal.bucket_buffer._resident.items()),
                    dict(temporal.bucket_buffer._dirty_core),
                ),
                "engines": [
                    (
                        engine.serial,
                        engine.active,
                        engine.source_core,
                        engine.next_fetch_sequence,
                        engine.paused_at,
                        list(engine._queue),
                        list(engine._issued.items()),
                        engine.last_consumed,
                        engine.consumed_count,
                    )
                    for engine in temporal.engines
                ],
            }
    return snap


def stms_transfer_counts(temporal) -> "dict[str, int] | None":
    """Cumulative off-chip transfer counters of an STMS prefetcher's
    metadata structures (None for any other prefetcher).

    These structures keep their stats across the measurement boundary,
    so :func:`check_invariants` compares deltas against the copy the
    run state takes at ``reset_accounting``.
    """
    if temporal is None or not hasattr(temporal, "bucket_buffer"):
        return None
    buckets = temporal.bucket_buffer.stats
    histories = [history.stats for history in temporal.histories]
    return {
        "bucket_misses": buckets.misses,
        "bucket_update_misses": buckets.update_misses,
        "bucket_writebacks": buckets.writebacks,
        "packed_writes": sum(h.packed_writes for h in histories),
        "block_reads": sum(h.block_reads for h in histories),
        "annotations": sum(h.annotations for h in histories),
    }


class InvariantViolation(AssertionError):
    """A finished run broke a conservation law (:func:`check_invariants`)."""


def check_invariants(state, result: "SimResult") -> None:
    """Check the conservation laws every finished run must satisfy.

    The laws relate counters kept by different structures, so they hold
    whatever engine produced ``state`` and catch a modelling bug the
    engines share, which engine-vs-engine comparison cannot:

    * stride + fully + partially covered + uncovered reads equal the
      measured off-chip reads, globally and summed over cores;
    * DRAM ``requests`` equal high- plus low-priority requests;
    * every traffic category moves whole blocks: consumed and dropped
      temporal prefetches match the prefetcher's ``useful`` and
      ``erroneous`` counts;
    * per-core traffic sums to the global counters;
    * low-priority DRAM requests equal stride and temporal prefetches
      issued plus the demand fetches of demoted (LOW-priority) cores,
      plus, in an STMS cell (measured from the boundary), bucket-buffer
      misses and write-backs, history packed writes, block reads and
      annotations;
    * in every cell but STMS (the others move no meta-data off chip),
      demand reads plus write-backs equal the channel's requests less
      stride and temporal prefetches issued, plus stride-buffer hits
      (each of those moves a demand-read block without a new request);
    * in an STMS cell, record, lookup and update traffic equal one
      block per packed write or annotation, per lookup bucket miss or
      history block read, and per update bucket miss or write-back
      respectively;
    * MSHR peak occupancy stays within capacity;
    * each core's measured cycles cover at least its measured ``work``.

    ``state.sync()`` runs first, so an engine that keeps its machine
    outside the Python objects (the compiled kernel) is checked whole.
    Raises :class:`InvariantViolation` listing every broken law.
    """
    import numpy as np

    state.sync()
    problems: "list[str]" = []

    def expect(holds: bool, law: str) -> None:
        if not holds:
            problems.append(law)

    coverage = state.coverage
    reads = coverage.stride_covered + coverage.temporal_eligible
    expect(
        reads == state.hierarchy.off_chip_reads,
        f"coverage classes sum to {reads}, measured off-chip reads are "
        f"{state.hierarchy.off_chip_reads}",
    )
    for field_ in fields(CoverageCounts):
        total = sum(getattr(c, field_.name) for c in state.core_coverage)
        expect(
            total == getattr(coverage, field_.name),
            f"per-core {field_.name} sums to {total}, global is "
            f"{getattr(coverage, field_.name)}",
        )

    dram = state.dram.stats
    expect(
        dram.requests
        == dram.high_priority_requests + dram.low_priority_requests,
        f"DRAM requests {dram.requests} != high "
        f"{dram.high_priority_requests} + low {dram.low_priority_requests}",
    )

    counts = state.traffic._bytes
    for category, count in counts.items():
        expect(
            count % BLOCK_BYTES == 0,
            f"{category.value} bytes {count} are not whole blocks",
        )
    temporal = state.temporal
    for category, events in (
        (TrafficCategory.USEFUL_PREFETCH,
         temporal.stats.useful if temporal is not None else 0),
        (TrafficCategory.ERRONEOUS_PREFETCH,
         temporal.stats.erroneous if temporal is not None else 0),
    ):
        expect(
            counts[category] == BLOCK_BYTES * events,
            f"{category.value} bytes {counts[category]} != "
            f"{BLOCK_BYTES} x {events} prefetches",
        )
    core_bytes = state.traffic._core_bytes
    stride_issued = (
        state.stride.stats.issued if state.stride is not None else 0
    )
    temporal_issued = temporal.stats.issued if temporal is not None else 0
    demoted = sum(
        core_bytes[core][TrafficCategory.DEMAND_READ] // BLOCK_BYTES
        - state.core_coverage[core].stride_covered
        for core, priority in enumerate(state.demand_priority)
        if priority is Priority.LOW
    )
    low = stride_issued + temporal_issued + demoted
    end = stms_transfer_counts(temporal)
    if end is None:
        blocks = (
            dram.requests - stride_issued - temporal_issued
            + coverage.stride_covered
        )
        moved = (
            counts[TrafficCategory.DEMAND_READ]
            + counts[TrafficCategory.WRITEBACK]
        )
        expect(
            moved == BLOCK_BYTES * blocks,
            f"demand-read + write-back bytes {moved} != {BLOCK_BYTES} x "
            f"{blocks} (requests - prefetches issued + stride hits)",
        )
    else:
        start = state.measure_counters
        delta = {name: end[name] - start[name] for name in end}
        low += (
            delta["bucket_misses"] + delta["bucket_writebacks"]
            + delta["packed_writes"] + delta["block_reads"]
            + delta["annotations"]
        )
        for category, blocks in (
            (TrafficCategory.RECORD_STREAMS,
             delta["packed_writes"] + delta["annotations"]),
            (TrafficCategory.LOOKUP_STREAMS,
             delta["bucket_misses"] - delta["bucket_update_misses"]
             + delta["block_reads"]),
            (TrafficCategory.UPDATE_INDEX,
             delta["bucket_update_misses"] + delta["bucket_writebacks"]),
        ):
            expect(
                counts[category] == BLOCK_BYTES * blocks,
                f"{category.value} bytes {counts[category]} != "
                f"{BLOCK_BYTES} x {blocks} structure transfers",
            )
    expect(
        dram.low_priority_requests == low,
        f"DRAM low-priority requests {dram.low_priority_requests} != "
        f"{low} (prefetches + metadata transfers + demoted demand)",
    )
    for category, count in counts.items():
        total = sum(per_core[category] for per_core in core_bytes)
        expect(
            total == count,
            f"per-core {category.value} bytes sum to {total}, global is "
            f"{count}",
        )

    mshrs = state.mshrs
    expect(
        mshrs.stats.peak_occupancy <= mshrs.capacity,
        f"MSHR peak occupancy {mshrs.stats.peak_occupancy} exceeds "
        f"capacity {mshrs.capacity}",
    )

    trace = state.trace
    for core, elapsed in enumerate(result.core_elapsed_cycles or []):
        work = float(np.sum(
            trace.work[core][state.measure_cursor[core]:state.cursors[core]],
            dtype=np.float64,
        ))
        # The clock is a long sequential float sum: allow its rounding.
        slack = 1e-9 * max(1.0, abs(state.clocks[core]))
        expect(
            elapsed + slack >= work,
            f"core {core} ran {elapsed} measured cycles for {work} cycles "
            f"of work",
        )
    expect(
        sum(result.core_measured_records or [])
        == result.measured_records,
        "per-core measured records do not sum to the total",
    )

    if problems:
        raise InvariantViolation("; ".join(problems))
