"""Stride prefetcher of the base system (paper Table 1).

The paper's baseline includes a stride/stream prefetcher ("32-entry
buffer, max 16 distinct strides") and reports all temporal-streaming
coverage *in excess* of it.  This implementation detects constant-stride
reference patterns per aligned region, confirms a stride after two
consecutive repeats, and then runs ahead by a configurable degree into a
small prefetch buffer.

The stride prefetcher is modeled as on-chip state; its prefetch fills
consume DRAM bandwidth, but because both the baseline and the STMS
configurations include it, its traffic belongs to the *base* system and
is charged as demand-equivalent useful traffic when consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.prefetchers.base import PrefetchBuffer, PrefetchedBlock
from repro.prefetchers.params import (
    STRIDE_BACKLOG_ACCESSES,
    STRIDE_BUFFER_BLOCKS,
    STRIDE_CONFIRM_THRESHOLD,
    STRIDE_DEGREE,
    STRIDE_REGION_SHIFT,
    STRIDE_TRACKER_ENTRIES,
    backlog_limit,
)
from repro.memory.dram import DramChannel


@dataclass(slots=True)
class StrideStats:
    """Counters for the stride prefetcher."""

    trained: int = 0
    issued: int = 0
    useful: int = 0
    erroneous: int = 0
    dropped: int = 0


class StridePrefetcher:
    """Region-based stride detector with a per-core prefetch buffer."""

    __slots__ = ('cores', 'dram', 'tracker_entries', 'degree', 'confirm_threshold', 'stats', '_trackers', 'buffers', '_region_shift', '_backlog_limit')

    def __init__(
        self,
        cores: int,
        dram: DramChannel,
        tracker_entries: int = STRIDE_TRACKER_ENTRIES,
        buffer_blocks: int = STRIDE_BUFFER_BLOCKS,
        degree: int = STRIDE_DEGREE,
        confirm_threshold: int = STRIDE_CONFIRM_THRESHOLD,
    ) -> None:
        if cores <= 0:
            raise ValueError("cores must be positive")
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.cores = cores
        self.dram = dram
        self.tracker_entries = tracker_entries
        self.degree = degree
        self.confirm_threshold = confirm_threshold
        self.stats = StrideStats()
        # Tracker entries are ``[last_block, stride, confirmations]``
        # lists — this is the simulator's hottest predictor path, and
        # list indexing beats attribute access.  Plain dicts in
        # insertion-equals-recency order (refreshed by pop/reinsert).
        self._trackers: "list[dict[int, list]]" = [
            {} for _ in range(cores)
        ]
        self.buffers = [PrefetchBuffer(buffer_blocks) for _ in range(cores)]
        self._region_shift = STRIDE_REGION_SHIFT
        self._backlog_limit = backlog_limit(
            STRIDE_BACKLOG_ACCESSES, dram.config
        )

    def probe(self, core: int, block: int) -> bool:
        """True when ``block`` was stride-prefetched (consumes the entry)."""
        entry = self.buffers[core].take(block)
        if entry is not None:
            self.stats.useful += 1
            return True
        return False

    def train(self, core: int, block: int, now: float) -> None:
        """Observe an L2 access; detect and run confirmed strides."""
        tracker = self._trackers[core]
        region = block >> self._region_shift
        entry = tracker.get(region)
        if entry is None:
            if len(tracker) >= self.tracker_entries:
                del tracker[next(iter(tracker))]
            tracker[region] = [block, 0, 0]
            self.stats.trained += 1
            return
        # LRU-refresh the region (pop/reinsert keeps dict order = recency).
        del tracker[region]
        tracker[region] = entry
        stride = block - entry[0]
        if stride == 0:
            return
        if stride == entry[1]:
            entry[2] += 1
        else:
            entry[1] = stride
            entry[2] = 1
        entry[0] = block
        if entry[2] >= self.confirm_threshold:
            self._run_ahead(core, block, stride, now)

    def _run_ahead(
        self, core: int, block: int, stride: int, now: float
    ) -> None:
        buffer = self.buffers[core]
        resident = buffer._entries
        counts = buffer._stream_counts
        capacity = buffer.capacity
        backlog_limit = self._backlog_limit
        dram = self.dram
        stats = self.stats
        tuple_new = tuple.__new__
        last_target = block
        for i in range(1, self.degree + 1):
            target = block + stride * i
            if target < 0 or target in resident:
                continue
            # Inlined dram.low_backlog(now) > backlog_limit.
            if dram._busy_until_all - now > backlog_limit:
                stats.dropped += 1
                break
            arrival = dram.request_low(now)
            # Inlined PrefetchBuffer.insert (target is known absent).
            if len(resident) >= capacity:
                displaced = resident.pop(next(iter(resident)))
                buffer._forget(displaced)
                stats.erroneous += 1
            resident[target] = tuple_new(
                PrefetchedBlock, (target, now, arrival, -1)
            )
            counts[-1] = counts.get(-1, 0) + 1
            stats.issued += 1
            last_target = target
        self._seed_continuation(core, block, last_target, stride)

    def _seed_continuation(
        self, core: int, block: int, last_target: int, stride: int
    ) -> None:
        """Let a confirmed stream cross tracking-region boundaries.

        Stream buffers follow a reference stream across page boundaries;
        without this, every region crossing re-pays the two-miss training
        cost, which fragments long scans into periodic miss bursts.
        Seeding the next region's tracker with the confirmed stride keeps
        the stream rolling seamlessly.
        """
        region = last_target >> self._region_shift
        if region == block >> self._region_shift:
            return
        tracker = self._trackers[core]
        if region in tracker:
            return
        if len(tracker) >= self.tracker_entries:
            del tracker[next(iter(tracker))]
        tracker[region] = [
            last_target,
            stride,
            self.confirm_threshold - 1,
        ]

    def finalize(self) -> None:
        """Account leftovers as erroneous."""
        for buffer in self.buffers:
            self.stats.erroneous += len(buffer.drain())
