"""Fixed-prefetch-depth single-table prefetcher (EBCP / ULMT style).

Prior single-table designs store a temporal stream inside one
set-associative correlation entry, so each lookup can supply at most
``depth`` successor addresses (three to six in published designs).  Long
streams fragment into ``depth``-sized pieces, each fragment boundary
costing an uncovered trigger miss and, when meta-data is off chip, a
fresh lookup round trip.  Figure 6 (right) quantifies the resulting
coverage loss versus prefetch depth; this class reproduces it by bounding
how far :class:`IdealTmsPrefetcher` may follow a stream per lookup.

``lookup_rounds`` models the off-chip lookup latency in memory round
trips (0 = magic on-chip table, 1 = single-table off-chip designs): the
fragment's prefetches cannot be issued until the lookup returns, so
during that window demand misses pass uncovered — the "lost opportunity
proportional to MLP" the paper describes in Section 5.4.
"""

from __future__ import annotations

from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter
from repro.prefetchers.base import ResidencyFilter
from repro.prefetchers.ideal_tms import IdealTmsPrefetcher, _StreamCursor


class FixedDepthPrefetcher(IdealTmsPrefetcher):
    """Ideal TMS restricted to ``depth`` prefetches per lookup."""

    def __init__(
        self,
        cores: int,
        dram: DramChannel,
        traffic: TrafficMeter,
        depth: int,
        residency_filter: ResidencyFilter | None = None,
        buffer_blocks: int = 32,
        lookup_rounds: int = 0,
    ) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        if lookup_rounds < 0:
            raise ValueError("lookup_rounds must be non-negative")
        super().__init__(
            cores,
            dram,
            traffic,
            residency_filter,
            buffer_blocks,
            lookahead=depth,
        )
        self.depth = depth
        self.lookup_rounds = lookup_rounds
        #: History positions at which each core's current fragment ends.
        self._fragment_end: list[int | None] = [None] * cores

    def on_demand_miss(self, core: int, block: int, now: float) -> None:
        self.stats.lookups += 1
        located = self.index.lookup(block)
        self._record(core, block)
        if located is None:
            # Unrelated miss: keep draining the current fragment.
            return
        self.stats.lookup_hits += 1
        source_core, position = located
        self._next_serial += 1
        self._streams[core] = _StreamCursor(
            source_core, position + 1, self._next_serial
        )
        self._fragment_end[core] = position + 1 + self.depth
        ready = now + self.lookup_rounds * self.dram.config.access_latency_cycles
        self._stream_ahead(core, ready)

    def _stream_ahead(self, core: int, now: float) -> None:
        """Stream, but never past the current fragment boundary."""
        cursor = self._streams[core]
        fragment_end = self._fragment_end[core]
        if cursor is None or fragment_end is None:
            return
        source = self.histories[cursor.source_core]
        buffer = self.buffers[core]
        # Unlike split-table streaming, a single-table design retrieves the
        # whole fixed-size entry at once, so the entire fragment issues
        # immediately (bounded only by buffer capacity).
        budget = self.depth - buffer.outstanding(cursor.serial)
        issued = 0
        while (
            issued < budget
            and cursor.position < len(source)
            and cursor.position < fragment_end
        ):
            block = source[cursor.position]
            cursor.position += 1
            if self._issue_prefetch(core, block, now, stream=cursor.serial):
                issued += 1
        if cursor.position >= fragment_end or cursor.position >= len(source):
            # Fragment exhausted: the next miss must trigger a new lookup.
            self._streams[core] = None
            self._fragment_end[core] = None
