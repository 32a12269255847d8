"""Sampled Temporal Memory Streaming: the practical off-chip prefetcher.

:class:`StmsPrefetcher` wires the paper's Figure 2 together:

* per-core **history buffers** and a shared **index table**, both living
  in a reserved region of simulated main memory (every access charged to
  the DRAM channel at low priority);
* a shared on-chip **bucket buffer** (8 KB) caching index buckets between
  lookup, update, and write-back;
* per-core **stream engines** with FIFO address queues feeding per-core
  **prefetch buffers** (2 KB each).

Operation on an off-chip read miss:

1. If the miss matches an end-of-stream pause, streaming resumes.
2. Otherwise the miss address is hashed and its bucket fetched (one
   memory access unless buffered); a tag match yields a history pointer.
3. The miss is recorded in the core's history buffer; with probability
   ``sampling_probability`` the index entry is (re)pointed at it.
4. On a pointer hit, the stream engine fetches the history block at the
   pointer (second memory access) and starts streaming: the address
   queue issues prefetches, maintaining ``lookahead`` in flight, and
   refills itself with further history blocks as the core consumes.

Total off-chip lookup cost: two round trips, amortized over an
arbitrarily long stream — the paper's central practicality claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bucket_buffer import BucketBuffer
from repro.core.codec import HISTORY_ENTRIES_PER_BLOCK
from repro.core.config import StmsConfig
from repro.core.history_buffer import HistoryBuffer, HistoryPointer
from repro.core.index_table import IndexTable
from repro.core.sampling import ProbabilisticSampler
from repro.core.stream_engine import StreamEngine
from repro.memory.address import AddressSpace
from repro.memory.config import BLOCK_BYTES, TrafficCategory
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter
from repro.prefetchers.base import ResidencyFilter, TemporalPrefetcher


@dataclass
class StmsCounters:
    """STMS-specific event counters (beyond PrefetcherStats)."""

    resumes: int = 0
    annotations: int = 0
    stale_pointers: int = 0
    candidate_updates: int = 0
    applied_updates: int = 0


class StmsPrefetcher(TemporalPrefetcher):
    """The paper's practical design with off-chip meta-data."""

    __slots__ = ('config', 'counters', 'address_space', 'index', 'histories', 'bucket_buffer', 'sampler', 'engines')

    def __init__(
        self,
        config: StmsConfig,
        dram: DramChannel,
        traffic: TrafficMeter,
        address_space: "AddressSpace | None" = None,
        residency_filter: ResidencyFilter | None = None,
    ) -> None:
        super().__init__(
            config.cores,
            dram,
            traffic,
            residency_filter,
            config.prefetch_buffer_blocks,
        )
        self.config = config
        self.counters = StmsCounters()
        if address_space is None:
            address_space = AddressSpace(3 * 1024 ** 3)
        self.address_space = address_space

        address_space.reserve(config.index_buckets * BLOCK_BYTES)
        self.index = IndexTable(
            buckets=config.index_buckets,
            bucket_entries=config.bucket_entries,
            tag_bits=config.tag_bits,
        )
        self.histories: list[HistoryBuffer] = []
        history_blocks = -(-config.history_entries // HISTORY_ENTRIES_PER_BLOCK)
        for core in range(config.cores):
            region = address_space.reserve(history_blocks * BLOCK_BYTES)
            self.histories.append(
                HistoryBuffer(
                    core=core,
                    capacity_entries=config.history_entries,
                    region=region,
                    dram=dram,
                    traffic=traffic,
                )
            )
        self.bucket_buffer = BucketBuffer(
            capacity=config.bucket_buffer_entries, dram=dram, traffic=traffic
        )
        self.sampler = ProbabilisticSampler(
            config.sampling_probability, seed=config.seed
        )
        self.engines = [
            StreamEngine(
                core=core,
                queue_capacity=config.address_queue_entries,
                refill_threshold=config.queue_refill_threshold,
            )
            for core in range(config.cores)
        ]

    # ------------------------------------------------------------------
    # Trigger path.
    # ------------------------------------------------------------------

    def metadata_columns(
        self, blocks_arrays: "list"
    ) -> "tuple[list, list | None]":
        """Pre-classify whole block columns into index buckets and tags.

        One NumPy block column per core in, int64 bucket/tag columns
        out, computed in one vectorized pass each.  With full-address
        tags (``tag_bits is None``) the tag element is ``None``: the
        caller reuses its block columns as the tag columns.  Nothing in
        the simulator calls it (the compiled kernel hashes each miss
        itself); it stays because the benchmark's tracing layer wraps it
        by name.
        """
        index = self.index
        buckets = [index.bucket_of_array(blocks) for blocks in blocks_arrays]
        if self.config.tag_bits is None:
            # Full-address tags: the caller can alias its block columns.
            return buckets, None
        return buckets, [index.tag_of_array(b) for b in blocks_arrays]

    def on_demand_miss(self, core: int, block: int, now: float) -> None:
        engine = self.engines[core]

        # An annotated stream end pauses streaming; it resumes only when
        # the core explicitly requests the annotated address (Section 4.5).
        if engine.confirm_resume(block):
            self.counters.resumes += 1
            self._record(core, block, now)
            self._refill(core, now)
            self._issue(core, now)
            return

        # Index lookup: one bucket fetch (single memory access when the
        # bucket buffer misses), linear search on chip.
        self.stats.lookups += 1
        bucket_ready = self.bucket_buffer.access(
            self.index.bucket_of(block),
            now,
            charge=TrafficCategory.LOOKUP_STREAMS,
            core=core,
        )
        pointer = self.index.lookup(block)

        # Record the miss after the lookup so the lookup observes the
        # *previous* occurrence, not the one being recorded.
        self._record(core, block, now)

        if pointer is None:
            # No stream found: any active stream keeps flowing (the miss
            # may be unrelated noise interleaved with the stream).
            return
        if not self.histories[pointer.core].is_valid(pointer.sequence):
            # The logged occurrence was overwritten (stale index entry —
            # expected under probabilistic update and circular logging).
            self.counters.stale_pointers += 1
            return

        self.stats.lookup_hits += 1
        self._annotate_abandoned(core, now)
        engine.begin(
            source_core=pointer.core,
            next_fetch_sequence=pointer.sequence + 1,
        )
        # The stream's first history block can only be fetched once the
        # bucket arrives: two dependent round trips total.
        self._refill(core, bucket_ready)
        self._issue(core, bucket_ready)

    # ------------------------------------------------------------------
    # Prefetched-hit path.
    # ------------------------------------------------------------------

    def _on_prefetch_hit(self, core: int, block: int, now: float) -> None:
        self.engines[core].on_consumed(block)
        self._record(core, block, now)
        self._refill(core, now)
        self._issue(core, now)

    # ------------------------------------------------------------------
    # Recording and sampled index update.
    # ------------------------------------------------------------------

    def _record(self, core: int, block: int, now: float) -> None:
        """Append to the history log; maybe apply the index update."""
        sequence = self.histories[core].append(block, now)
        self.counters.candidate_updates += 1
        if not self.sampler.should_update():
            return
        self.counters.applied_updates += 1
        self.bucket_buffer.access(
            self.index.bucket_of(block),
            now,
            dirty=True,
            charge=TrafficCategory.UPDATE_INDEX,
            core=core,
        )
        self.index.update(block, HistoryPointer(core, sequence))

    # ------------------------------------------------------------------
    # Streaming mechanics.
    # ------------------------------------------------------------------

    def _refill(self, core: int, now: float) -> None:
        """Keep the address queue fed from the source history buffer,
        one packed-block segment at a time."""
        engine = self.engines[core]
        while engine.needs_refill() and engine.queue_free > 0:
            first, blocks, marks, arrival = self.histories[
                engine.source_core
            ].read_segment(engine.next_fetch_sequence, now, reader=core)
            if not blocks:
                # Caught up with the recording head, or the stream was
                # overwritten: nothing more to follow.
                engine.active = False
                break
            engine.enqueue_segment(first, blocks, marks, arrival)

    def _issue(self, core: int, now: float) -> None:
        """Issue prefetches, maintaining ``lookahead`` blocks in flight.

        The bound applies to the *current* stream generation: buffered
        leftovers of abandoned streams age out of the FIFO prefetch
        buffer instead of throttling the live stream.  A prefetch
        cannot issue before the history block naming it arrives.
        """
        engine = self.engines[core]
        serial = engine.serial
        budget = self.config.lookahead - self.buffers[core].outstanding(
            serial
        )
        while budget > 0:
            head = engine.pop_for_prefetch()
            if head is None:
                break
            if self._issue_prefetch(
                core, head.block, max(now, head.ready_at), stream=serial
            ):
                budget -= 1

    def _annotate_abandoned(self, core: int, now: float) -> None:
        """Mark the end of a stream the core stopped consuming.

        Called when switching to a freshly located stream while the old
        one still has unconsumed entries: the entry following the last
        contiguous successfully prefetched address gets the mark.
        """
        engine = self.engines[core]
        if not self.config.annotate_stream_ends:
            return
        if engine.consumed_count == 0:
            return
        if not (engine.queue_depth > 0 or engine.active):
            return
        target = engine.annotation_target()
        if target is None:
            return
        source_core, sequence = target
        if self.histories[source_core].annotate(
            sequence, now, requester=core
        ):
            self.counters.annotations += 1

    # ------------------------------------------------------------------
    # Shutdown.
    # ------------------------------------------------------------------

    def finalize(self, now: float) -> None:
        """Flush pack buffers, write back dirty buckets, drain buffers."""
        for history in self.histories:
            history.flush(now)
        self.bucket_buffer.drain(now)
        super().finalize(now)
