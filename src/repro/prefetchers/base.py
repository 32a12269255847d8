"""Common prefetcher machinery: the temporal-prefetcher interface and the
small on-chip prefetch buffer every design streams into.

The simulation engine talks to a temporal prefetcher through two calls:

* :meth:`TemporalPrefetcher.consume` — a demand read reached the
  prefetcher; if the block was prefetched (arrived or in flight) the
  prefetcher hands back its arrival time and keeps streaming.
* :meth:`TemporalPrefetcher.on_demand_miss` — the block was not
  prefetched; the prefetcher records the miss and may trigger a lookup.

Prefetchers issue their own DRAM traffic (prefetch fills and, for STMS,
meta-data accesses) through the shared channel at low priority and account
for every byte in the shared :class:`~repro.memory.traffic.TrafficMeter`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, NamedTuple

from repro.memory.config import Priority, TrafficCategory
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter
from repro.prefetchers.params import TEMPORAL_BACKLOG_ACCESSES, backlog_limit
from repro.prefetchers.stats import PrefetcherStats

#: Engine-supplied predicate: True when a block is already on chip, in
#: which case issuing a prefetch for it would be pure waste.  Real designs
#: implement this as a cache probe on the prefetch path.
ResidencyFilter = Callable[[int], bool]


class PrefetchedBlock(NamedTuple):
    """A prefetch-buffer hit returned to the engine for timing.

    A NamedTuple: one is created per issued prefetch, which puts
    construction cost on the event hot path.
    """

    block: int
    issued_at: float
    arrival: float
    #: Which stream generation issued this prefetch.  Used to bound the
    #: number of in-flight prefetches *per active stream*: entries left
    #: over from abandoned streams must not throttle the current one.
    stream: int = -1

    def is_arrived(self, now: float) -> bool:
        """True when the data is already in the buffer (fully covered)."""
        return self.arrival <= now


class PrefetchBuffer:
    """Small fully-associative per-core buffer of prefetched blocks.

    Mirrors the paper's 2 KB per-core prefetch buffer (32 blocks at 64 B):
    prefetched data is held *outside* the caches so erroneous prefetches
    never pollute them.  Replacement is FIFO over unconsumed entries; a
    displaced entry counts as an erroneous prefetch.
    """

    __slots__ = ('capacity', '_entries', '_stream_counts')

    def __init__(self, capacity: int = 32) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        # block -> entry, FIFO order (oldest first); a plain dict keeps
        # insertion order and is cheaper than an OrderedDict on the
        # per-event take/insert path.
        self._entries: dict[int, PrefetchedBlock] = {}
        self._stream_counts: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, block: int) -> bool:
        return block in self._entries

    def outstanding(self, stream: int) -> int:
        """Resident entries issued by stream generation ``stream``."""
        return self._stream_counts.get(stream, 0)

    def _forget(self, entry: PrefetchedBlock) -> None:
        count = self._stream_counts.get(entry.stream, 0) - 1
        if count <= 0:
            self._stream_counts.pop(entry.stream, None)
        else:
            self._stream_counts[entry.stream] = count

    def insert(self, entry: PrefetchedBlock) -> PrefetchedBlock | None:
        """Add a prefetched (possibly still in-flight) block.

        Returns the FIFO-displaced entry when the buffer was full, which
        the caller must account as an erroneous prefetch.  Re-inserting a
        resident block is a no-op (the earlier copy wins).
        """
        if entry.block in self._entries:
            return None
        displaced: PrefetchedBlock | None = None
        if len(self._entries) >= self.capacity:
            displaced = self._entries.pop(next(iter(self._entries)))
            self._forget(displaced)
        self._entries[entry.block] = entry
        self._stream_counts[entry.stream] = (
            self._stream_counts.get(entry.stream, 0) + 1
        )
        return displaced

    def take(self, block: int) -> PrefetchedBlock | None:
        """Remove and return the entry for ``block`` if buffered."""
        entry = self._entries.pop(block, None)
        if entry is not None:
            self._forget(entry)
        return entry

    def drain(self) -> list[PrefetchedBlock]:
        """Remove and return everything (end-of-simulation accounting)."""
        leftovers = list(self._entries.values())
        self._entries.clear()
        self._stream_counts.clear()
        return leftovers


class TemporalPrefetcher(ABC):
    """Base class for the temporal prefetchers under evaluation.

    Subclasses share the prefetch-issue path (:meth:`_issue_prefetch`),
    which applies the residency filter, models the DRAM fill, charges
    traffic at resolution time, and manages per-core prefetch buffers.
    """

    __slots__ = ('cores', 'dram', 'traffic', 'stats', '_filter', '_filter_sets', '_filter_mask', 'buffers', '_backlog_limit')

    def __init__(
        self,
        cores: int,
        dram: DramChannel,
        traffic: TrafficMeter,
        residency_filter: ResidencyFilter | None = None,
        buffer_blocks: int = 32,
    ) -> None:
        if cores <= 0:
            raise ValueError("cores must be positive")
        self.cores = cores
        self.dram = dram
        self.traffic = traffic
        traffic.ensure_cores(cores)
        self.stats = PrefetcherStats()
        self._filter = residency_filter
        # When the residency filter is a plain Cache.lookup bound method
        # (the engine's L2 probe), hot paths test set membership
        # directly instead of paying a call per prefetch candidate.
        self._filter_sets = None
        self._filter_mask = 0
        bound = getattr(residency_filter, "__self__", None)
        if (
            bound is not None
            and getattr(residency_filter, "__name__", "") == "lookup"
            and hasattr(bound, "_sets")
            and hasattr(bound, "_set_mask")
        ):
            self._filter_sets = bound._sets
            self._filter_mask = bound._set_mask
        self.buffers = [PrefetchBuffer(buffer_blocks) for _ in range(cores)]
        self._backlog_limit = backlog_limit(
            TEMPORAL_BACKLOG_ACCESSES, dram.config
        )

    # ------------------------------------------------------------------
    # Engine-facing interface.
    # ------------------------------------------------------------------

    def consume(
        self, core: int, block: int, now: float
    ) -> PrefetchedBlock | None:
        """A demand read for ``block`` reached the prefetcher.

        Returns buffered-prefetch information when the access is covered;
        subclasses then observe the hit via :meth:`_on_prefetch_hit` to
        keep their stream state advancing.
        """
        entry = self.buffers[core].take(block)
        if entry is None:
            return None
        self.stats.useful += 1
        self.traffic.add_block(TrafficCategory.USEFUL_PREFETCH, core)
        self._on_prefetch_hit(core, block, now)
        return entry

    @abstractmethod
    def on_demand_miss(self, core: int, block: int, now: float) -> None:
        """An uncovered off-chip read miss occurred (trigger event)."""

    def finalize(self, now: float) -> None:
        """Flush internal state at end of simulation.

        Unconsumed prefetch-buffer contents are charged as erroneous so
        traffic accounting always balances against issued prefetches.
        """
        for core, buffer in enumerate(self.buffers):
            for _ in buffer.drain():
                self._charge_erroneous(core)

    # ------------------------------------------------------------------
    # Subclass hooks and shared mechanics.
    # ------------------------------------------------------------------

    @abstractmethod
    def _on_prefetch_hit(self, core: int, block: int, now: float) -> None:
        """Observe a consumed prefetch (record + continue streaming)."""

    def _charge_erroneous(self, core: int = 0) -> None:
        self.stats.erroneous += 1
        self.traffic.add_block(TrafficCategory.ERRONEOUS_PREFETCH, core)

    def _issue_prefetch(
        self, core: int, block: int, now: float, stream: int = -1
    ) -> bool:
        """Issue one prefetch for ``core`` if it passes the filters.

        Returns True when a fill was actually started.  The data fetch is
        a low-priority DRAM read; its traffic is charged when the block is
        consumed (useful) or displaced/drained (erroneous).
        """
        buffer = self.buffers[core]
        stats = self.stats
        entries = buffer._entries
        if block in entries:
            return False
        filter_sets = self._filter_sets
        if filter_sets is not None:
            if block in filter_sets[block & self._filter_mask]:
                stats.filtered += 1
                return False
        elif self._filter is not None and self._filter(block):
            stats.filtered += 1
            return False
        dram = self.dram
        # Inlined dram.low_backlog(now) > self._backlog_limit.
        busy = dram._busy_until_all
        if busy - now > self._backlog_limit:
            stats.dropped += 1
            return False
        # Inlined dram.request(now, Priority.LOW).
        service = dram._transfer_cycles
        start = now if now > busy else busy
        dram._busy_until_all = start + service
        dram_stats = dram.stats
        dram_stats.low_priority_requests += 1
        dram_stats.requests += 1
        dram_stats.busy_cycles += service
        dram_stats.queue_cycles += start - now
        arrival = start + dram._access_latency_cycles + service
        # Inlined PrefetchBuffer.insert (the block is known absent).
        if len(entries) >= buffer.capacity:
            displaced = entries.pop(next(iter(entries)))
            buffer._forget(displaced)
            self._charge_erroneous(core)
        entries[block] = tuple.__new__(
            PrefetchedBlock, (block, now, arrival, stream)
        )
        counts = buffer._stream_counts
        counts[stream] = counts.get(stream, 0) + 1
        stats.issued += 1
        return True
