"""On-chip bucket buffer: 8 KB of index-table bucket storage.

The paper places a small buffer between the stream engines and the
main-memory index table "to facilitate index table updates and to delay
writeback until memory bandwidth is available".  Behaviourally it is a
tiny fully-associative write-back cache of 64-byte buckets:

* a lookup that hits the buffer costs no memory access;
* an update dirties the buffered bucket instead of writing through;
* dirty buckets are written back lazily (on eviction or drain) as
  low-priority traffic, after reshuffling entries into LRU order — which
  the :class:`~repro.core.index_table.IndexTable` maintains implicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.config import TrafficCategory
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter


@dataclass
class BucketBufferStats:
    """Hit/miss/write-back counters."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    #: Misses charged to index updates (the rest are lookups).
    update_misses: int = 0


class BucketBuffer:
    """LRU cache of index-table buckets with lazy dirty write-back."""

    __slots__ = ('capacity', 'dram', 'traffic', 'stats', '_resident', '_dirty_core')

    def __init__(
        self,
        capacity: int,
        dram: DramChannel,
        traffic: TrafficMeter,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dram = dram
        self.traffic = traffic
        self.stats = BucketBufferStats()
        # bucket id -> dirty flag, LRU order (oldest first): insertion
        # order is recency order, refreshed by pop-and-reinsert.
        self._resident: dict[int, bool] = {}
        #: bucket id -> core that last dirtied it; the eventual lazy
        #: write-back is attributed to that core (it caused the bytes).
        self._dirty_core: dict[int, int] = {}

    def __contains__(self, bucket: int) -> bool:
        return bucket in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    def access(
        self,
        bucket: int,
        now: float,
        dirty: bool = False,
        charge: TrafficCategory = TrafficCategory.LOOKUP_STREAMS,
        core: int = 0,
    ) -> float:
        """Bring ``bucket`` on chip (if needed) and return its ready time.

        ``charge`` names the traffic category of the bucket *read* when
        one is required: lookups charge to stream-lookup traffic, updates
        to index-update traffic, matching the paper's Figure 7 split.
        Setting ``dirty`` marks the bucket for eventual write-back.
        ``core`` is the requesting core every byte is attributed to.
        """
        resident = self._resident
        was_dirty = resident.pop(bucket, None)
        if was_dirty is not None:
            self.stats.hits += 1
            resident[bucket] = was_dirty or dirty
            if dirty:
                self._dirty_core[bucket] = core
            return now
        self.stats.misses += 1
        if charge is TrafficCategory.UPDATE_INDEX:
            self.stats.update_misses += 1
        self.traffic.add_block(charge, core)
        arrival = self.dram.request_low(now)
        if len(resident) >= self.capacity:
            self._evict_one(now)
        resident[bucket] = dirty
        if dirty:
            self._dirty_core[bucket] = core
        return arrival

    def _evict_one(self, now: float) -> None:
        victim = next(iter(self._resident))
        dirty = self._resident.pop(victim)
        if dirty:
            self._write_back(now, self._dirty_core.pop(victim, 0))
        else:
            self._dirty_core.pop(victim, None)

    def _write_back(self, now: float, core: int = 0) -> None:
        """One low-priority bucket write (index maintenance traffic),
        attributed to the core that last dirtied the bucket."""
        self.stats.writebacks += 1
        self.traffic.add_block(TrafficCategory.UPDATE_INDEX, core)
        self.dram.request_low(now)

    def drain(self, now: float) -> int:
        """Write back every dirty bucket (end of simulation).

        Returns the number of write-backs performed.
        """
        drained = 0
        for bucket, dirty in list(self._resident.items()):
            if dirty:
                self._write_back(now, self._dirty_core.pop(bucket, 0))
            else:
                self._dirty_core.pop(bucket, None)
            del self._resident[bucket]
            drained += dirty
        return drained
