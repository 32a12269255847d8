"""Set-associative cache model.

The model is functional (hit/miss and content tracking) with the timing
supplied by the surrounding hierarchy.  It supports write-back /
write-allocate semantics and reports evicted dirty blocks so the hierarchy
can charge write-back traffic.

Capacities are expressed in bytes and divided into 64-byte blocks; lookups
operate on block numbers (see :mod:`repro.memory.address`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.memory.config import CacheConfig


class AccessResult(Enum):
    """Outcome of a cache access."""

    HIT = "hit"
    MISS = "miss"


@dataclass(slots=True)
class Eviction:
    """A block pushed out of the cache by a fill."""

    block: int
    dirty: bool


@dataclass(slots=True)
class CacheStats:
    """Running counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Cache:
    """A single set-associative, write-back, write-allocate cache.

    Each set is a plain dict mapping tag to a dirty bit, kept in LRU
    order (last item = most recent; recency refreshed by pop/reinsert).
    This keeps the hot path — :meth:`access` — allocation-free and O(1)
    amortized, which matters because the simulator pushes every trace
    record through here.
    """

    __slots__ = ('config', 'stats', '_set_mask', '_sets')

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._set_mask = config.sets - 1
        # sets[i]: dict[tag] = dirty flag, in recency order, oldest first.
        self._sets: list[dict[int, bool]] = [
            {} for _ in range(config.sets)
        ]

    def lookup(self, block: int) -> bool:
        """Probe for ``block`` without updating recency or stats."""
        cache_set = self._sets[block & self._set_mask]
        return block in cache_set

    def access(self, block: int, write: bool = False) -> AccessResult:
        """Access ``block``; update recency and the dirty bit on a write.

        Misses do *not* allocate — callers decide whether and when to
        :meth:`fill`, because the fill may race with prefetches or be
        satisfied from a prefetch buffer instead.
        """
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set:
            dirty = cache_set.pop(block)
            cache_set[block] = dirty or write
            self.stats.hits += 1
            return AccessResult.HIT
        self.stats.misses += 1
        return AccessResult.MISS

    def fill(self, block: int, dirty: bool = False) -> Eviction | None:
        """Insert ``block``, returning the eviction it forced (if any)."""
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set:
            # Refill of a resident block only merges the dirty bit.
            was_dirty = cache_set.pop(block)
            cache_set[block] = was_dirty or dirty
            return None
        evicted: Eviction | None = None
        if len(cache_set) >= self.config.ways:
            evicted = self._evict(cache_set)
        cache_set[block] = dirty
        self.stats.fills += 1
        return evicted

    def fill_pair(
        self, block: int, dirty: bool = False
    ) -> "tuple[int, bool] | None":
        """:meth:`fill`, returning the eviction as a plain tuple.

        Allocation-light variant for the simulation hot path: identical
        state effects and stats, but the victim comes back as
        ``(block, dirty)`` instead of an :class:`Eviction`.
        """
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set:
            was_dirty = cache_set.pop(block)
            cache_set[block] = was_dirty or dirty
            return None
        evicted: "tuple[int, bool] | None" = None
        if len(cache_set) >= self.config.ways:
            victim_block = next(iter(cache_set))
            evicted = (victim_block, cache_set.pop(victim_block))
            stats = self.stats
            stats.evictions += 1
            if evicted[1]:
                stats.dirty_evictions += 1
        cache_set[block] = dirty
        self.stats.fills += 1
        return evicted

    def _evict(self, cache_set: "dict[int, bool]") -> Eviction:
        """Remove the least recently used block of ``cache_set``."""
        victim_block = next(iter(cache_set))
        victim_dirty = cache_set.pop(victim_block)
        self.stats.evictions += 1
        if victim_dirty:
            self.stats.dirty_evictions += 1
        return Eviction(block=victim_block, dirty=victim_dirty)

    def invalidate(self, block: int) -> bool:
        """Drop ``block`` if present; returns True if it was resident."""
        cache_set = self._sets[block & self._set_mask]
        if block in cache_set:
            del cache_set[block]
            self.stats.invalidations += 1
            return True
        return False

    def peek_dirty(self, block: int) -> bool:
        """True when ``block`` is resident and dirty (no recency update)."""
        cache_set = self._sets[block & self._set_mask]
        return cache_set.get(block, False)

    def resident_blocks(self) -> list[int]:
        """All resident block numbers (test/debug helper)."""
        blocks: list[int] = []
        for cache_set in self._sets:
            blocks.extend(cache_set.keys())
        return blocks

    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        """Zero the counters (e.g. after cache warm-up)."""
        self.stats = CacheStats()


@dataclass(slots=True)
class VictimBuffer:
    """Tiny fully-associative victim store (FIFO), as beside the paper's L1s.

    Holds recently evicted L1 blocks so short-distance conflict misses are
    recovered without an L2 round trip.  Modeled functionally: a bounded
    FIFO of block numbers.
    """

    capacity: int
    _fifo: dict[int, bool] = field(default_factory=dict)
    hits: int = 0

    def insert(self, block: int, dirty: bool) -> Eviction | None:
        """Add an evicted block, possibly displacing the oldest entry."""
        if self.capacity <= 0:
            return Eviction(block=block, dirty=dirty) if dirty else None
        if block in self._fifo:
            self._fifo[block] = self._fifo[block] or dirty
            return None
        displaced: Eviction | None = None
        if len(self._fifo) >= self.capacity:
            old_block = next(iter(self._fifo))
            old_dirty = self._fifo.pop(old_block)
            displaced = Eviction(block=old_block, dirty=old_dirty)
        self._fifo[block] = dirty
        return displaced

    def extract(self, block: int) -> bool:
        """Remove and return True if ``block`` was held (a victim hit)."""
        if block in self._fifo:
            del self._fifo[block]
            self.hits += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self._fifo)
