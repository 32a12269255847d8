"""The counters every temporal prefetcher keeps.  Results carry them, so
the store decodes them without loading a prefetcher model."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class PrefetcherStats:
    """Counters every temporal prefetcher maintains."""

    #: Prefetches issued to memory.
    issued: int = 0
    #: Prefetched blocks consumed by a demand access.
    useful: int = 0
    #: Prefetched blocks dropped without ever being consumed.
    erroneous: int = 0
    #: Prefetch candidates suppressed because the block was on chip.
    filtered: int = 0
    #: Prefetch candidates dropped because the channel was saturated.
    dropped: int = 0
    #: Index/meta-data lookups performed.
    lookups: int = 0
    #: Lookups that found a stream to follow.
    lookup_hits: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of issued prefetches that were consumed."""
        resolved = self.useful + self.erroneous
        if resolved == 0:
            return 0.0
        return self.useful / resolved
