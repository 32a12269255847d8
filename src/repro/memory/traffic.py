"""Off-chip traffic accounting by category.

The paper's bandwidth results (Figs. 1 right, 7, 8 left) break overhead
traffic into *record streams*, *update index*, *lookup streams* and
*incorrect prefetches*, normalized against the baseline's useful data
traffic.  :class:`TrafficMeter` tallies bytes per category and produces
exactly those normalizations.
"""

from __future__ import annotations

from repro.memory.config import BLOCK_BYTES, TrafficBreakdown, TrafficCategory


class TrafficMeter:
    """Tallies off-chip bytes by :class:`TrafficCategory`, per core.

    Every charge names the *requesting core* — the core whose demand
    access, prefetch stream, or meta-data operation caused the bytes to
    cross the pins — so multiprogrammed-mix experiments can attribute
    DRAM traffic (including STMS meta-data) to the workload that caused
    it.  The aggregate ``_bytes`` dict and the per-core ``_core_bytes``
    dicts are charged together at every site; their equality (summing
    cores reproduces the global counters exactly) is an invariant the
    conservation suite enforces.
    """

    def __init__(self, cores: int = 1) -> None:
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        self.cores = cores
        self._bytes: dict[TrafficCategory, int] = {
            category: 0 for category in TrafficCategory
        }
        #: Per-core mirrors of ``_bytes``; index = requesting core.
        self._core_bytes: "list[dict[TrafficCategory, int]]" = [
            {category: 0 for category in TrafficCategory}
            for _ in range(cores)
        ]

    def add_blocks(
        self, category: TrafficCategory, blocks: int = 1, core: int = 0
    ) -> None:
        """Charge ``blocks`` whole 64-byte transfers to ``category``."""
        if blocks < 0:
            raise ValueError(f"blocks must be non-negative, got {blocks}")
        count = blocks * BLOCK_BYTES
        self._bytes[category] += count
        self._core_bytes[core][category] += count

    def add_block(self, category: TrafficCategory, core: int = 0) -> None:
        """Charge one 64-byte transfer (validation-free hot path)."""
        self._bytes[category] += BLOCK_BYTES
        self._core_bytes[core][category] += BLOCK_BYTES

    def add_bytes(
        self, category: TrafficCategory, count: int, core: int = 0
    ) -> None:
        """Charge raw bytes (for sub-block transfers) to ``category``."""
        if count < 0:
            raise ValueError(f"byte count must be non-negative, got {count}")
        self._bytes[category] += count
        self._core_bytes[core][category] += count

    def ensure_cores(self, cores: int) -> None:
        """Grow the per-core tables to cover ``cores`` requesters.

        Components that know their core count (hierarchy, prefetchers,
        history buffers) call this at construction so a meter built with
        the default single slot still attributes correctly when shared
        with multi-core machinery (the engines size theirs up front).
        The backing list object is extended in place, so hot paths that
        hoisted a reference to it observe the growth.
        """
        while len(self._core_bytes) < cores:
            self._core_bytes.append(
                {category: 0 for category in TrafficCategory}
            )
        if cores > self.cores:
            self.cores = cores

    def bytes_for(self, category: TrafficCategory) -> int:
        return self._bytes[category]

    def core_bytes_for(self, core: int, category: TrafficCategory) -> int:
        """Bytes of ``category`` attributed to requesting ``core``."""
        return self._core_bytes[core][category]

    def core_breakdown(self) -> "list[dict[str, int]]":
        """Per-core per-category byte counts (JSON-shaped snapshot)."""
        return [
            {category.value: count for category, count in per_core.items()}
            for per_core in self._core_bytes
        ]

    @property
    def useful_bytes(self) -> int:
        """Baseline-equivalent useful data: demand reads, write-backs, and
        prefetches the core actually consumed (those replaced demand reads).
        """
        return (
            self._bytes[TrafficCategory.DEMAND_READ]
            + self._bytes[TrafficCategory.WRITEBACK]
            + self._bytes[TrafficCategory.USEFUL_PREFETCH]
        )

    @property
    def overhead_bytes(self) -> int:
        return sum(
            count
            for category, count in self._bytes.items()
            if category.is_overhead
            and category is not TrafficCategory.USEFUL_PREFETCH
        )

    @property
    def metadata_bytes(self) -> int:
        return sum(
            count
            for category, count in self._bytes.items()
            if category.is_metadata
        )

    @property
    def total_bytes(self) -> int:
        return sum(self._bytes.values())

    def breakdown(self) -> TrafficBreakdown:
        """Overhead bytes per useful byte, per category (Fig. 7 format)."""
        useful = self.useful_bytes
        if useful == 0:
            return TrafficBreakdown(0.0, 0.0, 0.0, 0.0)
        return TrafficBreakdown(
            record_streams=self._bytes[TrafficCategory.RECORD_STREAMS] / useful,
            update_index=self._bytes[TrafficCategory.UPDATE_INDEX] / useful,
            lookup_streams=self._bytes[TrafficCategory.LOOKUP_STREAMS] / useful,
            erroneous_prefetch=(
                self._bytes[TrafficCategory.ERRONEOUS_PREFETCH] / useful
            ),
        )

    def overhead_per_useful_byte(self) -> float:
        """Scalar overhead ratio (Fig. 8 left y-axis)."""
        useful = self.useful_bytes
        if useful == 0:
            return 0.0
        return self.overhead_bytes / useful

    def merge(self, other: TrafficMeter) -> None:
        """Accumulate another meter's counts into this one.

        Per-core counts merge index-by-index; a wider source meter's
        extra cores fold into this meter's core 0 so the conservation
        invariant (core sums equal the global counters) survives.
        """
        for category, count in other._bytes.items():
            self._bytes[category] += count
        for core, per_core in enumerate(other._core_bytes):
            target = self._core_bytes[core if core < self.cores else 0]
            for category, count in per_core.items():
                target[category] += count

    def reset(self) -> None:
        for category in self._bytes:
            self._bytes[category] = 0
        for per_core in self._core_bytes:
            for category in per_core:
                per_core[category] = 0
