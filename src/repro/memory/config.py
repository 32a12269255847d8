"""Memory-system parameters and names, apart from the models.

Block size, cache and chip geometry (:class:`CacheConfig`,
:class:`CmpConfig`), the DRAM channel's parameters and priority classes
(:class:`DramConfig`, :class:`Priority`) and the off-chip traffic
categories (:class:`TrafficCategory`, :class:`TrafficBreakdown`).
Result keys hash the configurations and results carry the traffic
names, so the control plane imports this module; it imports none of
the address, cache, MSHR, hierarchy, DRAM or traffic models.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

#: Cache block (line) size in bytes.  Fixed at 64 B to match the paper's
#: memory-interface width; the index-table bucket format depends on it.
BLOCK_BYTES = 64


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


class Priority(IntEnum):
    """Memory-request priority class (higher value = more urgent)."""

    LOW = 0
    HIGH = 1


@dataclass(frozen=True)
class DramConfig:
    """Channel parameters (defaults follow the paper's Table 1 at 4 GHz)."""

    #: Core clock frequency used to convert ns to cycles.
    clock_ghz: float = 4.0
    #: Device access latency in nanoseconds.
    access_latency_ns: float = 45.0
    #: Peak sustainable bandwidth in GB/s.
    peak_bandwidth_gbps: float = 28.4

    def __post_init__(self) -> None:
        if self.clock_ghz <= 0:
            raise ValueError("clock_ghz must be positive")
        if self.access_latency_ns < 0:
            raise ValueError("access_latency_ns must be non-negative")
        if self.peak_bandwidth_gbps <= 0:
            raise ValueError("peak_bandwidth_gbps must be positive")

    @property
    def access_latency_cycles(self) -> float:
        """Device latency in core cycles (45 ns @ 4 GHz = 180 cycles)."""
        return self.access_latency_ns * self.clock_ghz

    @property
    def transfer_cycles(self) -> float:
        """Channel occupancy of one 64-byte transfer in core cycles."""
        ns_per_block = BLOCK_BYTES / self.peak_bandwidth_gbps
        return ns_per_block * self.clock_ghz


class TrafficCategory(Enum):
    """Every kind of byte that crosses the processor pins."""

    # Members are singletons, so identity hashing is equivalent to the
    # default name hash — but C-level, which matters: every traffic
    # charge in the simulator is a dict access keyed by a category.
    __hash__ = object.__hash__

    #: Demand fetches that miss all caches (the baseline's useful reads).
    DEMAND_READ = "demand_read"
    #: Dirty-block write-backs to main memory.
    WRITEBACK = "writeback"
    #: Unused fills issued by the base system's stride prefetcher.  Present
    #: in both baseline and STMS configurations, so excluded from the
    #: temporal prefetcher's overhead accounting.
    STRIDE_PREFETCH = "stride_prefetch"
    #: Prefetched blocks that were later used by the core.
    USEFUL_PREFETCH = "useful_prefetch"
    #: Prefetched blocks never used before being dropped.
    ERRONEOUS_PREFETCH = "erroneous_prefetch"
    #: History-buffer appends (packed, one write per ~12 misses).
    RECORD_STREAMS = "record_streams"
    #: Index-table maintenance (bucket read + write per applied update).
    UPDATE_INDEX = "update_index"
    #: Index-table bucket reads + history-buffer block reads on lookups.
    LOOKUP_STREAMS = "lookup_streams"

    @property
    def is_overhead(self) -> bool:
        """Overhead = everything beyond demand reads and write-backs."""
        return self not in (
            TrafficCategory.DEMAND_READ,
            TrafficCategory.WRITEBACK,
            TrafficCategory.STRIDE_PREFETCH,
        )

    @property
    def is_metadata(self) -> bool:
        """Meta-data traffic is eligible for low-priority scheduling."""
        return self in (
            TrafficCategory.RECORD_STREAMS,
            TrafficCategory.UPDATE_INDEX,
            TrafficCategory.LOOKUP_STREAMS,
        )


@dataclass(frozen=True)
class TrafficBreakdown:
    """Immutable snapshot of normalized overhead traffic.

    Values are overhead bytes per useful data byte, the y-axis of the
    paper's Figure 7.
    """

    record_streams: float
    update_index: float
    lookup_streams: float
    erroneous_prefetch: float

    @property
    def total(self) -> float:
        return (
            self.record_streams
            + self.update_index
            + self.lookup_streams
            + self.erroneous_prefetch
        )


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache.

    Parameters mirror the paper's Table 1 (e.g. the shared L2 is 8 MB,
    16-way).  ``size_bytes`` must be a power-of-two multiple of
    ``ways * BLOCK_BYTES`` so the set count is a power of two.
    Replacement is LRU, as throughout the paper's hierarchy.
    """

    size_bytes: int
    ways: int
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.ways <= 0:
            raise ValueError(f"{self.name}: ways must be positive")
        if self.size_bytes < self.ways * BLOCK_BYTES:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} too small for "
                f"{self.ways} ways of {BLOCK_BYTES}-byte blocks"
            )
        if self.size_bytes % (self.ways * BLOCK_BYTES) != 0:
            raise ValueError(
                f"{self.name}: size must be a multiple of ways * block size"
            )
        if not is_power_of_two(self.sets):
            raise ValueError(
                f"{self.name}: set count {self.sets} is not a power of two"
            )

    @property
    def sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.ways * BLOCK_BYTES)

    @property
    def blocks(self) -> int:
        """Total block capacity."""
        return self.size_bytes // BLOCK_BYTES


@dataclass(frozen=True)
class CmpConfig:
    """Geometry of the chip multiprocessor (defaults = paper Table 1)."""

    cores: int = 4
    l1_size_bytes: int = 64 * 1024
    l1_ways: int = 2
    l1_victim_blocks: int = 8
    l2_size_bytes: int = 8 * 1024 * 1024
    l2_ways: int = 16
    l2_banks: int = 16
    l2_mshrs: int = 64
    l1_latency: float = 2.0
    l2_latency: float = 20.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.l2_banks <= 0:
            raise ValueError("l2_banks must be positive")
        if self.l2_mshrs <= 0:
            raise ValueError("l2_mshrs must be positive")

    def l1_config(self, core: int) -> CacheConfig:
        return CacheConfig(
            size_bytes=self.l1_size_bytes,
            ways=self.l1_ways,
            name=f"l1-core{core}",
        )

    def l2_config(self) -> CacheConfig:
        return CacheConfig(
            size_bytes=self.l2_size_bytes, ways=self.l2_ways, name="l2"
        )

    def scaled(self, factor: float) -> "CmpConfig":
        """Return a copy with cache capacities scaled by ``factor``.

        Scaling keeps associativity and shrinks/grows the set count to the
        nearest power of two, so miniature workloads exercise the same
        relative capacity pressure as the paper's full-size configuration.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")

        def scale_size(size: int, ways: int) -> int:
            target_sets = max(1, round(size * factor / (ways * BLOCK_BYTES)))
            # Snap to the nearest power of two.
            sets = 1 << max(0, (target_sets - 1).bit_length())
            if sets > 1 and sets - target_sets > target_sets - sets // 2:
                sets //= 2
            return sets * ways * BLOCK_BYTES

        return CmpConfig(
            cores=self.cores,
            l1_size_bytes=scale_size(self.l1_size_bytes, self.l1_ways),
            l1_ways=self.l1_ways,
            l1_victim_blocks=self.l1_victim_blocks,
            l2_size_bytes=scale_size(self.l2_size_bytes, self.l2_ways),
            l2_ways=self.l2_ways,
            l2_banks=self.l2_banks,
            l2_mshrs=self.l2_mshrs,
            l1_latency=self.l1_latency,
            l2_latency=self.l2_latency,
        )
