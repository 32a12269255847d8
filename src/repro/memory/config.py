"""Cache and chip geometry (:class:`CacheConfig`, :class:`CmpConfig`).

Result keys hash them, so the control plane imports this module; it
imports none of the cache, MSHR or hierarchy models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.address import BLOCK_BYTES, is_power_of_two


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
