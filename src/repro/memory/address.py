"""Physical-address and cache-block arithmetic.

All simulator components operate on *block numbers* (a physical address
divided by the 64-byte block size).  Traces store block numbers directly;
this module provides conversions and an :class:`AddressSpace` helper that
validates addresses and carves out aligned regions, which the STMS
meta-data allocator uses to reserve its main-memory tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.config import BLOCK_BYTES

#: log2(BLOCK_BYTES), used for shifting addresses to block numbers.
BLOCK_SHIFT = 6


def block_of(address: int) -> int:
    """Return the block number containing byte ``address``."""
    if address < 0:
        raise ValueError(f"address must be non-negative, got {address}")
    return address >> BLOCK_SHIFT

def block_to_address(block: int) -> int:
    """Return the first byte address of block ``block``."""
    if block < 0:
        raise ValueError(f"block must be non-negative, got {block}")
    return block << BLOCK_SHIFT


def block_offset(address: int) -> int:
    """Return the byte offset of ``address`` within its block."""
    return address & (BLOCK_BYTES - 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return -(-value // alignment) * alignment


def align_down(value: int, alignment: int) -> int:
    """Round ``value`` down to the previous multiple of ``alignment``."""
    if alignment <= 0:
        raise ValueError(f"alignment must be positive, got {alignment}")
    return (value // alignment) * alignment


@dataclass(frozen=True)
class Region:
    """A contiguous, block-aligned range of physical memory.

    Used to describe the private main-memory areas STMS reserves for its
    index table and history buffers.
    """

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise ValueError(
                f"invalid region base={self.base} size={self.size}"
            )
        if block_offset(self.base) != 0:
            raise ValueError(f"region base {self.base:#x} not block aligned")

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    @property
    def blocks(self) -> int:
        """Number of whole blocks the region spans."""
        return align_up(self.size, BLOCK_BYTES) // BLOCK_BYTES

    def contains(self, address: int) -> bool:
        """Return True if byte ``address`` falls inside the region."""
        return self.base <= address < self.end

    def block_at(self, index: int) -> int:
        """Return the block number of the ``index``-th block in the region."""
        if not 0 <= index < self.blocks:
            raise IndexError(f"block index {index} outside region")
        return block_of(self.base) + index


class AddressSpace:
    """Tracks the simulated machine's physical address space.

    The top of memory is reserved, region by region, for prefetcher
    meta-data (mirroring the "private region of main memory" of the paper);
    everything below remains application memory.
    """

    def __init__(self, total_bytes: int) -> None:
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.total_bytes = align_down(total_bytes, BLOCK_BYTES)
        if self.total_bytes == 0:
            raise ValueError("total_bytes smaller than one block")
        self._reserved_base = self.total_bytes
        self._regions: list[Region] = []

    @property
    def regions(self) -> tuple[Region, ...]:
        """All reserved meta-data regions, in allocation order."""
        return tuple(self._regions)

    @property
    def application_bytes(self) -> int:
        """Bytes still available to the application."""
        return self._reserved_base

    def reserve(self, size: int) -> Region:
        """Carve ``size`` bytes (block-aligned) off the top of memory."""
        size = align_up(size, BLOCK_BYTES)
        if size > self._reserved_base:
            raise MemoryError(
                f"cannot reserve {size} bytes; "
                f"only {self._reserved_base} available"
            )
        self._reserved_base -= size
        region = Region(base=self._reserved_base, size=size)
        self._regions.append(region)
        return region

    def is_metadata_block(self, block: int) -> bool:
        """Return True if ``block`` lies inside any reserved region."""
        address = block_to_address(block)
        return address >= self._reserved_base
