"""STMS configuration.

Defaults correspond to the paper's operating point, scaled: a 12.5 %
index-update sampling probability, 12-entry single-block hash buckets, an
8 KB on-chip bucket buffer, a 2 KB per-core prefetch buffer, and split
per-core history buffers with a shared index table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.memory.config import BLOCK_BYTES, is_power_of_two

#: Bytes of one packed history entry (42-bit address + mark bit, padded).
HISTORY_ENTRY_BYTES = 5
#: Bytes of one packed index entry (tag + history pointer).
INDEX_ENTRY_BYTES = 5


def check_tag_bits(tag_bits: "int | None") -> None:
    """Reject an index tag width the int64 block numbers cannot carry."""
    if tag_bits is None:
        return
    if tag_bits <= 0:
        raise ValueError("tag_bits must be positive when given")
    if tag_bits > 63:
        raise ValueError(
            f"tag_bits must be at most 63, got {tag_bits}: block numbers "
            f"are int64, and tag_bits=None keeps full-address tags"
        )


@dataclass(frozen=True)
class StmsConfig:
    """All STMS parameters in one immutable object."""

    #: Number of cores (each gets a history buffer and stream engine).
    cores: int = 4
    #: Per-core history-buffer capacity in entries.  The paper sizes the
    #: aggregate history at up to 32 MB; scaled presets shrink this while
    #: preserving the history/working-set ratio.
    history_entries: int = 32_768
    #: Shared index-table bucket count (power of two).  Each bucket
    #: occupies one 64-byte block; the paper's 16 MB table is 256 K
    #: buckets.
    index_buckets: int = 2_048
    #: {address, pointer} pairs per bucket (12 in the paper's design).
    bucket_entries: int = 12
    #: Probability that a candidate index-table update is applied.
    sampling_probability: float = 0.125
    #: On-chip bucket-buffer capacity in buckets (8 KB = 128 buckets).
    bucket_buffer_entries: int = 128
    #: Per-core prefetch-buffer capacity in blocks (2 KB = 32 blocks).
    prefetch_buffer_blocks: int = 32
    #: Prefetches kept in flight ahead of consumption.
    lookahead: int = 12
    #: FIFO address-queue capacity per core (<128 bytes on chip).
    address_queue_entries: int = 24
    #: Refill the address queue when it drains below this many entries.
    queue_refill_threshold: int = 6
    #: Index-entry tag width in bits; ``None`` stores full addresses
    #: (no aliasing).  Realistic hardware truncates; the ablation
    #: ``test_ablation_tag_truncation`` bounds the coverage 16-bit tags
    #: lose.
    tag_bits: "int | None" = None
    #: Write end-of-stream marks into the history buffer (Section 4.5).
    #: Disable for the ablation test: without marks, streaming runs
    #: past stream boundaries and wastes bandwidth on erroneous blocks.
    annotate_stream_ends: bool = True
    #: Seed for the sampling coin flips.
    seed: int = 42

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("cores must be positive")
        if self.history_entries <= 0:
            raise ValueError("history_entries must be positive")
        if not is_power_of_two(self.index_buckets):
            raise ValueError(
                f"index_buckets must be a power of two, got "
                f"{self.index_buckets}"
            )
        if self.bucket_entries <= 0:
            raise ValueError("bucket_entries must be positive")
        if not 0.0 <= self.sampling_probability <= 1.0:
            raise ValueError("sampling_probability must be within [0, 1]")
        if self.bucket_buffer_entries <= 0:
            raise ValueError("bucket_buffer_entries must be positive")
        if self.prefetch_buffer_blocks <= 0:
            raise ValueError("prefetch_buffer_blocks must be positive")
        if self.lookahead <= 0:
            raise ValueError("lookahead must be positive")
        if self.address_queue_entries <= 0:
            raise ValueError("address_queue_entries must be positive")
        if not 0 <= self.queue_refill_threshold <= self.address_queue_entries:
            raise ValueError(
                "queue_refill_threshold must be within the queue capacity"
            )
        check_tag_bits(self.tag_bits)

    # ------------------------------------------------------------------
    # Derived storage figures (checked in tests/core/test_config.py).
    # ------------------------------------------------------------------

    @property
    def history_bytes_per_core(self) -> int:
        """Main-memory footprint of one core's history buffer."""
        return self.history_entries * HISTORY_ENTRY_BYTES

    @property
    def history_bytes_total(self) -> int:
        return self.history_bytes_per_core * self.cores

    @property
    def index_bytes(self) -> int:
        """Main-memory footprint of the shared index table."""
        return self.index_buckets * BLOCK_BYTES

    @property
    def metadata_bytes(self) -> int:
        """Total off-chip meta-data footprint."""
        return self.history_bytes_total + self.index_bytes

    @property
    def on_chip_bytes(self) -> int:
        """Total on-chip storage STMS adds (buffers and queues)."""
        prefetch = self.cores * self.prefetch_buffer_blocks * BLOCK_BYTES
        queues = self.cores * self.address_queue_entries * INDEX_ENTRY_BYTES
        bucket_buffer = self.bucket_buffer_entries * BLOCK_BYTES
        return prefetch + queues + bucket_buffer

    def with_sampling(self, probability: float) -> "StmsConfig":
        """Copy with a different sampling probability (Fig. 8 sweeps)."""
        return replace(self, sampling_probability=probability)

    def with_history(self, entries: int) -> "StmsConfig":
        """Copy with a different history capacity (Fig. 5 left sweeps)."""
        return replace(self, history_entries=entries)

    def with_index(self, buckets: int) -> "StmsConfig":
        """Copy with a different index size (Fig. 5 right sweeps)."""
        return replace(self, index_buckets=buckets)
