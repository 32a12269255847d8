"""Shared bucketized hash index table in simulated main memory.

The index table maps a miss address to a pointer into some core's history
buffer.  Its defining properties (paper Section 4.3):

* Buckets are sized to the memory interface: one 64-byte block holds up
  to 12 ``{address, pointer}`` entries, so a lookup retrieves and
  linearly searches an entire bucket with **one** memory access.
* Replacement is LRU *within* a bucket; entries are kept physically in
  recency order (reshuffled before write-back), so no extra recency
  state is stored.
* The table is shared by all cores — a lookup by one core can locate a
  temporal stream recorded by another — and supports independent
  parallel access without synchronization.

This class is the *state* of the table; DRAM timing and traffic for
bucket reads/writes are charged by the caller (:class:`StmsPrefetcher`)
through the on-chip bucket buffer, mirroring the hardware split.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.history_buffer import HistoryPointer
from repro.memory.config import is_power_of_two


#: Knuth multiplicative hashing constant (2^32 / golden ratio).
_HASH_MULTIPLIER = 2654435761


def stacked_metadata_arrays(
    blocks_arrays: "list[np.ndarray]",
    geometries: "list[tuple[int, int | None]]",
) -> "dict[tuple[int, int | None], tuple[list, list | None]]":
    """Bucket/tag *arrays* for every index geometry in one pass.

    ``geometries`` lists ``(index_buckets, tag_bits)`` pairs — the two
    parameters :meth:`IndexTable.bucket_of_array` and
    :meth:`IndexTable.tag_of_array` depend on.  The hash product
    (multiply + shift) is computed once per block column and masked
    against a *config axis* of bucket masks in one broadcast, so
    classifying a whole sweep grid's metadata costs one vectorized pass
    over the trace instead of one per cell.  Values are ``int64``
    per-core NumPy arrays (geometries sharing ``tag_bits`` share the
    *same* tag array objects); :func:`stacked_metadata_columns` wraps
    this with the native-list conversion the batched engine consumes,
    and the shared-memory trace plane exports the arrays directly.
    """
    unique = [g for g in dict.fromkeys(geometries)]
    out: "dict[tuple[int, int | None], tuple[list, list | None]]" = {}
    if not unique:
        return out
    for buckets, _ in unique:
        if not is_power_of_two(buckets):
            raise ValueError(
                f"buckets must be a power of two, got {buckets}"
            )
    masks = np.array([b - 1 for b, _ in unique], dtype=np.uint64)
    bucket_columns: "list[list[np.ndarray]]" = [[] for _ in unique]
    blocks_i64 = [np.asarray(b, dtype=np.int64) for b in blocks_arrays]
    for blocks in blocks_arrays:
        products = np.asarray(blocks, dtype=np.uint64) * np.uint64(
            _HASH_MULTIPLIER
        )
        shifted = products >> np.uint64(11)
        # (configs, records): every geometry's bucket column at once.
        stacked = (shifted[None, :] & masks[:, None]).astype(np.int64)
        for row, column in zip(stacked, bucket_columns):
            column.append(row)
    tag_cache: "dict[int, list[np.ndarray]]" = {}
    for index, (buckets, tag_bits) in enumerate(unique):
        if tag_bits is None:
            tags = None
        elif tag_bits in tag_cache:
            tags = tag_cache[tag_bits]
        else:
            tag_mask = np.int64((1 << tag_bits) - 1)
            tags = [b & tag_mask for b in blocks_i64]
            tag_cache[tag_bits] = tags
        out[(buckets, tag_bits)] = (bucket_columns[index], tags)
    return out


def stacked_metadata_columns(
    blocks_arrays: "list[np.ndarray]",
    geometries: "list[tuple[int, int | None]]",
) -> "dict[tuple[int, int | None], tuple[list, list | None]]":
    """Bucket/tag columns for *every* index geometry in one pass.

    The native-list form of :func:`stacked_metadata_arrays` — each
    geometry's columns are element-for-element what the per-cell
    :meth:`IndexTable.bucket_of_array` / :meth:`IndexTable.tag_of_array`
    produce (the sweep differential tests pin this), in the list form
    the batched engine consumes.
    """
    arrays = stacked_metadata_arrays(blocks_arrays, geometries)
    out: "dict[tuple[int, int | None], tuple[list, list | None]]" = {}
    # Geometries sharing tag_bits share tag array objects; convert each
    # distinct array list once.
    converted: "dict[int, list]" = {}

    def _tolist(columns: "list[np.ndarray]") -> list:
        key = id(columns)
        if key not in converted:
            converted[key] = [c.tolist() for c in columns]
        return converted[key]

    for geometry, (buckets, tags) in arrays.items():
        out[geometry] = (
            _tolist(buckets),
            None if tags is None else _tolist(tags),
        )
    return out


@dataclass
class IndexStats:
    """Index-table behaviour counters."""

    lookups: int = 0
    hits: int = 0
    tag_aliases: int = 0
    inserts: int = 0
    replacements: int = 0
    pointer_updates: int = 0


class IndexTable:
    """Bucketized hash table: address -> history pointer."""

    __slots__ = ('buckets', 'bucket_entries', 'tag_bits', 'stats', '_bucket_mask', '_bucket_tags', '_bucket_ptrs')

    def __init__(
        self,
        buckets: int,
        bucket_entries: int = 12,
        tag_bits: "int | None" = None,
    ) -> None:
        if not is_power_of_two(buckets):
            raise ValueError(f"buckets must be a power of two, got {buckets}")
        if bucket_entries <= 0:
            raise ValueError("bucket_entries must be positive")
        if tag_bits is not None and tag_bits <= 0:
            raise ValueError("tag_bits must be positive when given")
        self.buckets = buckets
        self.bucket_entries = bucket_entries
        self.tag_bits = tag_bits
        self.stats = IndexStats()
        self._bucket_mask = buckets - 1
        # Each bucket: parallel tag/pointer lists, most recently used
        # first.
        self._bucket_tags: list[list[int]] = [[] for _ in range(buckets)]
        self._bucket_ptrs: list[list[HistoryPointer]] = [
            [] for _ in range(buckets)
        ]

    # ------------------------------------------------------------------
    # Hashing and tagging.
    # ------------------------------------------------------------------

    def bucket_of(self, block: int) -> int:
        """Hash ``block`` to its bucket index."""
        return ((block * _HASH_MULTIPLIER) >> 11) & self._bucket_mask

    def tag_of(self, block: int) -> int:
        """The tag stored for ``block`` (possibly truncated)."""
        if self.tag_bits is None:
            return block
        return block & ((1 << self.tag_bits) - 1)

    def bucket_of_array(self, blocks: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`bucket_of` over a whole block column.

        Exact for any block number below 2**53: the kept bits (11 ..
        ``11 + log2(buckets)``) of the hash product survive the uint64
        wraparound unchanged, so the NumPy pass classifies every record
        into the bucket the scalar hash would pick.
        """
        products = np.asarray(blocks, dtype=np.uint64) * np.uint64(
            _HASH_MULTIPLIER
        )
        return (
            (products >> np.uint64(11)) & np.uint64(self._bucket_mask)
        ).astype(np.int64)

    def tag_of_array(self, blocks: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`tag_of` over a whole block column."""
        blocks = np.asarray(blocks, dtype=np.int64)
        if self.tag_bits is None:
            return blocks
        return blocks & np.int64((1 << self.tag_bits) - 1)

    # ------------------------------------------------------------------
    # Bucket operations (state only; caller charges traffic).
    # ------------------------------------------------------------------

    def lookup(self, block: int) -> "HistoryPointer | None":
        """Search the bucket for ``block``; LRU-touch on hit.

        With truncated tags an aliasing entry may match a different
        address — the pointer returned then leads to an unrelated stream
        whose prefetches will be wasted, exactly as in real hardware.
        """
        self.stats.lookups += 1
        bucket = self.bucket_of(block)
        tag = self.tag_of(block)
        tags = self._bucket_tags[bucket]
        if tag not in tags:
            return None
        position = tags.index(tag)
        ptrs = self._bucket_ptrs[bucket]
        pointer = ptrs[position]
        if position != 0:
            tags.insert(0, tags.pop(position))
            ptrs.insert(0, ptrs.pop(position))
        self.stats.hits += 1
        return pointer

    def update(self, block: int, pointer: HistoryPointer) -> bool:
        """Point ``block`` at a new history location.

        Returns True when an existing (LRU) entry had to be replaced —
        i.e. the bucket was full and an older correlation aged out.
        """
        bucket = self.bucket_of(block)
        tag = self.tag_of(block)
        tags = self._bucket_tags[bucket]
        ptrs = self._bucket_ptrs[bucket]
        if tag in tags:
            position = tags.index(tag)
            if position != 0:
                tags.insert(0, tags.pop(position))
            ptrs.pop(position)
            ptrs.insert(0, pointer)
            self.stats.pointer_updates += 1
            return False
        replaced = False
        if len(tags) >= self.bucket_entries:
            tags.pop()
            ptrs.pop()
            replaced = True
            self.stats.replacements += 1
        tags.insert(0, tag)
        ptrs.insert(0, pointer)
        self.stats.inserts += 1
        return replaced

    def bucket_contents(
        self, bucket: int
    ) -> list[tuple[int, HistoryPointer]]:
        """Entries of ``bucket`` in recency order (tests/serialization)."""
        if not 0 <= bucket < self.buckets:
            raise IndexError(f"bucket {bucket} out of range")
        return list(
            zip(self._bucket_tags[bucket], self._bucket_ptrs[bucket])
        )

    def occupancy(self) -> int:
        """Total live entries across all buckets."""
        return sum(len(tags) for tags in self._bucket_tags)
