"""Byte-exact layouts of the off-chip meta-data structures.

The paper's practicality argument hinges on two packing claims:

* a **history-buffer block** holds 12 miss addresses, so one densely
  packed write covers twelve appends, and
* an **index-table bucket** holds 12 {address, history-pointer} pairs in
  exactly one 64-byte memory block, so a lookup costs a single access.

This module implements those layouts bit-for-bit so tests can prove they
fit.  Both formats spend 42 bits per entry (12 x 42 = 504 bits <= 512):

``history entry``
    41-bit block address + 1 end-of-stream mark bit.
``index entry``
    16-bit partial tag (bucket index bits are implicit) + 2-bit source
    core + 24-bit wrapped history sequence number.

The simulator's runtime model (:mod:`repro.core.history_buffer`,
:mod:`repro.core.index_table`) uses richer Python objects for speed, but
its capacities, in-bucket LRU-by-position order, and traffic charges all
match this physical layout.
"""

from __future__ import annotations

from repro.memory.config import BLOCK_BYTES

#: Entries per packed history block / index bucket.
HISTORY_ENTRIES_PER_BLOCK = 12
INDEX_ENTRIES_PER_BUCKET = 12


def history_capacity(entries: int) -> int:
    """Entries a history buffer sized for ``entries`` holds: whole
    packed blocks only, at least one."""
    if entries < HISTORY_ENTRIES_PER_BLOCK:
        raise ValueError(
            "capacity must be at least one packed block "
            f"({HISTORY_ENTRIES_PER_BLOCK} entries)"
        )
    return entries // HISTORY_ENTRIES_PER_BLOCK * HISTORY_ENTRIES_PER_BLOCK

#: Bit widths of the packed fields.
ADDRESS_BITS = 41
MARK_BITS = 1
TAG_BITS = 16
CORE_BITS = 2
SEQ_BITS = 24

ENTRY_BITS = ADDRESS_BITS + MARK_BITS
assert ENTRY_BITS == TAG_BITS + CORE_BITS + SEQ_BITS == 42

_ADDRESS_MASK = (1 << ADDRESS_BITS) - 1
_TAG_MASK = (1 << TAG_BITS) - 1
_CORE_MASK = (1 << CORE_BITS) - 1
_SEQ_MASK = (1 << SEQ_BITS) - 1
_ENTRY_MASK = (1 << ENTRY_BITS) - 1


def _pack_words(words: list[int]) -> bytes:
    """Pack 42-bit words little-endian into one 64-byte block."""
    if len(words) > HISTORY_ENTRIES_PER_BLOCK:
        raise ValueError(
            f"at most {HISTORY_ENTRIES_PER_BLOCK} entries per block, "
            f"got {len(words)}"
        )
    accumulator = 0
    for position, word in enumerate(words):
        if word < 0 or word > _ENTRY_MASK:
            raise ValueError(f"entry {position} exceeds {ENTRY_BITS} bits")
        accumulator |= word << (position * ENTRY_BITS)
    return accumulator.to_bytes(BLOCK_BYTES, "little")


def _unpack_words(payload: bytes) -> list[int]:
    if len(payload) != BLOCK_BYTES:
        raise ValueError(
            f"expected a {BLOCK_BYTES}-byte block, got {len(payload)} bytes"
        )
    accumulator = int.from_bytes(payload, "little")
    return [
        (accumulator >> (position * ENTRY_BITS)) & _ENTRY_MASK
        for position in range(HISTORY_ENTRIES_PER_BLOCK)
    ]


def pack_history_block(entries: list[tuple[int, bool]]) -> bytes:
    """Pack up to 12 ``(block_address, end_mark)`` pairs into 64 bytes.

    Unused slots pack as zero; callers track occupancy via the history
    head counter, so no per-entry valid bit is needed.
    """
    words = []
    for address, mark in entries:
        if address < 0 or address > _ADDRESS_MASK:
            raise ValueError(
                f"block address {address} exceeds {ADDRESS_BITS} bits"
            )
        words.append((address << MARK_BITS) | int(bool(mark)))
    return _pack_words(words)


def unpack_history_block(payload: bytes) -> list[tuple[int, bool]]:
    """Inverse of :func:`pack_history_block` (always 12 slots)."""
    return [
        (word >> MARK_BITS, bool(word & 1))
        for word in _unpack_words(payload)
    ]


def pack_index_bucket(entries: list[tuple[int, int, int]]) -> bytes:
    """Pack up to 12 ``(tag, core, sequence)`` index entries.

    Entries must already be in recency order (MRU first): the physical
    position encodes LRU state, which is why the paper reshuffles bucket
    elements before write-back instead of storing recency bits.
    """
    words = []
    for tag, core, sequence in entries:
        if tag < 0 or tag > _TAG_MASK:
            raise ValueError(f"tag {tag} exceeds {TAG_BITS} bits")
        if core < 0 or core > _CORE_MASK:
            raise ValueError(f"core {core} exceeds {CORE_BITS} bits")
        if sequence < 0 or sequence > _SEQ_MASK:
            raise ValueError(f"sequence {sequence} exceeds {SEQ_BITS} bits")
        words.append(
            (tag << (CORE_BITS + SEQ_BITS)) | (core << SEQ_BITS) | sequence
        )
    return _pack_words(words)


def unpack_index_bucket(payload: bytes) -> list[tuple[int, int, int]]:
    """Inverse of :func:`pack_index_bucket` (always 12 slots)."""
    return [
        (
            word >> (CORE_BITS + SEQ_BITS),
            (word >> SEQ_BITS) & _CORE_MASK,
            word & _SEQ_MASK,
        )
        for word in _unpack_words(payload)
    ]
