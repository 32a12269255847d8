"""Per-core circular history buffer in simulated main memory.

The history buffer logs the core's off-chip miss addresses (and prefetched
hits) in program order.  Key properties from the paper:

* **Packed writes.** Appends accumulate in a cache-block-sized on-chip
  buffer and spill to memory as one 64-byte write per twelve entries, so
  recording traffic is negligible (one write per ~12 misses).
* **Circular reuse.** The buffer wraps; an index-table pointer is valid
  only while its target has not been overwritten.
* **End-of-stream marks.** The entry *after* the last contiguous
  successfully prefetched address can be annotated so later followers
  pause instead of streaming garbage past a stream boundary.

Pointers are monotonically increasing sequence numbers; sequence ``s``
lives in packed block ``s // 12`` of the buffer's memory region.

Pack buffer
===========

The on-chip pack buffer is a pair of plain lists (``_pend_blocks`` /
``_pend_marks``) that commit to the circular arrays as one slice when
they spill.  The capacity is a whole number of packed blocks and spills
happen on packed-block boundaries, so the pack buffer covers one aligned
packed block and a :meth:`HistoryBuffer.read_segment` request is served
either from the committed arrays or from the pack buffer.  Only a
mid-run partial :meth:`HistoryBuffer.flush` leaves it unaligned; reads
then splice the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


from repro.core.codec import HISTORY_ENTRIES_PER_BLOCK, history_capacity
from repro.memory.address import Region
from repro.memory.config import TrafficCategory
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter


class _HistoryPointerFields(NamedTuple):
    core: int
    sequence: int


class HistoryPointer(_HistoryPointerFields):
    """A location inside some core's history buffer (validated)."""

    __slots__ = ()

    def __new__(cls, core: int, sequence: int) -> "HistoryPointer":
        if core < 0:
            raise ValueError("core must be non-negative")
        if sequence < 0:
            raise ValueError("sequence must be non-negative")
        return tuple.__new__(cls, (core, sequence))


class HistoryEntry(NamedTuple):
    """One logged miss: where it sits, what it was, and its mark bit."""

    sequence: int
    block: int
    marked: bool


@dataclass
class HistoryStats:
    """Traffic-relevant history-buffer counters."""

    appends: int = 0
    packed_writes: int = 0
    block_reads: int = 0
    on_chip_reads: int = 0
    annotations: int = 0
    stale_reads: int = 0


class HistoryBuffer:
    """One core's circular miss log with write-combining and marks."""

    __slots__ = ('core', 'capacity', 'region', 'dram', 'traffic', 'stats', 'head', '_blocks', '_marks', '_pend_blocks', '_pend_marks')

    def __init__(
        self,
        core: int,
        capacity_entries: int,
        region: Region,
        dram: DramChannel,
        traffic: TrafficMeter,
    ) -> None:
        capacity = history_capacity(capacity_entries)
        needed_blocks = -(-capacity_entries // HISTORY_ENTRIES_PER_BLOCK)
        if region.blocks < needed_blocks:
            raise ValueError(
                f"region holds {region.blocks} blocks; "
                f"{needed_blocks} needed for {capacity_entries} entries"
            )
        self.core = core
        self.capacity = capacity
        self.region = region
        self.dram = dram
        self.traffic = traffic
        traffic.ensure_cores(core + 1)
        self.stats = HistoryStats()
        #: Total entries ever appended; next append gets this sequence.
        self.head = 0
        # Plain lists: the pack buffer commits whole aligned segments by
        # slice assignment, and stream reads slice whole segments back
        # out — native values both ways.
        self._blocks: list[int] = [0] * self.capacity
        self._marks: list[bool] = [False] * self.capacity
        #: The on-chip pack buffer: appends not yet committed/spilled.
        #: Always covers the aligned packed block ``head`` is in.
        self._pend_blocks: list[int] = []
        self._pend_marks: list[bool] = []

    # ------------------------------------------------------------------
    # Validity.
    # ------------------------------------------------------------------

    @property
    def oldest_valid(self) -> int:
        """Smallest sequence number not yet overwritten."""
        return max(0, self.head - self.capacity)

    def is_valid(self, sequence: int) -> bool:
        """True while ``sequence`` is still resident in the buffer."""
        head = self.head
        return (
            head > sequence >= head - self.capacity and sequence >= 0
        )

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------

    def append(self, block: int, now: float) -> int:
        """Log ``block``; returns its sequence number.

        Every :data:`~repro.core.codec.HISTORY_ENTRIES_PER_BLOCK` appends,
        the pack buffer spills as one low-priority packed write.
        """
        sequence = self.head
        pending = self._pend_blocks
        pending.append(block)
        self._pend_marks.append(False)
        self.head = sequence + 1
        self.stats.appends += 1
        if len(pending) >= HISTORY_ENTRIES_PER_BLOCK:
            self._spill(now)
        return sequence

    def _commit_pending(self) -> None:
        """Slice the pack buffer into the circular arrays (one segment).

        After a mid-run partial :meth:`flush` the pack buffer is no
        longer packed-block aligned, so a commit may wrap the circular
        boundary; split the splice in that case.
        """
        pending = self._pend_blocks
        n = len(pending)
        if not n:
            return
        capacity = self.capacity
        start = (self.head - n) % capacity
        end = start + n
        if end <= capacity:
            self._blocks[start:end] = pending
            self._marks[start:end] = self._pend_marks
        else:
            split = capacity - start
            self._blocks[start:] = pending[:split]
            self._marks[start:] = self._pend_marks[:split]
            self._blocks[: end - capacity] = pending[split:]
            self._marks[: end - capacity] = self._pend_marks[split:]
        pending.clear()
        self._pend_marks.clear()

    def _spill(self, now: float) -> None:
        self._commit_pending()
        self.stats.packed_writes += 1
        # Recording traffic is the owning core's: it logs its own misses.
        self.traffic.add_block(TrafficCategory.RECORD_STREAMS, self.core)
        self.dram.request_low(now)

    def flush(self, now: float) -> None:
        """Force any partially filled pack buffer out (simulation end)."""
        if self._pend_blocks:
            self._spill(now)

    def annotate(
        self, sequence: int, now: float, requester: "int | None" = None
    ) -> bool:
        """Set the end-of-stream mark on ``sequence`` if still valid.

        The mark is an in-place read-modify-write of one packed history
        block; modeled as a single low-priority write attributed to
        ``requester`` (the annotating core; default: the owning core).
        """
        if not self.is_valid(sequence):
            return False
        first_pending = self.head - len(self._pend_blocks)
        if sequence >= first_pending:
            self._pend_marks[sequence - first_pending] = True
        else:
            self._marks[sequence % self.capacity] = True
        self.stats.annotations += 1
        self.traffic.add_block(
            TrafficCategory.RECORD_STREAMS,
            self.core if requester is None else requester,
        )
        self.dram.request_low(now)
        return True

    # ------------------------------------------------------------------
    # Stream reads.
    # ------------------------------------------------------------------

    def read_segment(
        self, sequence: int, now: float, reader: "int | None" = None
    ) -> "tuple[int, list[int], list[bool], float]":
        """Fetch the packed-block segment containing ``sequence``.

        Returns ``(first_sequence, blocks, marks, arrival)`` where the
        parallel ``blocks``/``marks`` lists cover the consecutive valid
        sequences ``first_sequence ..`` up to the end of the packed block
        (at most :data:`HISTORY_ENTRIES_PER_BLOCK` entries).  Entries
        newer than the last spill are still on chip, so reading the
        packed block that overlaps the pack buffer costs nothing.  The
        off-chip read is attributed to ``reader`` — the *streaming* core
        following this history, which may differ from the owning core —
        defaulting to the owner.
        """
        if not self.is_valid(sequence):
            self.stats.stale_reads += 1
            return sequence, [], [], now
        block_start = (
            sequence // HISTORY_ENTRIES_PER_BLOCK
        ) * HISTORY_ENTRIES_PER_BLOCK
        block_end = min(block_start + HISTORY_ENTRIES_PER_BLOCK, self.head)
        first = max(sequence, self.head - self.capacity)

        first_pending = self.head - len(self._pend_blocks)
        if block_end > first_pending:
            # Some (or all) of the packed block is still in the pack
            # buffer: serve it on chip.  A mid-run partial flush can
            # leave the pack buffer unaligned, so the block may be part
            # committed arrays, part pending lists.
            self.stats.on_chip_reads += 1
            pending_end = block_end - first_pending
            if first >= first_pending:
                offset = first - first_pending
                return (
                    first,
                    self._pend_blocks[offset:pending_end],
                    self._pend_marks[offset:pending_end],
                    now,
                )
            # ``first .. first_pending`` is committed and lies inside
            # one aligned packed block (contiguous slots); the rest is
            # the head of the pack buffer.
            slot = first % self.capacity
            committed = first_pending - first
            return (
                first,
                self._blocks[slot:slot + committed]
                + self._pend_blocks[:pending_end],
                self._marks[slot:slot + committed]
                + self._pend_marks[:pending_end],
                now,
            )
        self.stats.block_reads += 1
        self.traffic.add_block(
            TrafficCategory.LOOKUP_STREAMS,
            self.core if reader is None else reader,
        )
        arrival = self.dram.request_low(now)
        # ``first .. block_end`` lies inside one aligned packed block and
        # the capacity is a whole number of packed blocks, so the slots
        # are contiguous: one sliced read covers the segment.
        slot = first % self.capacity
        count = block_end - first
        return (
            first,
            self._blocks[slot:slot + count],
            self._marks[slot:slot + count],
            arrival,
        )

    def peek(self, sequence: int) -> HistoryEntry | None:
        """Inspect one entry without timing or traffic (tests/debug)."""
        if not self.is_valid(sequence):
            return None
        first_pending = self.head - len(self._pend_blocks)
        if sequence >= first_pending:
            offset = sequence - first_pending
            return HistoryEntry(
                sequence=sequence,
                block=self._pend_blocks[offset],
                marked=self._pend_marks[offset],
            )
        slot = sequence % self.capacity
        return HistoryEntry(
            sequence=sequence,
            block=self._blocks[slot],
            marked=self._marks[slot],
        )
