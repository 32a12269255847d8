"""Per-core stream engine: the on-chip FIFO address queue and stream state.

Each core's stream engine holds the addresses read from the (possibly
remote) history buffer, issues them to the prefetch path in order, and
tracks how far the core has successfully consumed the stream so stream
ends can be annotated and divergence detected.

The engine is deliberately *state only* — all memory traffic (history
block fetches, prefetch fills) is orchestrated by
:class:`repro.core.stms.StmsPrefetcher`, which owns the shared resources.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple


class QueuedAddress(NamedTuple):
    """One address waiting in the FIFO queue.

    ``ready_at`` is when the history block it came from arrives on chip;
    a prefetch for it cannot issue earlier.
    """

    source_core: int
    sequence: int
    block: int
    marked: bool
    ready_at: float


class StreamEngine:
    """FIFO address queue plus active-stream bookkeeping for one core."""

    __slots__ = ('core', 'queue_capacity', 'refill_threshold', 'serial', '_queue', 'active', 'source_core', 'next_fetch_sequence', 'paused_at', '_issued', 'last_consumed', 'consumed_count')

    def __init__(
        self,
        core: int,
        queue_capacity: int,
        refill_threshold: int,
    ) -> None:
        if queue_capacity <= 0:
            raise ValueError("queue_capacity must be positive")
        if not 0 <= refill_threshold <= queue_capacity:
            raise ValueError("refill_threshold must fit within the queue")
        self.core = core
        self.queue_capacity = queue_capacity
        self.refill_threshold = refill_threshold
        #: Monotonic stream generation; prefetches are tagged with it so
        #: in-flight counts apply per stream, not per buffer.
        self.serial = 0
        self._queue: deque[QueuedAddress] = deque()
        #: Whether a stream is being followed and where its next unread
        #: history entry lives.
        self.active = False
        self.source_core = -1
        self.next_fetch_sequence = 0
        #: Marked entry the engine paused at, awaiting explicit demand.
        self.paused_at: QueuedAddress | None = None
        #: In-flight / buffered prefetches of this stream, by block.
        self._issued: dict[int, QueuedAddress] = {}
        #: Most recent stream entry the core actually consumed.
        self.last_consumed: QueuedAddress | None = None
        #: Blocks consumed from the current stream (for annotation policy).
        self.consumed_count = 0

    # ------------------------------------------------------------------
    # Stream lifecycle.
    # ------------------------------------------------------------------

    def begin(self, source_core: int, next_fetch_sequence: int) -> None:
        """Start following a stream; clears prior queue state."""
        self.reset()
        self.serial += 1
        self.active = True
        self.source_core = source_core
        self.next_fetch_sequence = next_fetch_sequence

    def reset(self) -> None:
        """Abandon the current stream (queue and consumption tracking)."""
        self._queue.clear()
        self._issued.clear()
        self.active = False
        self.source_core = -1
        self.next_fetch_sequence = 0
        self.paused_at = None
        self.last_consumed = None
        self.consumed_count = 0

    # ------------------------------------------------------------------
    # Queue management.
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def queue_free(self) -> int:
        return self.queue_capacity - len(self._queue)

    def enqueue_segment(
        self,
        first_sequence: int,
        blocks: "list[int]",
        marks: "list[bool]",
        ready_at: float,
    ) -> int:
        """Feed one history-block segment into the queue.

        Takes the parallel column lists a
        :meth:`~repro.core.history_buffer.HistoryBuffer.read_segment`
        returns (consecutive sequences from ``first_sequence``).  A
        marked entry is queued (the annotated address itself may still
        be requested) but nothing beyond it, and the engine pauses.
        Returns the number of entries accepted.
        """
        if not self.active:
            return 0
        queue = self._queue
        sequence = first_sequence
        accepted = 0
        for block, marked in zip(blocks, marks):
            if len(queue) >= self.queue_capacity:
                break
            queued = QueuedAddress(
                self.source_core, sequence, block, marked, ready_at
            )
            queue.append(queued)
            self.next_fetch_sequence = sequence + 1
            accepted += 1
            if marked:
                self.paused_at = queued
                break
            sequence += 1
        return accepted

    def pop_for_prefetch(self) -> QueuedAddress | None:
        """Next address to prefetch, honouring an end-of-stream pause.

        A marked entry is returned once (so its data can be staged) but
        the stream will not advance past it until :meth:`confirm_resume`.
        """
        if not self._queue:
            return None
        head = self._queue[0]
        if (
            self.paused_at is not None
            and head.sequence > self.paused_at.sequence
        ):
            return None
        self._queue.popleft()
        self._issued[head.block] = head
        return head

    def needs_refill(self) -> bool:
        """True when the queue is low and the stream can keep going."""
        return (
            self.active
            and self.paused_at is None
            and len(self._queue) <= self.refill_threshold
        )

    # ------------------------------------------------------------------
    # Consumption tracking.
    # ------------------------------------------------------------------

    def on_consumed(self, block: int) -> QueuedAddress | None:
        """The core consumed a prefetched block; advance stream state."""
        entry = self._issued.pop(block, None)
        if entry is None:
            return None
        self.last_consumed = entry
        self.consumed_count += 1
        if (
            self.paused_at is not None
            and entry.sequence >= self.paused_at.sequence
        ):
            # The annotated address was explicitly requested: resume.
            self.paused_at = None
        return entry

    def confirm_resume(self, block: int) -> bool:
        """A demand miss matched the paused address: resume streaming."""
        if self.paused_at is None or self.paused_at.block != block:
            return False
        paused = self.paused_at
        self.paused_at = None
        self.last_consumed = paused
        self.consumed_count += 1
        return True

    def annotation_target(self) -> "tuple[int, int] | None":
        """Where an end-of-stream mark belongs: entry after the last
        contiguous successfully prefetched address.

        Returns ``(source_core, sequence)`` or None when the stream never
        made progress (nothing learned about its end).
        """
        if self.last_consumed is None or self.consumed_count == 0:
            return None
        return (
            self.last_consumed.source_core,
            self.last_consumed.sequence + 1,
        )
