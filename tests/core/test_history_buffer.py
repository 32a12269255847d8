"""Unit tests for the circular history buffer."""

import pytest

from repro.core.codec import HISTORY_ENTRIES_PER_BLOCK
from repro.core.history_buffer import HistoryBuffer
from repro.memory.address import Region
from repro.memory.config import BLOCK_BYTES, TrafficCategory
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter


def make_history(capacity_entries: int = 48) -> HistoryBuffer:
    blocks = -(-capacity_entries // HISTORY_ENTRIES_PER_BLOCK)
    return HistoryBuffer(
        core=0,
        capacity_entries=capacity_entries,
        region=Region(base=0, size=blocks * BLOCK_BYTES),
        dram=DramChannel(),
        traffic=TrafficMeter(),
    )


class TestAppendAndSpill:
    def test_sequences_are_monotonic(self):
        history = make_history()
        assert history.append(10, now=0.0) == 0
        assert history.append(11, now=0.0) == 1
        assert history.head == 2

    def test_packed_write_every_twelve_appends(self):
        history = make_history()
        for i in range(HISTORY_ENTRIES_PER_BLOCK - 1):
            history.append(i, now=0.0)
        assert history.stats.packed_writes == 0
        history.append(99, now=0.0)
        assert history.stats.packed_writes == 1
        assert (
            history.traffic.bytes_for(TrafficCategory.RECORD_STREAMS)
            == BLOCK_BYTES
        )

    def test_flush_spills_partial_block(self):
        history = make_history()
        history.append(1, now=0.0)
        history.flush(now=0.0)
        assert history.stats.packed_writes == 1
        history.flush(now=0.0)
        assert history.stats.packed_writes == 1  # nothing pending


class TestValidityWindow:
    def test_wrap_invalidates_oldest(self):
        history = make_history(capacity_entries=24)
        for i in range(30):
            history.append(i, now=0.0)
        assert history.oldest_valid == 6
        assert not history.is_valid(5)
        assert history.is_valid(6)
        assert history.is_valid(29)
        assert not history.is_valid(30)

    def test_capacity_rounded_to_blocks(self):
        history = make_history(capacity_entries=30)
        assert history.capacity == 24

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            HistoryBuffer(
                core=0,
                capacity_entries=4,
                region=Region(base=0, size=BLOCK_BYTES),
                dram=DramChannel(),
                traffic=TrafficMeter(),
            )

    def test_rejects_undersized_region(self):
        with pytest.raises(ValueError):
            HistoryBuffer(
                core=0,
                capacity_entries=1000,
                region=Region(base=0, size=BLOCK_BYTES),
                dram=DramChannel(),
                traffic=TrafficMeter(),
            )


class TestReads:
    def test_read_segment_returns_entries_from_sequence(self):
        history = make_history()
        for i in range(24):
            history.append(100 + i, now=0.0)
        first, blocks, marks, _ = history.read_segment(3, now=0.0)
        assert blocks == [103 + i for i in range(9)]
        assert marks == [False] * 9
        assert first == 3

    def test_read_spilled_block_charges_lookup_traffic(self):
        history = make_history()
        for i in range(12):
            history.append(i, now=0.0)
        before = history.traffic.bytes_for(TrafficCategory.LOOKUP_STREAMS)
        _, blocks, _, arrival = history.read_segment(0, now=0.0)
        assert len(blocks) == 12
        assert arrival > 0.0
        assert (
            history.traffic.bytes_for(TrafficCategory.LOOKUP_STREAMS)
            == before + BLOCK_BYTES
        )
        assert history.stats.block_reads == 1

    def test_off_chip_read_billed_to_the_reader(self):
        history = HistoryBuffer(
            core=0,
            capacity_entries=24,
            region=Region(base=0, size=2 * BLOCK_BYTES),
            dram=DramChannel(),
            traffic=TrafficMeter(cores=2),
        )
        for i in range(12):
            history.append(i, now=0.0)
        history.read_segment(0, now=0.0, reader=1)
        lookup = TrafficCategory.LOOKUP_STREAMS
        assert history.traffic.core_bytes_for(1, lookup) == BLOCK_BYTES
        assert history.traffic.core_bytes_for(0, lookup) == 0

    def test_read_unspilled_entries_is_on_chip(self):
        history = make_history()
        history.append(7, now=0.0)
        _, blocks, _, arrival = history.read_segment(0, now=5.0)
        assert blocks == [7]
        assert arrival == 5.0
        assert history.stats.on_chip_reads == 1

    def test_stale_read_returns_nothing(self):
        history = make_history(capacity_entries=24)
        for i in range(30):
            history.append(i, now=0.0)
        _, blocks, marks, arrival = history.read_segment(0, now=3.0)
        assert blocks == [] and marks == []
        assert arrival == 3.0
        assert history.stats.stale_reads == 1

    def test_read_beyond_head_returns_nothing(self):
        history = make_history()
        history.append(1, now=0.0)
        _, blocks, _, _ = history.read_segment(5, now=0.0)
        assert blocks == []


class TestMidRunFlush:
    """A partial flush de-aligns the pack buffer; reads must still be
    exact (regression for the segment-committed append path)."""

    def test_read_spans_committed_and_pending_after_partial_flush(self):
        history = make_history()
        for i in range(5):
            history.append(100 + i, now=0.0)
        history.flush(now=0.0)  # commits an unaligned partial segment
        for i in range(8):
            history.append(200 + i, now=0.0)
        first, blocks, _, _ = history.read_segment(3, now=0.0)
        assert list(range(first, first + len(blocks))) == list(range(3, 12))
        assert blocks == [103, 104] + [200 + i for i in range(7)]

    def test_peek_and_annotate_after_partial_flush(self):
        history = make_history()
        for i in range(5):
            history.append(100 + i, now=0.0)
        history.flush(now=0.0)
        for i in range(4):
            history.append(200 + i, now=0.0)
        assert history.peek(2).block == 102  # committed side
        assert history.peek(7).block == 202  # pending side
        assert history.annotate(7, now=0.0)
        assert history.peek(7).marked

    def test_unaligned_commit_wraps_circular_boundary(self):
        history = make_history(capacity_entries=24)
        for i in range(17):
            history.append(i, now=0.0)
        history.flush(now=0.0)  # head=17: pack buffer now unaligned
        # The next spill covers sequences 17..28, wrapping slot 24 -> 0.
        for i in range(12):
            history.append(500 + i, now=0.0)
        for sequence in range(history.oldest_valid, history.head):
            entry = history.peek(sequence)
            expected = (
                sequence if sequence < 17 else 500 + (sequence - 17)
            )
            assert entry is not None and entry.block == expected
        _, blocks, _, _ = history.read_segment(24, now=0.0)
        assert blocks == [507, 508, 509, 510, 511]


class TestAnnotations:
    def test_annotate_sets_mark(self):
        history = make_history()
        for i in range(12):
            history.append(i, now=0.0)
        assert history.annotate(4, now=0.0)
        _, _, marks, _ = history.read_segment(0, now=0.0)
        assert marks[4]
        assert not marks[3]

    def test_annotate_charges_record_write(self):
        history = make_history()
        history.append(1, now=0.0)
        before = history.traffic.bytes_for(TrafficCategory.RECORD_STREAMS)
        history.annotate(0, now=0.0)
        assert (
            history.traffic.bytes_for(TrafficCategory.RECORD_STREAMS)
            == before + BLOCK_BYTES
        )

    def test_annotate_stale_sequence_fails(self):
        history = make_history(capacity_entries=24)
        for i in range(30):
            history.append(i, now=0.0)
        assert not history.annotate(0, now=0.0)

    def test_new_append_clears_old_mark_on_reused_slot(self):
        history = make_history(capacity_entries=24)
        for i in range(12):
            history.append(i, now=0.0)
        history.annotate(0, now=0.0)
        for i in range(24):  # wrap over slot 0
            history.append(100 + i, now=0.0)
        entry = history.peek(24)  # reuses slot 0
        assert entry is not None and not entry.marked
