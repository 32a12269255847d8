"""Unit tests for the per-core stream engine."""

import pytest

from repro.core.stream_engine import StreamEngine


def enqueue(
    engine: StreamEngine,
    *blocks: int,
    start: int = 0,
    marked: "set[int] | None" = None,
    ready_at: float = 0.0,
) -> int:
    """Feed ``blocks`` (sequences ``start..``) as one history segment."""
    marked = marked or set()
    return engine.enqueue_segment(
        start, list(blocks), [block in marked for block in blocks], ready_at
    )


def make_engine(capacity: int = 8, threshold: int = 2) -> StreamEngine:
    return StreamEngine(core=0, queue_capacity=capacity,
                        refill_threshold=threshold)


class TestLifecycle:
    def test_begin_activates_and_bumps_serial(self):
        engine = make_engine()
        engine.begin(source_core=1, next_fetch_sequence=10)
        assert engine.active
        assert engine.source_core == 1
        assert engine.serial == 1
        engine.begin(source_core=0, next_fetch_sequence=0)
        assert engine.serial == 2

    def test_reset_clears_but_keeps_serial(self):
        engine = make_engine()
        engine.begin(0, 0)
        enqueue(engine, 1, 2, 3)
        engine.reset()
        assert not engine.active
        assert engine.queue_depth == 0
        assert engine.serial == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamEngine(core=0, queue_capacity=0, refill_threshold=0)
        with pytest.raises(ValueError):
            StreamEngine(core=0, queue_capacity=4, refill_threshold=9)


class TestQueueing:
    def test_enqueue_respects_capacity(self):
        engine = make_engine(capacity=3)
        engine.begin(0, 0)
        accepted = enqueue(engine, 1, 2, 3, 4, 5)
        assert accepted == 3
        assert engine.queue_depth == 3

    def test_enqueue_into_a_partly_full_queue(self):
        engine = make_engine(capacity=4)
        engine.begin(0, 0)
        assert enqueue(engine, 1, 2, 3) == 3
        assert enqueue(engine, 4, 5, 6, start=3) == 1
        assert engine.queue_depth == 4
        assert engine.next_fetch_sequence == 4

    def test_enqueue_ignored_when_inactive(self):
        engine = make_engine()
        assert enqueue(engine, 1, 2) == 0

    def test_pop_in_fifo_order(self):
        engine = make_engine()
        engine.begin(0, 0)
        enqueue(engine, 5, 6, 7)
        assert [engine.pop_for_prefetch().block for _ in range(3)] == [5, 6, 7]
        assert engine.pop_for_prefetch() is None

    def test_segment_entries_carry_sequence_and_ready_at(self):
        engine = make_engine()
        engine.begin(source_core=2, next_fetch_sequence=10)
        assert enqueue(engine, 5, 6, start=10, ready_at=40.0) == 2
        head = engine.pop_for_prefetch()
        assert (head.source_core, head.sequence, head.block) == (2, 10, 5)
        assert head.ready_at == 40.0
        assert engine.pop_for_prefetch().sequence == 11

    def test_next_fetch_tracks_last_enqueued(self):
        engine = make_engine()
        engine.begin(0, next_fetch_sequence=10)
        enqueue(engine, 1, 2, start=10)
        assert engine.next_fetch_sequence == 12

    def test_needs_refill_threshold(self):
        engine = make_engine(capacity=8, threshold=2)
        engine.begin(0, 0)
        enqueue(engine, 1, 2, 3)
        assert not engine.needs_refill()
        engine.pop_for_prefetch()
        assert engine.needs_refill()


class TestPauseResume:
    def test_marked_entry_stops_enqueue(self):
        engine = make_engine()
        engine.begin(0, 0)
        accepted = enqueue(engine, 1, 2, 3, 4, marked={3})
        assert accepted == 3  # 4 is beyond the mark
        assert engine.paused_at is not None
        assert engine.paused_at.block == 3

    def test_pop_stops_after_marked_entry(self):
        engine = make_engine()
        engine.begin(0, 0)
        enqueue(engine, 1, 2, marked={2})
        assert engine.pop_for_prefetch().block == 1
        assert engine.pop_for_prefetch().block == 2
        # Entries beyond the mark must not issue while paused.
        enqueue(engine, 9, start=5)
        assert engine.pop_for_prefetch() is None
        assert engine.needs_refill() is False

    def test_confirm_resume_on_paused_block(self):
        engine = make_engine()
        engine.begin(0, 0)
        enqueue(engine, 1, 2, marked={2})
        engine.pop_for_prefetch()
        engine.pop_for_prefetch()
        assert not engine.confirm_resume(1)
        assert engine.confirm_resume(2)
        assert engine.paused_at is None

    def test_consuming_marked_block_resumes(self):
        engine = make_engine()
        engine.begin(0, 0)
        enqueue(engine, 1, 2, marked={2})
        engine.pop_for_prefetch()
        engine.pop_for_prefetch()
        engine.on_consumed(2)
        assert engine.paused_at is None


class TestConsumptionTracking:
    def test_on_consumed_tracks_latest(self):
        engine = make_engine()
        engine.begin(0, 0)
        enqueue(engine, 1, 2, 3)
        for _ in range(3):
            engine.pop_for_prefetch()
        engine.on_consumed(1)
        engine.on_consumed(2)
        assert engine.consumed_count == 2
        assert engine.last_consumed.block == 2

    def test_on_consumed_unknown_block(self):
        engine = make_engine()
        assert engine.on_consumed(42) is None

    def test_annotation_target_after_consumption(self):
        engine = make_engine()
        engine.begin(source_core=3, next_fetch_sequence=10)
        enqueue(engine, 1, 2, start=10)
        engine.pop_for_prefetch()
        engine.on_consumed(1)
        assert engine.annotation_target() == (3, 11)

    def test_annotation_target_without_progress(self):
        engine = make_engine()
        engine.begin(0, 0)
        assert engine.annotation_target() is None


class TestPauseResumeEdgeCases:
    """Satellite coverage: pause/resume boundary behaviour."""

    def test_confirm_resume_on_non_matching_block_stays_paused(self):
        engine = make_engine()
        engine.begin(0, 0)
        enqueue(engine, 1, 2, 3, marked={3})
        paused = engine.paused_at
        assert paused is not None and paused.block == 3
        # A miss on an unrelated block must not clear the pause.
        assert not engine.confirm_resume(99)
        assert engine.paused_at is paused
        assert engine.consumed_count == 0
        # The matching block does resume (and counts as consumed).
        assert engine.confirm_resume(3)
        assert engine.paused_at is None
        assert engine.consumed_count == 1

    def test_confirm_resume_without_pause(self):
        engine = make_engine()
        engine.begin(0, 0)
        enqueue(engine, 1, 2)
        assert not engine.confirm_resume(1)

    def test_marked_entry_exactly_at_queue_capacity(self):
        # The marked entry is the last slot the queue can accept: it
        # must be queued AND pause the stream.
        engine = make_engine(capacity=3)
        engine.begin(0, 0)
        accepted = enqueue(engine, 1, 2, 3, marked={3})
        assert accepted == 3
        assert engine.queue_depth == 3
        assert engine.paused_at is not None
        assert engine.paused_at.block == 3

    def test_marked_entry_just_past_queue_capacity(self):
        # The marked entry does not fit: nothing pauses, and the fetch
        # cursor stops right before it so a later refill retries it.
        engine = make_engine(capacity=3)
        engine.begin(0, 0)
        accepted = enqueue(engine, 1, 2, 3, 4, marked={4})
        assert accepted == 3
        assert engine.paused_at is None
        assert engine.next_fetch_sequence == 3

    def test_annotation_target_after_reset(self):
        engine = make_engine()
        engine.begin(source_core=2, next_fetch_sequence=5)
        enqueue(engine, 7, 8, start=5)
        popped = engine.pop_for_prefetch()
        assert popped is not None
        engine.on_consumed(popped.block)
        assert engine.annotation_target() == (2, 6)
        engine.reset()
        # All consumption history is gone: nothing to annotate.
        assert engine.annotation_target() is None
        assert engine.last_consumed is None
        assert engine.consumed_count == 0
