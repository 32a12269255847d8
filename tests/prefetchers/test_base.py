"""Unit tests for the prefetch buffer and shared prefetcher machinery."""

import pytest

from repro.memory.config import TrafficCategory
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter
from repro.prefetchers.base import (
    PrefetchBuffer,
    PrefetchedBlock,
    TemporalPrefetcher,
)


def entry(block: int, stream: int = -1, arrival: float = 10.0):
    return PrefetchedBlock(
        block=block, issued_at=0.0, arrival=arrival, stream=stream
    )


class TestPrefetchBuffer:
    def test_insert_take(self):
        buffer = PrefetchBuffer(4)
        buffer.insert(entry(1))
        taken = buffer.take(1)
        assert taken is not None and taken.block == 1
        assert buffer.take(1) is None

    def test_fifo_displacement(self):
        buffer = PrefetchBuffer(2)
        buffer.insert(entry(1))
        buffer.insert(entry(2))
        displaced = buffer.insert(entry(3))
        assert displaced is not None and displaced.block == 1

    def test_duplicate_insert_is_noop(self):
        buffer = PrefetchBuffer(2)
        buffer.insert(entry(1, arrival=5.0))
        assert buffer.insert(entry(1, arrival=99.0)) is None
        assert buffer.take(1).arrival == 5.0

    def test_stream_outstanding_counts(self):
        buffer = PrefetchBuffer(4)
        buffer.insert(entry(1, stream=7))
        buffer.insert(entry(2, stream=7))
        buffer.insert(entry(3, stream=8))
        assert buffer.outstanding(7) == 2
        assert buffer.outstanding(8) == 1
        buffer.take(1)
        assert buffer.outstanding(7) == 1

    def test_displacement_updates_stream_counts(self):
        buffer = PrefetchBuffer(2)
        buffer.insert(entry(1, stream=7))
        buffer.insert(entry(2, stream=7))
        buffer.insert(entry(3, stream=8))  # displaces block 1
        assert buffer.outstanding(7) == 1
        assert buffer.outstanding(8) == 1

    def test_drain_clears_counts(self):
        buffer = PrefetchBuffer(4)
        buffer.insert(entry(1, stream=3))
        leftovers = buffer.drain()
        assert [e.block for e in leftovers] == [1]
        assert buffer.outstanding(3) == 0
        assert len(buffer) == 0

    def test_is_arrived(self):
        late = entry(1, arrival=100.0)
        assert not late.is_arrived(50.0)
        assert late.is_arrived(100.0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            PrefetchBuffer(0)


class _NullPrefetcher(TemporalPrefetcher):
    """Minimal concrete subclass for exercising the shared machinery."""

    def on_demand_miss(self, core, block, now):
        self._issue_prefetch(core, block + 1, now)

    def _on_prefetch_hit(self, core, block, now):
        pass


class TestTemporalPrefetcherMachinery:
    def _make(self, residency=None) -> _NullPrefetcher:
        return _NullPrefetcher(
            cores=1,
            dram=DramChannel(),
            traffic=TrafficMeter(),
            residency_filter=residency,
            buffer_blocks=4,
        )

    def test_issue_then_consume_counts_useful(self):
        prefetcher = self._make()
        prefetcher.on_demand_miss(0, 10, now=0.0)
        hit = prefetcher.consume(0, 11, now=1e6)
        assert hit is not None
        assert prefetcher.stats.useful == 1
        assert (
            prefetcher.traffic.bytes_for(TrafficCategory.USEFUL_PREFETCH)
            == 64
        )

    def test_residency_filter_suppresses(self):
        prefetcher = self._make(residency=lambda block: True)
        prefetcher.on_demand_miss(0, 10, now=0.0)
        assert prefetcher.stats.filtered == 1
        assert prefetcher.stats.issued == 0

    def test_backlog_drop(self):
        prefetcher = self._make()
        limit = prefetcher._backlog_limit
        # Saturate the low-priority queue far beyond the drop threshold.
        needed = int(limit / prefetcher.dram.config.transfer_cycles) + 10
        for _ in range(needed):
            prefetcher.dram.request(0.0, blocks=1)
        prefetcher.on_demand_miss(0, 10, now=0.0)
        assert prefetcher.stats.dropped == 1

    def test_finalize_charges_leftovers_as_erroneous(self):
        prefetcher = self._make()
        prefetcher.on_demand_miss(0, 10, now=0.0)
        prefetcher.finalize(now=1e6)
        assert prefetcher.stats.erroneous == 1
        assert (
            prefetcher.traffic.bytes_for(TrafficCategory.ERRONEOUS_PREFETCH)
            == 64
        )

    def test_accuracy(self):
        prefetcher = self._make()
        prefetcher.on_demand_miss(0, 10, now=0.0)
        prefetcher.consume(0, 11, now=1e6)
        prefetcher.on_demand_miss(0, 20, now=2e6)
        prefetcher.finalize(now=3e6)
        assert prefetcher.stats.accuracy == pytest.approx(0.5)


class TestInlinedDramFastPath:
    """Pin the hand-inlined DRAM math to the real channel methods.

    ``TemporalPrefetcher._issue_prefetch`` and
    ``StridePrefetcher._run_ahead`` inline ``DramChannel.request(LOW)``
    and ``low_backlog`` for speed; if the channel model ever changes,
    these tests fail loudly instead of letting the copies drift.
    """

    def test_issue_prefetch_matches_channel_request(self):
        from repro.memory.config import DramConfig, Priority
        from repro.memory.dram import DramChannel
        from repro.memory.traffic import TrafficMeter
        from repro.prefetchers.ideal_tms import IdealTmsPrefetcher

        inlined = DramChannel(DramConfig())
        reference = DramChannel(DramConfig())
        prefetcher = IdealTmsPrefetcher(1, inlined, TrafficMeter())
        times = [0.0, 10.0, 10.0, 500.0, 501.3, 2000.7]
        for i, now in enumerate(times):
            assert prefetcher._issue_prefetch(0, 100 + i, now)
            expected = reference.request(now, Priority.LOW)
            entry = prefetcher.buffers[0].take(100 + i)
            assert entry is not None
            assert entry.arrival == expected
        assert inlined.stats == reference.stats
        assert inlined._busy_until_all == reference._busy_until_all
        assert inlined._busy_until_high == reference._busy_until_high

    def test_issue_prefetch_backlog_drop_matches_low_backlog(self):
        from repro.memory.config import DramConfig, Priority
        from repro.memory.dram import DramChannel
        from repro.memory.traffic import TrafficMeter
        from repro.prefetchers.ideal_tms import IdealTmsPrefetcher

        dram = DramChannel(DramConfig())
        prefetcher = IdealTmsPrefetcher(1, dram, TrafficMeter())
        # Saturate the channel well past the backlog limit.
        for _ in range(2000):
            dram.request(0.0, Priority.LOW)
        assert dram.low_backlog(0.0) > prefetcher._backlog_limit
        assert not prefetcher._issue_prefetch(0, 7, 0.0)
        assert prefetcher.stats.dropped == 1

    def test_stride_run_ahead_matches_channel_request(self):
        from repro.memory.config import DramConfig, Priority
        from repro.memory.dram import DramChannel
        from repro.prefetchers.stride import StridePrefetcher

        inlined = DramChannel(DramConfig())
        reference = DramChannel(DramConfig())
        stride = StridePrefetcher(1, inlined, degree=2)
        # Train a +1 stride: third access confirms and runs ahead.
        for i, block in enumerate((10, 11, 12)):
            stride.train(0, block, float(i))
        issued = stride.stats.issued
        assert issued == 2
        expected = [
            reference.request(2.0, Priority.LOW) for _ in range(issued)
        ]
        arrivals = sorted(
            entry.arrival
            for entry in stride.buffers[0].drain()
        )
        assert arrivals == sorted(expected)
        assert inlined.stats == reference.stats
