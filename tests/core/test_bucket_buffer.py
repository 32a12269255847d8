"""Unit tests for the on-chip bucket buffer."""

import pytest

from repro.core.bucket_buffer import BucketBuffer
from repro.memory.config import BLOCK_BYTES, TrafficCategory
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter


def make_buffer(capacity: int = 4) -> BucketBuffer:
    return BucketBuffer(
        capacity=capacity, dram=DramChannel(), traffic=TrafficMeter()
    )


class TestAccess:
    def test_miss_charges_chosen_category(self):
        buffer = make_buffer()
        arrival = buffer.access(
            3, now=0.0, charge=TrafficCategory.UPDATE_INDEX
        )
        assert arrival > 0.0
        assert (
            buffer.traffic.bytes_for(TrafficCategory.UPDATE_INDEX)
            == BLOCK_BYTES
        )
        assert buffer.stats.misses == 1

    def test_hit_is_free_and_instant(self):
        buffer = make_buffer()
        buffer.access(3, now=0.0)
        before = buffer.traffic.total_bytes
        arrival = buffer.access(3, now=10.0)
        assert arrival == 10.0
        assert buffer.traffic.total_bytes == before
        assert buffer.stats.hits == 1

    def test_lookup_then_update_shares_residency(self):
        """The paper's lookup/update interplay: an update right after a
        lookup to the same bucket costs no extra read."""
        buffer = make_buffer()
        buffer.access(5, now=0.0, charge=TrafficCategory.LOOKUP_STREAMS)
        buffer.access(
            5, now=1.0, dirty=True, charge=TrafficCategory.UPDATE_INDEX
        )
        assert buffer.traffic.bytes_for(TrafficCategory.UPDATE_INDEX) == 0
        assert (
            buffer.traffic.bytes_for(TrafficCategory.LOOKUP_STREAMS)
            == BLOCK_BYTES
        )


    def test_miss_is_one_round_trip_on_an_idle_channel(self):
        buffer = make_buffer()
        config = buffer.dram.config
        arrival = buffer.access(3, now=100.0)
        assert arrival == (
            100.0 + config.access_latency_cycles + config.transfer_cycles
        )

    def test_update_misses_count_update_charges_only(self):
        buffer = make_buffer()
        buffer.access(1, now=0.0, charge=TrafficCategory.LOOKUP_STREAMS)
        buffer.access(2, now=0.0, charge=TrafficCategory.UPDATE_INDEX)
        buffer.access(2, now=0.0, charge=TrafficCategory.UPDATE_INDEX)
        assert buffer.stats.misses == 2
        assert buffer.stats.update_misses == 1
        assert buffer.stats.hits == 1


class TestWriteBack:
    def test_clean_eviction_is_free(self):
        buffer = make_buffer(capacity=2)
        buffer.access(1, now=0.0)
        buffer.access(2, now=0.0)
        buffer.access(3, now=0.0)  # evicts bucket 1 (clean)
        assert buffer.stats.writebacks == 0

    def test_dirty_eviction_writes_back(self):
        buffer = make_buffer(capacity=2)
        buffer.access(1, now=0.0, dirty=True)
        buffer.access(2, now=0.0)
        buffer.access(3, now=0.0)
        assert buffer.stats.writebacks == 1
        assert (
            buffer.traffic.bytes_for(TrafficCategory.UPDATE_INDEX)
            >= BLOCK_BYTES
        )

    def test_write_back_billed_to_the_dirtying_core(self):
        buffer = BucketBuffer(
            capacity=1, dram=DramChannel(), traffic=TrafficMeter(cores=2)
        )
        buffer.access(1, now=0.0, dirty=True, core=1)
        buffer.access(2, now=0.0, core=0)  # core 0 evicts core 1's bucket
        traffic = buffer.traffic
        update = TrafficCategory.UPDATE_INDEX
        lookup = TrafficCategory.LOOKUP_STREAMS
        assert traffic.core_bytes_for(1, update) == BLOCK_BYTES
        assert traffic.core_bytes_for(0, update) == 0
        assert traffic.core_bytes_for(0, lookup) == BLOCK_BYTES

    def test_write_back_queues_behind_the_fetch(self):
        buffer = make_buffer(capacity=1)
        dram = buffer.dram
        transfer = dram.config.transfer_cycles
        buffer.access(1, now=0.0, dirty=True)
        requests = dram.stats.low_priority_requests
        arrival = buffer.access(2, now=1000.0)
        # The fetch goes first and is not delayed by the write-back.
        assert arrival == (
            1000.0 + dram.config.access_latency_cycles + transfer
        )
        assert dram.stats.low_priority_requests == requests + 2
        assert dram.low_backlog(1000.0) == pytest.approx(2 * transfer)

    def test_drain_writes_all_dirty(self):
        buffer = make_buffer()
        buffer.access(1, now=0.0, dirty=True)
        buffer.access(2, now=0.0)
        buffer.access(3, now=0.0, dirty=True)
        drained = buffer.drain(now=0.0)
        assert drained == 2
        assert len(buffer) == 0

    def test_lru_eviction_order(self):
        buffer = make_buffer(capacity=2)
        buffer.access(1, now=0.0, dirty=True)
        buffer.access(2, now=0.0)
        buffer.access(1, now=0.0)  # refresh 1; LRU is now 2
        buffer.access(3, now=0.0)  # evicts 2 (clean)
        assert buffer.stats.writebacks == 0
        assert 1 in buffer and 3 in buffer and 2 not in buffer

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            make_buffer(capacity=0)
