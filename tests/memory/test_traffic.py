"""Unit tests for traffic accounting."""

import pytest

from repro.memory.config import BLOCK_BYTES, TrafficCategory
from repro.memory.traffic import TrafficMeter


class TestCategories:
    def test_overhead_classification(self):
        assert not TrafficCategory.DEMAND_READ.is_overhead
        assert not TrafficCategory.WRITEBACK.is_overhead
        assert not TrafficCategory.STRIDE_PREFETCH.is_overhead
        assert TrafficCategory.UPDATE_INDEX.is_overhead
        assert TrafficCategory.LOOKUP_STREAMS.is_overhead
        assert TrafficCategory.ERRONEOUS_PREFETCH.is_overhead

    def test_metadata_classification(self):
        assert TrafficCategory.RECORD_STREAMS.is_metadata
        assert TrafficCategory.UPDATE_INDEX.is_metadata
        assert TrafficCategory.LOOKUP_STREAMS.is_metadata
        assert not TrafficCategory.DEMAND_READ.is_metadata
        assert not TrafficCategory.ERRONEOUS_PREFETCH.is_metadata


class TestTrafficMeter:
    def test_add_blocks(self):
        meter = TrafficMeter()
        meter.add_blocks(TrafficCategory.DEMAND_READ, 3)
        assert meter.bytes_for(TrafficCategory.DEMAND_READ) == 3 * BLOCK_BYTES

    def test_add_bytes(self):
        meter = TrafficMeter()
        meter.add_bytes(TrafficCategory.RECORD_STREAMS, 10)
        assert meter.bytes_for(TrafficCategory.RECORD_STREAMS) == 10

    def test_rejects_negative(self):
        meter = TrafficMeter()
        with pytest.raises(ValueError):
            meter.add_blocks(TrafficCategory.DEMAND_READ, -1)
        with pytest.raises(ValueError):
            meter.add_bytes(TrafficCategory.DEMAND_READ, -1)

    def test_useful_bytes_definition(self):
        meter = TrafficMeter()
        meter.add_blocks(TrafficCategory.DEMAND_READ, 2)
        meter.add_blocks(TrafficCategory.WRITEBACK, 1)
        meter.add_blocks(TrafficCategory.USEFUL_PREFETCH, 1)
        meter.add_blocks(TrafficCategory.ERRONEOUS_PREFETCH, 5)
        assert meter.useful_bytes == 4 * BLOCK_BYTES

    def test_overhead_excludes_useful_prefetch(self):
        meter = TrafficMeter()
        meter.add_blocks(TrafficCategory.USEFUL_PREFETCH, 4)
        meter.add_blocks(TrafficCategory.LOOKUP_STREAMS, 2)
        assert meter.overhead_bytes == 2 * BLOCK_BYTES

    def test_breakdown_normalization(self):
        meter = TrafficMeter()
        meter.add_blocks(TrafficCategory.DEMAND_READ, 4)
        meter.add_blocks(TrafficCategory.UPDATE_INDEX, 2)
        meter.add_blocks(TrafficCategory.LOOKUP_STREAMS, 1)
        breakdown = meter.breakdown()
        assert breakdown.update_index == pytest.approx(0.5)
        assert breakdown.lookup_streams == pytest.approx(0.25)
        assert breakdown.total == pytest.approx(0.75)

    def test_breakdown_with_no_useful_traffic(self):
        meter = TrafficMeter()
        meter.add_blocks(TrafficCategory.UPDATE_INDEX, 5)
        assert meter.breakdown().total == 0.0
        assert meter.overhead_per_useful_byte() == 0.0

    def test_metadata_bytes(self):
        meter = TrafficMeter()
        meter.add_blocks(TrafficCategory.RECORD_STREAMS, 1)
        meter.add_blocks(TrafficCategory.UPDATE_INDEX, 1)
        meter.add_blocks(TrafficCategory.LOOKUP_STREAMS, 1)
        meter.add_blocks(TrafficCategory.DEMAND_READ, 1)
        assert meter.metadata_bytes == 3 * BLOCK_BYTES

    def test_merge(self):
        a = TrafficMeter()
        b = TrafficMeter()
        a.add_blocks(TrafficCategory.DEMAND_READ, 1)
        b.add_blocks(TrafficCategory.DEMAND_READ, 2)
        a.merge(b)
        assert a.bytes_for(TrafficCategory.DEMAND_READ) == 3 * BLOCK_BYTES

    def test_reset(self):
        meter = TrafficMeter()
        meter.add_blocks(TrafficCategory.DEMAND_READ, 7)
        meter.reset()
        assert meter.total_bytes == 0

    def test_stride_prefetch_not_in_overhead_ratio(self):
        meter = TrafficMeter()
        meter.add_blocks(TrafficCategory.DEMAND_READ, 2)
        meter.add_blocks(TrafficCategory.STRIDE_PREFETCH, 10)
        assert meter.overhead_per_useful_byte() == 0.0
