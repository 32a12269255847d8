"""Unit tests for the DRAM channel model."""

import pytest

from repro.memory.config import BLOCK_BYTES, DramConfig, Priority
from repro.memory.dram import DramChannel, utilization


class TestDramConfig:
    def test_latency_conversion(self):
        config = DramConfig(clock_ghz=4.0, access_latency_ns=45.0)
        assert config.access_latency_cycles == pytest.approx(180.0)

    def test_transfer_cycles(self):
        config = DramConfig(clock_ghz=4.0, peak_bandwidth_gbps=28.4)
        expected = BLOCK_BYTES / 28.4 * 4.0
        assert config.transfer_cycles == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            DramConfig(clock_ghz=0)
        with pytest.raises(ValueError):
            DramConfig(peak_bandwidth_gbps=-1)
        with pytest.raises(ValueError):
            DramConfig(access_latency_ns=-1)


class TestDramChannel:
    def test_unloaded_latency(self):
        channel = DramChannel()
        completion = channel.request(0.0)
        expected = (
            channel.config.access_latency_cycles
            + channel.config.transfer_cycles
        )
        assert completion == pytest.approx(expected)

    def test_high_priority_queues_behind_high(self):
        channel = DramChannel()
        first = channel.request(0.0, Priority.HIGH)
        second = channel.request(0.0, Priority.HIGH)
        assert second > first

    def test_high_ignores_low_backlog(self):
        channel = DramChannel()
        for _ in range(50):
            channel.request(0.0, Priority.LOW)
        completion = channel.request(0.0, Priority.HIGH)
        unloaded = (
            channel.config.access_latency_cycles
            + channel.config.transfer_cycles
        )
        assert completion == pytest.approx(unloaded)

    def test_low_queues_behind_everything(self):
        channel = DramChannel()
        channel.request(0.0, Priority.HIGH)
        completion = channel.request(0.0, Priority.LOW)
        unloaded = (
            channel.config.access_latency_cycles
            + channel.config.transfer_cycles
        )
        assert completion > unloaded

    def test_multi_block_request(self):
        channel = DramChannel()
        one = channel.request(0.0, blocks=1)
        channel.reset()
        four = channel.request(0.0, blocks=4)
        assert four == pytest.approx(
            one + 3 * channel.config.transfer_cycles
        )

    def test_latency_helper(self):
        channel = DramChannel()
        latency = channel.latency(1000.0)
        assert latency == pytest.approx(
            channel.config.access_latency_cycles
            + channel.config.transfer_cycles
        )

    def test_peek_does_not_commit(self):
        channel = DramChannel()
        peeked = channel.peek_completion(0.0, Priority.HIGH)
        actual = channel.request(0.0, Priority.HIGH)
        assert peeked == pytest.approx(actual)
        # Peeking again now reflects the queued transfer.
        assert channel.peek_completion(0.0, Priority.HIGH) > peeked

    def test_low_backlog_reporting(self):
        channel = DramChannel()
        assert channel.low_backlog(0.0) == 0.0
        channel.request(0.0, Priority.LOW)
        assert channel.low_backlog(0.0) == pytest.approx(
            channel.config.transfer_cycles
        )
        # Far in the future the backlog has drained.
        assert channel.low_backlog(1e9) == 0.0

    def test_stats_and_utilization(self):
        channel = DramChannel()
        channel.request(0.0, Priority.HIGH)
        channel.request(0.0, Priority.LOW)
        assert channel.stats.requests == 2
        assert channel.stats.high_priority_requests == 1
        assert channel.stats.low_priority_requests == 1
        busy = 2 * channel.config.transfer_cycles
        assert utilization(channel.stats.busy_cycles, busy * 2) == (
            pytest.approx(0.5)
        )

    def test_utilization_caps_at_one(self):
        channel = DramChannel()
        for _ in range(100):
            channel.request(0.0)
        assert utilization(channel.stats.busy_cycles, 1.0) == 1.0
        assert utilization(channel.stats.busy_cycles, 0.0) == 0.0

    def test_reset(self):
        channel = DramChannel()
        channel.request(0.0)
        channel.reset()
        assert channel.stats.requests == 0
        assert channel.low_backlog(0.0) == 0.0

    def test_rejects_non_positive_blocks(self):
        channel = DramChannel()
        with pytest.raises(ValueError):
            channel.request(0.0, blocks=0)
