"""Integration-style tests of the STMS prefetcher in isolation.

These drive :class:`StmsPrefetcher` directly (no cache hierarchy): a
"demand miss" is an ``on_demand_miss`` call plus explicit ``consume``
probes, which makes the two-round-trip lookup, sampling, and stream
sharing directly observable.
"""

import pytest

from repro.core.config import StmsConfig
from repro.core.stms import StmsPrefetcher
from repro.memory.config import TrafficCategory
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter


def make_stms(**overrides) -> StmsPrefetcher:
    parameters = dict(
        cores=2,
        history_entries=1536,
        index_buckets=256,
        sampling_probability=1.0,
        seed=1,
    )
    parameters.update(overrides)
    config = StmsConfig(**parameters)
    return StmsPrefetcher(config, DramChannel(), TrafficMeter())


def replay(stms: StmsPrefetcher, core: int, blocks, start: float = 0.0):
    """Replay a miss sequence; returns blocks covered by the buffer."""
    covered = []
    now = start
    for block in blocks:
        entry = stms.consume(core, block, now)
        if entry is not None:
            covered.append(block)
        else:
            stms.on_demand_miss(core, block, now)
        now += 400.0
    return covered


class TestRecordingAndLookup:
    def test_first_pass_learns_second_pass_streams(self):
        stms = make_stms()
        sequence = list(range(100, 140))
        assert replay(stms, 0, sequence) == []
        covered = replay(stms, 0, sequence, start=1e6)
        # Everything after the trigger miss should be prefetched.
        assert len(covered) >= len(sequence) - 3

    def test_lookup_and_stream_cost_two_round_trips(self):
        stms = make_stms(bucket_buffer_entries=1)
        sequence = list(range(200, 224))
        replay(stms, 0, sequence)
        meter = stms.traffic
        # Evict the trigger's bucket from the (1-entry) bucket buffer so
        # the lookup must actually go to memory.
        stms.on_demand_miss(0, 999_999, now=5e5)
        lookup_bytes = meter.bytes_for(TrafficCategory.LOOKUP_STREAMS)
        stms.on_demand_miss(0, 200, now=1e6)
        # One bucket read + one history block read.
        assert (
            meter.bytes_for(TrafficCategory.LOOKUP_STREAMS) - lookup_bytes
            == 2 * 64
        )

    def test_history_records_misses(self):
        stms = make_stms()
        replay(stms, 0, [1, 2, 3])
        assert stms.histories[0].head == 3

    def test_prefetched_hits_are_recorded_too(self):
        stms = make_stms()
        sequence = list(range(300, 330))
        replay(stms, 0, sequence)
        head_before = stms.histories[0].head
        replay(stms, 0, sequence, start=1e6)
        assert stms.histories[0].head == head_before + len(sequence)


class TestCrossCoreSharing:
    def test_stream_recorded_by_one_core_serves_another(self):
        stms = make_stms()
        sequence = list(range(400, 430))
        replay(stms, 0, sequence)
        covered = replay(stms, 1, sequence, start=1e6)
        assert len(covered) >= len(sequence) - 3


class TestProbabilisticUpdate:
    def test_zero_sampling_never_finds_streams(self):
        stms = make_stms(sampling_probability=0.0)
        sequence = list(range(500, 520))
        replay(stms, 0, sequence)
        covered = replay(stms, 0, sequence, start=1e6)
        assert covered == []
        assert stms.counters.applied_updates == 0

    def test_sampling_reduces_update_traffic(self):
        full = make_stms(sampling_probability=1.0)
        sampled = make_stms(sampling_probability=0.125)
        sequence = list(range(600, 840))
        replay(full, 0, sequence)
        replay(sampled, 0, sequence)
        full.bucket_buffer.drain(0.0)
        sampled.bucket_buffer.drain(0.0)
        full_bytes = full.traffic.bytes_for(TrafficCategory.UPDATE_INDEX)
        sampled_bytes = sampled.traffic.bytes_for(
            TrafficCategory.UPDATE_INDEX
        )
        assert sampled_bytes < full_bytes / 3

    def test_candidates_counted_for_every_record(self):
        stms = make_stms(sampling_probability=0.125)
        replay(stms, 0, list(range(700, 750)))
        assert stms.counters.candidate_updates == 50


class TestStalePointers:
    def test_overwritten_history_is_detected(self):
        stms = make_stms(history_entries=48, sampling_probability=1.0)
        old = list(range(800, 812))
        replay(stms, 0, old)
        # Overwrite the whole history buffer with fresh misses.
        replay(stms, 0, list(range(900, 960)), start=1e5)
        stms.on_demand_miss(0, 800, now=2e6)
        assert stms.counters.stale_pointers >= 1


class TestStreamEndAnnotation:
    def test_divergence_annotates_source_history(self):
        stms = make_stms()
        stream_a = list(range(1000, 1012))
        separator = list(range(3000, 3024))  # keeps B outside A's lookahead
        stream_b = list(range(2000, 2012))
        replay(stms, 0, stream_a + separator + stream_b)
        # Follow A, then jump to B: the A-stream is abandoned mid-flight
        # once B's trigger hits the index.
        replay(stms, 0, stream_a[:6] + stream_b, start=1e6)
        assert stms.counters.annotations >= 1

    def test_resume_requires_marked_address(self):
        stms = make_stms()
        counters_before = stms.counters.resumes
        stms.on_demand_miss(0, 4242, now=0.0)
        assert stms.counters.resumes == counters_before


class TestFinalize:
    def test_finalize_flushes_and_drains(self):
        stms = make_stms()
        replay(stms, 0, list(range(1100, 1120)))
        stms.finalize(now=1e7)
        record = stms.traffic.bytes_for(TrafficCategory.RECORD_STREAMS)
        assert record >= 64  # at least one packed write happened
        assert len(stms.bucket_buffer) == 0

    def test_metadata_regions_reserved(self):
        stms = make_stms()
        regions = stms.address_space.regions
        # One index region + one history region per core.
        assert len(regions) == 1 + stms.config.cores


class TestIssueTiming:
    """Hand-worked issue times on an idle channel (paper §4: a lookup is
    two dependent round trips, bucket then history block)."""

    # 45 ns at 4 GHz, and one 64-byte transfer at 28.4 GB/s.
    LATENCY = 180.0
    TRANSFER = 64 / 28.4 * 4

    def recorded(self, *streams: "list[int]") -> StmsPrefetcher:
        """Record ``streams`` back to back (one core, every update
        applied), then push their buckets out of the one-entry bucket
        buffer."""
        stms = make_stms(cores=1, bucket_buffer_entries=1)
        replay(stms, 0, [block for stream in streams for block in stream])
        stms.on_demand_miss(0, 999_999, now=5e5)
        return stms

    def round_trip(self, now: float) -> float:
        """Arrival of one low-priority read issued at ``now`` when the
        channel is idle (the order ``DramChannel`` adds in)."""
        return now + self.LATENCY + self.TRANSFER

    def test_channel_constants(self):
        config = DramChannel().config
        assert config.access_latency_cycles == self.LATENCY
        assert config.transfer_cycles == self.TRANSFER
        assert round(self.round_trip(0.0), 3) == 189.014

    def test_first_prefetches_wait_for_the_history_block(self):
        stream = list(range(200, 224))  # sequences 0..23
        stms = self.recorded(stream)
        index = stms.index
        assert index.bucket_of(200) != index.bucket_of(999_999)
        t0 = 1e6
        assert stms.dram.low_backlog(t0) == 0.0

        stms.on_demand_miss(0, 200, now=t0)

        # The bucket read starts at t0; the dirty bucket it displaces is
        # written back behind it and has left the channel long before
        # the bucket arrives.  The history block holding sequences
        # 1..11 can only be requested then, on an idle channel again.
        bucket_arrival = self.round_trip(t0)
        history_arrival = self.round_trip(bucket_arrival)
        assert history_arrival == pytest.approx(
            t0 + 2 * (self.LATENCY + self.TRANSFER)
        )
        assert stms.histories[0].stats.block_reads == 1
        issued = stms.buffers[0].drain()
        assert [entry.block for entry in issued] == stream[1:12]
        assert all(entry.issued_at == history_arrival for entry in issued)
        # Fills are serialized on the channel from there on.
        assert [entry.arrival for entry in issued] == pytest.approx([
            history_arrival + k * self.TRANSFER
            + self.LATENCY + self.TRANSFER
            for k in range(len(issued))
        ])

    def test_buffered_bucket_leaves_one_round_trip(self):
        stream = list(range(200, 224))
        stms = make_stms(cores=1)
        replay(stms, 0, stream)
        t0 = 1e6
        # Recording left the trigger's bucket in the 128-entry buffer.
        assert stms.index.bucket_of(200) in stms.bucket_buffer
        stms.on_demand_miss(0, 200, now=t0)
        issued = stms.buffers[0].drain()
        assert [entry.block for entry in issued] == stream[1:12]
        assert all(
            entry.issued_at == self.round_trip(t0) for entry in issued
        )

    def test_stream_still_on_chip_issues_at_the_miss(self):
        stream = list(range(300, 306))  # fewer than one packed block
        stms = make_stms(cores=1)
        replay(stms, 0, stream)
        lookup_bytes = stms.traffic.bytes_for(TrafficCategory.LOOKUP_STREAMS)
        t0 = 1e6
        stms.on_demand_miss(0, 300, now=t0)
        # Bucket buffered and segment in the pack buffer: no round trip.
        assert (
            stms.traffic.bytes_for(TrafficCategory.LOOKUP_STREAMS)
            == lookup_bytes
        )
        assert stms.histories[0].stats.on_chip_reads == 1
        issued = stms.buffers[0].drain()
        # Sequences 1..6: the rest of the stream, then the trigger
        # this miss just recorded.
        assert [entry.block for entry in issued] == stream[1:] + [300]
        assert all(entry.issued_at == t0 for entry in issued)

    def test_consumption_refills_and_tops_up_to_lookahead(self):
        stream = list(range(200, 236))  # sequences 0..35
        stms = make_stms(cores=1)
        replay(stms, 0, stream)
        buffer = stms.buffers[0]
        stms.on_demand_miss(0, 200, now=1e6)
        assert buffer.outstanding(1) == 11  # the whole first segment
        t1 = 2e6
        assert stms.consume(0, 201, now=t1) is not None
        # The queue ran dry, so the hit fetches sequences 12..23 and
        # issues just enough of them to be back at lookahead in flight.
        assert stms.histories[0].stats.block_reads == 2
        assert buffer.outstanding(1) == stms.config.lookahead
        newest = buffer.drain()[-2:]
        assert [entry.block for entry in newest] == stream[12:14]
        assert all(
            entry.issued_at == self.round_trip(t1) for entry in newest
        )

    def test_abandoned_leftovers_do_not_count_against_lookahead(self):
        stream_a = list(range(200, 224))  # sequences 0..23
        stream_b = list(range(1200, 1236))  # sequences 24..59
        stms = self.recorded(stream_a, stream_b)
        lookahead = stms.config.lookahead
        buffer = stms.buffers[0]

        stms.on_demand_miss(0, stream_a[0], now=1e6)
        assert buffer.outstanding(1) == 11
        # Nothing of stream A is consumed; the core jumps to stream B.
        t1 = 2e6
        assert stms.dram.low_backlog(t1) == 0.0
        stms.on_demand_miss(0, stream_b[0], now=t1)

        # B's first history segment (sequences 25..35) issues whole,
        # although A's 11 unconsumed prefetches still sit in the buffer:
        # counting them would leave B a budget of lookahead - 11 = 1.
        assert stms.engines[0].serial == 2
        assert buffer.outstanding(1) == 11
        assert buffer.outstanding(2) == 11
        assert len(buffer) == 22 > lookahead
        history_arrival = self.round_trip(self.round_trip(t1))
        stream_b_entries = [
            entry for entry in buffer.drain() if entry.stream == 2
        ]
        assert [entry.block for entry in stream_b_entries] == stream_b[1:12]
        assert all(
            entry.issued_at == history_arrival for entry in stream_b_entries
        )
