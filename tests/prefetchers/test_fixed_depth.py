"""Unit tests for the fixed-prefetch-depth (single-table) design."""

import pytest

from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter
from repro.prefetchers.fixed_depth import FixedDepthPrefetcher


def make_fixed(depth: int = 4, **overrides) -> FixedDepthPrefetcher:
    parameters = dict(
        cores=1,
        dram=DramChannel(),
        traffic=TrafficMeter(),
        depth=depth,
    )
    parameters.update(overrides)
    return FixedDepthPrefetcher(**parameters)


def replay(prefetcher, blocks, start=0.0):
    covered = []
    now = start
    for block in blocks:
        if prefetcher.consume(0, block, now) is not None:
            covered.append(block)
        else:
            prefetcher.on_demand_miss(0, block, now)
        now += 300.0
    return covered


class TestFragmentation:
    def test_depth_bounds_prefetches_per_lookup(self):
        prefetcher = make_fixed(depth=3)
        sequence = list(range(100, 130))
        replay(prefetcher, sequence)
        lookups_before = prefetcher.stats.lookups
        covered = replay(prefetcher, sequence, start=1e6)
        # Every fragment boundary is an uncovered miss -> a new lookup:
        # ~ len / (depth + 1) uncovered misses in the second pass.
        uncovered = len(sequence) - len(covered)
        assert uncovered >= len(sequence) // (3 + 1)
        assert prefetcher.stats.lookups - lookups_before == uncovered

    def test_deeper_fragments_cover_more(self):
        shallow = make_fixed(depth=2)
        deep = make_fixed(depth=12)
        sequence = list(range(200, 260))
        replay(shallow, sequence)
        replay(deep, sequence)
        covered_shallow = replay(shallow, sequence, start=1e6)
        covered_deep = replay(deep, sequence, start=1e6)
        assert len(covered_deep) > len(covered_shallow)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_fixed(depth=0)
        with pytest.raises(ValueError):
            make_fixed(depth=2, lookup_rounds=-1)

    def test_lookup_latency_delays_first_prefetch(self):
        fast = make_fixed(depth=8, lookup_rounds=0)
        slow = make_fixed(depth=8, lookup_rounds=2)
        sequence = list(range(400, 420))
        replay(fast, sequence)
        replay(slow, sequence)
        fast.on_demand_miss(0, 400, now=1e6)
        slow.on_demand_miss(0, 400, now=1e6)
        fast_entry = fast.buffers[0].take(401)
        slow_entry = slow.buffers[0].take(401)
        assert fast_entry is not None and slow_entry is not None
        assert slow_entry.arrival > fast_entry.arrival
