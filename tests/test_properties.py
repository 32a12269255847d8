"""Cross-module property tests: invariants that must hold under any
access pattern (hypothesis-driven failure injection).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import StmsConfig
from repro.core.stms import StmsPrefetcher
from repro.memory.config import Priority, TrafficCategory
from repro.memory.dram import DramChannel
from repro.memory.traffic import TrafficMeter
from repro.prefetchers.ideal_tms import IdealTmsPrefetcher
from repro.sim.engine import SimConfig, Simulator
from repro.sim.runner import PrefetcherKind, make_factory

from tests.conftest import make_trace


def drive_prefetcher(prefetcher, accesses):
    """Feed (core, block) pairs through consume/on_demand_miss."""
    now = 0.0
    covered = 0
    for core, block in accesses:
        if prefetcher.consume(core, block, now) is not None:
            covered += 1
        else:
            prefetcher.on_demand_miss(core, block, now)
        now += 200.0
    return covered


access_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=300),
    ),
    max_size=400,
)


class TestStmsInvariants:
    @settings(max_examples=25, deadline=None)
    @given(access_lists)
    def test_accounting_balances(self, accesses):
        """useful + erroneous == issued after finalize, always."""
        stms = StmsPrefetcher(
            StmsConfig(cores=2, history_entries=768, index_buckets=64,
                       sampling_probability=0.5),
            DramChannel(),
            TrafficMeter(),
        )
        drive_prefetcher(stms, accesses)
        stms.finalize(now=1e9)
        stats = stms.stats
        assert stats.useful + stats.erroneous == stats.issued
        useful_bytes = stms.traffic.bytes_for(
            TrafficCategory.USEFUL_PREFETCH
        )
        erroneous_bytes = stms.traffic.bytes_for(
            TrafficCategory.ERRONEOUS_PREFETCH
        )
        assert useful_bytes + erroneous_bytes == stats.issued * 64

    @settings(max_examples=25, deadline=None)
    @given(access_lists)
    def test_history_heads_match_observed_events(self, accesses):
        """Every miss and prefetched hit is recorded exactly once."""
        stms = StmsPrefetcher(
            StmsConfig(cores=2, history_entries=768, index_buckets=64,
                       sampling_probability=1.0),
            DramChannel(),
            TrafficMeter(),
        )
        drive_prefetcher(stms, accesses)
        per_core = [0, 0]
        for core, _ in accesses:
            per_core[core] += 1
        for core in range(2):
            assert stms.histories[core].head == per_core[core]

    @settings(max_examples=20, deadline=None)
    @given(access_lists)
    def test_buffer_capacity_respected(self, accesses):
        stms = StmsPrefetcher(
            StmsConfig(cores=2, history_entries=768, index_buckets=64,
                       prefetch_buffer_blocks=8),
            DramChannel(),
            TrafficMeter(),
        )
        now = 0.0
        for core, block in accesses:
            if stms.consume(core, block, now) is None:
                stms.on_demand_miss(core, block, now)
            assert len(stms.buffers[core]) <= 8
            now += 200.0


class TestIdealInvariants:
    @settings(max_examples=25, deadline=None)
    @given(access_lists)
    def test_index_points_into_history(self, accesses):
        ideal = IdealTmsPrefetcher(2, DramChannel(), TrafficMeter())
        drive_prefetcher(ideal, accesses)
        for block, (core, position) in ideal.index._map.items():
            assert 0 <= position < len(ideal.histories[core])
            assert ideal.histories[core][position] == block


class TestEngineInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2000), min_size=1,
            max_size=300,
        ),
        st.booleans(),
    )
    def test_coverage_counts_partition_off_chip_reads(
        self, blocks, use_stms
    ):
        """fully + partially + uncovered + stride == off-chip reads."""
        trace = make_trace([blocks], warmup_fraction=0.0)
        from repro.memory.hierarchy import CmpConfig

        config = SimConfig(
            cmp=CmpConfig(
                cores=1,
                l1_size_bytes=512,
                l1_ways=2,
                l2_size_bytes=4096,
                l2_ways=4,
                l2_banks=2,
                l2_mshrs=8,
            )
        )
        kind = PrefetcherKind.STMS if use_stms else PrefetcherKind.BASELINE
        factory = make_factory(
            kind,
            stms_config=StmsConfig(cores=1, history_entries=768,
                                   index_buckets=64),
        )
        simulator = Simulator(config)
        result = simulator.run(trace, factory, kind.value)
        counts = result.coverage
        total = (
            counts.fully_covered
            + counts.partially_covered
            + counts.uncovered
            + counts.stride_covered
        )
        # Every trace record is measured (warmup 0) and every off-chip
        # read lands in exactly one bucket.
        assert total <= len(blocks)
        assert counts.coverage <= 1.0

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=5,
                    max_size=200))
    def test_clock_monotone_and_positive(self, blocks):
        trace = make_trace([blocks], warmup_fraction=0.0)
        from repro.memory.hierarchy import CmpConfig

        config = SimConfig(
            cmp=CmpConfig(
                cores=1,
                l1_size_bytes=512,
                l1_ways=2,
                l2_size_bytes=4096,
                l2_ways=4,
                l2_banks=2,
                l2_mshrs=8,
            )
        )
        result = Simulator(config).run(trace, None, "baseline")
        assert result.elapsed_cycles > 0
        assert result.measured_records == len(blocks)


class TestDramInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6, allow_nan=False),
                st.booleans(),
            ),
            max_size=100,
        )
    )
    def test_completion_always_after_request(self, requests):
        channel = DramChannel()
        for now, high in requests:
            priority = Priority.HIGH if high else Priority.LOW
            completion = channel.request(now, priority)
            assert completion >= now + channel.config.access_latency_cycles
