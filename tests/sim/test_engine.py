"""Integration tests of the trace-driven simulation engine."""

import numpy as np
import pytest

from repro.sim.engine import SimConfig, Simulator
from repro.sim.runner import PrefetcherKind, make_factory
from repro.sim.timing import TimingModel
from repro.memory.hierarchy import CmpConfig

from tests.conftest import make_trace, repeating_sequence


def run(trace, config, kind=PrefetcherKind.BASELINE):
    return Simulator(config).run(trace, make_factory(kind), kind.value)


class TestBasicPaths:
    def test_hot_loop_stays_on_chip(self, tiny_sim_config):
        trace = make_trace([[1, 2, 3] * 100])
        result = run(trace, tiny_sim_config)
        # 3 cold misses; everything else hits L1.
        assert result.coverage.uncovered == 3
        assert result.l1_hits == 297

    def test_visit_once_stream_all_misses(self, tiny_sim_config):
        blocks = list(np.random.default_rng(0).permutation(10_000)[:400])
        trace = make_trace([blocks])
        result = run(trace, tiny_sim_config)
        assert result.coverage.uncovered == 400

    def test_dependent_misses_serialize(self, tiny_cmp_config):
        blocks = list(np.random.default_rng(0).permutation(10_000)[:200])
        dep_cfg = SimConfig(cmp=tiny_cmp_config)
        dep = run(make_trace([blocks], dep=True), dep_cfg)
        indep = run(make_trace([blocks], dep=False), dep_cfg)
        assert dep.elapsed_cycles > indep.elapsed_cycles * 2
        assert indep.mlp > dep.mlp

    def test_mlp_bounded_by_core_window(self, tiny_cmp_config):
        blocks = list(np.random.default_rng(0).permutation(10_000)[:300])
        config = SimConfig(
            cmp=tiny_cmp_config,
            timing=TimingModel(core_miss_window=4),
        )
        result = run(make_trace([blocks], dep=False, work=1.0), config)
        assert result.mlp <= 4.0 + 1e-6


class TestWarmup:
    def test_warmup_excluded_from_measurement(self, tiny_sim_config):
        blocks = repeating_sequence(100, 4, seed=1)
        trace = make_trace([blocks], warmup_fraction=0.5)
        result = run(trace, tiny_sim_config)
        assert result.measured_records == 200

    def test_warmup_state_carries_into_measurement(self, tiny_sim_config):
        # One L2-resident set of blocks touched only during warmup makes
        # the measured phase hit immediately.
        blocks = [1, 2, 3] * 50 + [1, 2, 3] * 50
        trace = make_trace([blocks], warmup_fraction=0.5)
        result = run(trace, tiny_sim_config)
        assert result.coverage.uncovered == 0


class TestPrefetching:
    def test_ideal_covers_repeating_sequence(self, tiny_sim_config):
        blocks = repeating_sequence(500, 4, seed=2)
        trace = make_trace([blocks], warmup_fraction=0.3)
        baseline = run(trace, tiny_sim_config)
        ideal = run(trace, tiny_sim_config, PrefetcherKind.IDEAL_TMS)
        assert ideal.coverage.coverage > 0.9
        assert ideal.speedup_over(baseline) > 1.3

    def test_stms_covers_repeating_sequence(self, tiny_sim_config):
        blocks = repeating_sequence(500, 4, seed=3)
        trace = make_trace([blocks], warmup_fraction=0.3)
        stms = run(trace, tiny_sim_config, PrefetcherKind.STMS)
        assert stms.coverage.coverage > 0.8
        assert stms.metadata_bytes > 0

    def test_stride_absorbs_scans(self, tiny_sim_config):
        blocks = list(range(2000, 3000))
        trace = make_trace([blocks], dep=False)
        result = run(trace, tiny_sim_config)
        assert result.coverage.stride_covered > 900

    def test_no_stride_configuration(self, tiny_cmp_config):
        config = SimConfig(cmp=tiny_cmp_config, use_stride=False)
        blocks = list(range(2000, 2500))
        result = run(make_trace([blocks], dep=False), config)
        assert result.coverage.stride_covered == 0
        assert result.coverage.uncovered == 500

    def test_markov_covers_pairs(self, tiny_sim_config):
        blocks = repeating_sequence(300, 5, seed=4)
        trace = make_trace([blocks], warmup_fraction=0.4)
        markov = run(trace, tiny_sim_config, PrefetcherKind.MARKOV)
        assert markov.coverage.coverage > 0.5


class TestMultiCore:
    def test_mshr_merging_between_cores(self, tiny_sim_config):
        shared = list(range(5000, 5200))
        trace = make_trace([shared, shared], dep=False, work=1.0)
        result = run(trace, tiny_sim_config)
        # Both cores demand the same blocks nearly simultaneously: the
        # second should merge rather than double demand traffic.
        from repro.memory.config import BLOCK_BYTES

        demanded = result.useful_bytes / BLOCK_BYTES
        assert demanded < 2 * 200 * 1.05

    def test_trace_with_more_cores_than_machine(self, tiny_sim_config):
        trace = make_trace([[1], [2], [3]])
        with pytest.raises(ValueError):
            run(trace, tiny_sim_config)


class TestMissLog:
    def test_miss_log_collects_off_chip_reads(self, tiny_cmp_config):
        config = SimConfig(cmp=tiny_cmp_config, collect_miss_log=True)
        blocks = list(np.random.default_rng(5).permutation(9000)[:100])
        trace = make_trace([blocks])
        result = run(trace, config)
        assert result.miss_log is not None
        assert result.miss_log[0] == blocks

    def test_miss_log_disabled_by_default(self, tiny_sim_config):
        trace = make_trace([[1, 2, 3]])
        result = run(trace, tiny_sim_config)
        assert result.miss_log is None


class TestWritebackTraffic:
    def test_dirty_working_set_writes_back(self, tiny_cmp_config):
        from repro.memory.config import BLOCK_BYTES

        config = SimConfig(cmp=tiny_cmp_config)
        blocks = list(np.random.default_rng(6).permutation(9000)[:500])
        trace = make_trace([blocks * 2], write=True, warmup_fraction=0.0)
        result = run(trace, config)
        assert result.traffic is not None
        # L2 capacity (8 KB = 128 blocks) forces dirty evictions.
        assert result.useful_bytes > 500 * BLOCK_BYTES
