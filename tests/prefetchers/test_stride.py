"""Unit tests for the base system's stride prefetcher."""

from repro.memory.dram import DramChannel
from repro.prefetchers.params import STRIDE_REGION_BLOCKS
from repro.prefetchers.stride import StridePrefetcher


def make_stride(**overrides) -> StridePrefetcher:
    parameters = dict(cores=1, dram=DramChannel(), degree=4)
    parameters.update(overrides)
    return StridePrefetcher(**parameters)


def scan(prefetcher: StridePrefetcher, blocks, core: int = 0):
    """Feed a block sequence through probe+train; returns covered list."""
    covered = []
    now = 0.0
    for block in blocks:
        if prefetcher.probe(core, block):
            covered.append(block)
        prefetcher.train(core, block, now)
        now += 50.0
    return covered


class TestStrideDetection:
    def test_covers_unit_stride_scan(self):
        prefetcher = make_stride()
        covered = scan(prefetcher, range(0, 64))
        # After the 2-access confirmation, the run-ahead covers the rest.
        assert len(covered) >= 56

    def test_covers_non_unit_stride(self):
        prefetcher = make_stride()
        covered = scan(prefetcher, range(0, 256, 4))
        assert len(covered) >= 50

    def test_ignores_random_pattern(self):
        import numpy as np

        rng = np.random.default_rng(0)
        blocks = rng.integers(0, 1_000_000, size=200)
        prefetcher = make_stride()
        covered = scan(prefetcher, list(blocks))
        assert len(covered) <= 2

    def test_stride_continues_across_regions(self):
        prefetcher = make_stride()
        run = list(range(0, STRIDE_REGION_BLOCKS * 3))
        covered = scan(prefetcher, run)
        # Without continuation seeding, every 64-block region would pay
        # the 2-miss training cost again (~6 uncovered); with it, only
        # the initial training misses remain.
        uncovered = [b for b in run if b not in covered]
        assert len(uncovered) <= 4

    def test_tracker_capacity_lru(self):
        prefetcher = make_stride(tracker_entries=2)
        scan(prefetcher, [0, 1, 2])            # region 0 confirmed
        scan(prefetcher, [1000, 1001])         # region ~15
        scan(prefetcher, [2000, 2001])         # region ~31 (evicts region 0)
        assert len(prefetcher._trackers[0]) <= 2


class TestAccounting:
    def test_useful_counted_on_probe_hits(self):
        prefetcher = make_stride()
        scan(prefetcher, range(32))
        assert prefetcher.stats.useful > 0
        assert prefetcher.stats.issued >= prefetcher.stats.useful

    def test_finalize_counts_leftovers(self):
        prefetcher = make_stride()
        scan(prefetcher, range(16))
        prefetcher.finalize()
        assert prefetcher.stats.erroneous > 0

    def test_zero_stride_is_ignored(self):
        prefetcher = make_stride()
        covered = scan(prefetcher, [5, 5, 5, 5, 5])
        assert covered == []
        assert prefetcher.stats.issued == 0
