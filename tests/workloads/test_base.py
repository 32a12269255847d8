"""Unit tests for the generator building blocks."""

import numpy as np
import pytest

from repro.workloads.base import ActivityMix, GeneratorContext, StreamPool


def make_context(**overrides) -> GeneratorContext:
    parameters = dict(
        seed=1,
        hot_blocks=64,
        structure_blocks=10_000,
        scan_blocks=5_000,
        noise_blocks=8_192,
    )
    parameters.update(overrides)
    return GeneratorContext(**parameters)


class TestActivityMix:
    def test_probabilities_normalize(self):
        mix = ActivityMix(stream=2.0, scan=1.0, noise=1.0, hot=0.0)
        p = mix.probabilities()
        assert p.sum() == pytest.approx(1.0)
        assert p[0] == pytest.approx(0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ActivityMix(stream=-1.0)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            ActivityMix(stream=0.0, scan=0.0, noise=0.0, hot=0.0)


class TestGeneratorContext:
    def test_regions_are_disjoint(self):
        context = make_context()
        assert context.hot_base == 0
        assert context.structure_base == 64
        assert context.scan_base == 64 + 10_000
        assert context.noise_base == 64 + 10_000 + 5_000
        assert context.total_blocks == 64 + 10_000 + 5_000 + 8_192

    def test_stream_blocks_in_structure_region(self):
        context = make_context()
        stream = context.alloc_stream(50)
        assert len(stream) == 50
        assert (stream >= context.structure_base).all()
        assert (stream < context.scan_base).all()

    def test_stream_blocks_distinct(self):
        context = make_context()
        stream = context.alloc_stream(200)
        assert len(np.unique(stream)) == 200

    def test_short_structure_raises(self):
        # 40 distinct blocks cannot come out of a 16-block region.
        context = make_context(structure_blocks=16)
        with pytest.raises(ValueError, match="distinct"):
            context.alloc_stream(40)

    def test_noise_is_visit_once_and_scattered(self):
        context = make_context()
        draws = [context.next_noise() for _ in range(2000)]
        assert len(set(draws)) == 2000
        # Consecutive draws must not look sequential (stride-detectable).
        strides = {b - a for a, b in zip(draws, draws[1:])}
        assert len(strides) > 100

    def test_noise_in_noise_region(self):
        context = make_context()
        for _ in range(100):
            block = context.next_noise()
            assert context.noise_base <= block < context.total_blocks

    def test_scan_runs_contiguous(self):
        context = make_context()
        run = context.next_scan_run(32)
        assert list(np.diff(run)) == [1] * 31
        follow_up = context.next_scan_run(8)
        assert follow_up[0] == run[-1] + 1

    def test_scan_wraps_region(self):
        context = make_context(scan_blocks=16)
        context.next_scan_run(10)
        run = context.next_scan_run(10)
        assert (run >= context.scan_base).all()
        assert (run < context.scan_base + 16).all()

    def test_hot_blocks_in_hot_region(self):
        context = make_context()
        for _ in range(100):
            assert 0 <= context.hot_block() < 64

    def test_empty_regions_raise(self):
        context = make_context(noise_blocks=0)
        with pytest.raises(ValueError):
            context.next_noise()
        context = make_context(scan_blocks=0)
        with pytest.raises(ValueError):
            context.next_scan_run(4)

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            make_context(hot_blocks=-1)


class TestStreamPool:
    def test_pool_sizes_and_lengths(self):
        context = make_context()
        pool = StreamPool(
            context, count=50, median_length=8.0, sigma=1.0, zipf_alpha=0.9
        )
        assert len(pool) == 50
        lengths = pool.length_distribution()
        assert (lengths >= 2).all()
        assert 3 <= np.median(lengths) <= 20

    def test_zipf_skews_popularity(self):
        context = make_context()
        pool = StreamPool(
            context, count=100, median_length=4.0, sigma=0.5,
            zipf_alpha=1.0,
        )
        picks = [id(pool.pick()) for _ in range(2000)]
        counts = sorted(
            (picks.count(x) for x in set(picks)), reverse=True
        )
        # The most popular stream should be picked far more than average.
        assert counts[0] > 3 * (2000 / 100)

    def test_max_length_clipped(self):
        context = make_context()
        pool = StreamPool(
            context, count=30, median_length=50.0, sigma=2.0,
            zipf_alpha=0.8, max_length=64,
        )
        assert pool.length_distribution().max() <= 64

    def test_pool_rejects_a_structure_region_too_small(self):
        context = make_context(structure_blocks=8)
        with pytest.raises(ValueError, match="distinct"):
            StreamPool(context, count=4, median_length=16, sigma=0.1,
                       zipf_alpha=1)

    def test_validation(self):
        context = make_context()
        with pytest.raises(ValueError):
            StreamPool(context, count=0, median_length=8, sigma=1,
                       zipf_alpha=1)
        with pytest.raises(ValueError):
            StreamPool(context, count=5, median_length=1, sigma=1,
                       zipf_alpha=1)
