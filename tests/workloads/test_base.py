"""Unit tests for the generator building blocks."""

from unittest import mock

import numpy as np
import pytest

from repro.workloads import compiled
from repro.workloads.base import (
    ActivityMix,
    GeneratorContext,
    StreamPool,
    pairwise_sum,
)


def make_context(reference: bool = False, **overrides) -> GeneratorContext:
    """A context; ``reference``: on the Python emitters' NumPy draws
    even where the library loads."""
    parameters = dict(
        seed=1,
        hot_blocks=64,
        structure_blocks=10_000,
        scan_blocks=5_000,
        noise_blocks=8_192,
    )
    parameters.update(overrides)
    if reference:
        with mock.patch.object(compiled, "library", lambda context: None):
            return GeneratorContext(**parameters)
    return GeneratorContext(**parameters)


class TestActivityMix:
    def test_probabilities_normalize(self):
        mix = ActivityMix(stream=2.0, scan=1.0, noise=1.0, hot=0.0)
        p = mix.probabilities()
        assert sum(p) == pytest.approx(1.0)
        assert p[0] == pytest.approx(0.5)

    def test_matches_numpy_normalization(self):
        mix = ActivityMix(stream=0.62, scan=0.10, noise=0.20, hot=0.08)
        weights = np.array([0.62, 0.10, 0.20, 0.08])
        probabilities = weights / weights.sum()
        assert mix.probabilities() == probabilities.tolist()
        cdf = probabilities.cumsum()
        assert mix.cdf() == (cdf / cdf[-1]).tolist()

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
        assert min(stream) >= context.structure_base
        assert max(stream) < context.scan_base

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
        assert min(run) >= context.scan_base
        assert max(run) < context.scan_base + 16

    @pytest.mark.parametrize("reference", [False, True])
    def test_hot_blocks_in_hot_region(self, reference):
        context = make_context(reference=reference)
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
        assert min(lengths) >= 2
        assert 3 <= np.median(lengths) <= 20

    @pytest.mark.parametrize("reference", [False, True])
    def test_zipf_skews_popularity(self, reference):
        context = make_context(reference=reference)
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
        assert max(pool.length_distribution()) <= 64

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


@pytest.mark.parametrize("size", [0, 1, 4, 7, 8, 9, 100, 128, 129, 255,
                                  400, 1000, 4099])
def test_pairwise_sum_is_numpys(size):
    rng = np.random.default_rng(size)
    values = (rng.random(size) ** 3 * 10.0 ** rng.integers(-3, 4, size))
    assert pairwise_sum(values.tolist()) == float(values.sum())


@pytest.mark.parametrize("reference", [False, True])
def test_pool_set_up_is_numpys(reference):
    """The pool's lengths and popularity, computed with ``math`` and
    lists, are NumPy's (the popularity to within a rounding: NumPy's
    SIMD ``power`` may round a weight differently from ``libm``)."""
    count, median, sigma, alpha = 300, 8.0, 1.5, 0.85
    context = make_context(reference=reference, seed=5)
    pool = StreamPool(context, count=count, median_length=median,
                      sigma=sigma, zipf_alpha=alpha)
    rng = np.random.default_rng(5)
    lengths = np.exp(rng.normal(np.log(median), sigma, size=count))
    lengths = np.clip(np.round(lengths), 2, 4096).astype(int)
    assert pool.length_distribution() == lengths.tolist()
    weights = np.arange(1, count + 1, dtype=float) ** -alpha
    popularity = np.cumsum(weights / weights.sum())
    np.testing.assert_allclose(pool.popularity, popularity, rtol=1e-15)


def test_per_record_helpers_are_the_same_on_both_backends():
    """The per-record helpers draw and advance the same on a library
    context as on a reference one, and leave the generator and the
    cursors the compiled loops continue from where the reference
    leaves them."""
    contexts = [make_context(), make_context(reference=True)]
    if not contexts[0].native:
        pytest.skip("the compiled library is unavailable")
    seen = []
    for context in contexts:
        pool = StreamPool(
            context, count=40, median_length=6.0, sigma=0.8, zipf_alpha=0.9
        )
        draws = []
        for step in range(300):
            draws.append(context.hot_block())
            draws.append(context.next_noise())
            draws.extend(context.next_scan_run(1 + step % 7))
            draws.extend(pool.pick())
            draws.append(context.draws.uniform())
        draws.extend(context.draws.integers(1 << 20, 9))
        seen.append(draws)
    assert seen[0] == seen[1]
    native, reference = contexts
    gen = native.draws.gen
    assert (gen.scan_cursor, gen.noise_cursor) == (
        reference._cursors.scan_cursor, reference._cursors.noise_cursor
    )
