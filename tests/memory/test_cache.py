"""Unit and property tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.config import BLOCK_BYTES
from repro.memory.cache import (
    AccessResult,
    Cache,
    CacheConfig,
    VictimBuffer,
)


def small_cache(sets: int = 4, ways: int = 2) -> Cache:
    return Cache(
        CacheConfig(size_bytes=sets * ways * BLOCK_BYTES, ways=ways)
    )


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(size_bytes=8 * 1024 * 1024, ways=16)
        assert config.sets == 8192
        assert config.blocks == 131072

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError, match="power of two"):
            CacheConfig(size_bytes=3 * 2 * BLOCK_BYTES, ways=2)

    def test_rejects_size_smaller_than_one_set(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=BLOCK_BYTES, ways=2)

    def test_rejects_unaligned_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=2 * BLOCK_BYTES + 1, ways=2)


class TestCacheBasics:
    def test_miss_then_fill_then_hit(self):
        cache = small_cache()
        assert cache.access(5) is AccessResult.MISS
        cache.fill(5)
        assert cache.access(5) is AccessResult.HIT

    def test_miss_does_not_allocate(self):
        cache = small_cache()
        cache.access(5)
        assert not cache.lookup(5)

    def test_lru_eviction_within_set(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.access(0)  # 1 becomes LRU
        evicted = cache.fill(2)
        assert evicted is not None
        assert evicted.block == 1

    def test_dirty_eviction_reported(self):
        cache = small_cache(sets=1, ways=1)
        cache.fill(0, dirty=True)
        evicted = cache.fill(1)
        assert evicted is not None and evicted.dirty

    def test_write_access_sets_dirty(self):
        cache = small_cache(sets=1, ways=1)
        cache.fill(0)
        cache.access(0, write=True)
        evicted = cache.fill(1)
        assert evicted is not None and evicted.dirty

    def test_refill_merges_dirty_bit(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0, dirty=True)
        assert cache.fill(0, dirty=False) is None
        evicted = cache.fill(2)
        evicted2 = cache.fill(4)
        dirty_evictions = [e for e in (evicted, evicted2) if e and e.dirty]
        assert len(dirty_evictions) == 1

    def test_refill_refreshes_recency(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0)
        cache.fill(1)
        cache.fill(0)  # resident: 1 becomes LRU
        evicted = cache.fill(2)
        assert evicted is not None and evicted.block == 1

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(3)
        assert cache.invalidate(3)
        assert not cache.invalidate(3)
        assert cache.access(3) is AccessResult.MISS

    def test_occupancy_and_residents(self):
        cache = small_cache(sets=2, ways=2)
        for block in (0, 1, 2, 3):
            cache.fill(block)
        assert cache.occupancy() == 4
        assert sorted(cache.resident_blocks()) == [0, 1, 2, 3]

    def test_stats_counting(self):
        cache = small_cache()
        cache.access(1)
        cache.fill(1)
        cache.access(1)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.fills == 1
        assert cache.stats.miss_rate == 0.5

    def test_reset_stats_keeps_contents(self):
        cache = small_cache()
        cache.fill(9)
        cache.access(9)
        cache.reset_stats()
        assert cache.stats.hits == 0
        assert cache.access(9) is AccessResult.HIT


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),
                st.booleans(),
            ),
            max_size=300,
        )
    )
    def test_occupancy_never_exceeds_capacity(self, operations):
        cache = small_cache(sets=4, ways=2)
        for block, write in operations:
            if cache.access(block, write=write) is AccessResult.MISS:
                cache.fill(block, dirty=write)
            assert cache.occupancy() <= cache.config.blocks

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    def test_agrees_with_reference_lru_model(self, blocks):
        """Fully-associative reference model (1 set) must agree exactly."""
        cache = small_cache(sets=1, ways=4)
        reference: list[int] = []  # MRU at end
        for block in blocks:
            result = cache.access(block)
            if block in reference:
                assert result is AccessResult.HIT
                reference.remove(block)
                reference.append(block)
            else:
                assert result is AccessResult.MISS
                cache.fill(block)
                if len(reference) == 4:
                    reference.pop(0)
                reference.append(block)
            assert sorted(cache.resident_blocks()) == sorted(reference)


def contents(cache: Cache) -> "list[tuple[int, bool]]":
    """Resident blocks in set-then-recency order, with dirty bits."""
    return [(b, cache.peek_dirty(b)) for b in cache.resident_blocks()]


class TestFillPair:
    """The engine's allocation-light fill against access/fill."""

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=31),
                st.booleans(),
            ),
            max_size=200,
        )
    )
    def test_fill_pair_matches_fill(self, operations):
        reference = small_cache(sets=2, ways=2)
        batched = small_cache(sets=2, ways=2)
        for block, write in operations:
            if reference.access(block, write=write) is AccessResult.HIT:
                assert batched.access(block, write=write) is AccessResult.HIT
            else:
                evicted = reference.fill(block, dirty=write)
                expected = (
                    None if evicted is None
                    else (evicted.block, evicted.dirty)
                )
                assert batched.fill_pair(block, dirty=write) == expected
            assert contents(batched) == contents(reference)
        assert batched.stats.evictions == reference.stats.evictions
        assert (
            batched.stats.dirty_evictions
            == reference.stats.dirty_evictions
        )

    def test_peek_dirty_leaves_recency_alone(self):
        cache = small_cache(sets=1, ways=2)
        cache.fill(0, dirty=True)
        cache.fill(1)
        assert cache.peek_dirty(0) and not cache.peek_dirty(1)
        assert not cache.peek_dirty(7)
        evicted = cache.fill(2)
        assert evicted is not None and evicted.block == 0


class TestVictimBuffer:
    def test_insert_then_extract(self):
        buffer = VictimBuffer(capacity=2)
        buffer.insert(7, dirty=False)
        assert buffer.extract(7)
        assert not buffer.extract(7)
        assert buffer.hits == 1

    def test_fifo_displacement(self):
        buffer = VictimBuffer(capacity=2)
        assert buffer.insert(1, dirty=True) is None
        assert buffer.insert(2, dirty=False) is None
        displaced = buffer.insert(3, dirty=False)
        assert displaced is not None
        assert displaced.block == 1 and displaced.dirty

    def test_duplicate_insert_merges_dirty(self):
        buffer = VictimBuffer(capacity=2)
        buffer.insert(1, dirty=False)
        buffer.insert(1, dirty=True)
        assert len(buffer) == 1
        buffer.insert(2, dirty=False)
        displaced = buffer.insert(3, dirty=False)
        assert displaced is not None and displaced.dirty

    def test_zero_capacity_passes_dirty_through(self):
        buffer = VictimBuffer(capacity=0)
        displaced = buffer.insert(5, dirty=True)
        assert displaced is not None and displaced.block == 5
        assert buffer.insert(6, dirty=False) is None

