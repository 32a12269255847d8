"""Unit and property tests for the bucketized hash index table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.history_buffer import HistoryPointer
from repro.core.index_table import IndexTable


def ptr(core: int, sequence: int) -> HistoryPointer:
    return HistoryPointer(core=core, sequence=sequence)


class TestBasics:
    def test_lookup_miss(self):
        table = IndexTable(buckets=16)
        assert table.lookup(42) is None

    def test_update_then_lookup(self):
        table = IndexTable(buckets=16)
        table.update(42, ptr(0, 7))
        assert table.lookup(42) == ptr(0, 7)
        assert table.stats.hits == 1

    def test_pointer_update_replaces(self):
        table = IndexTable(buckets=16)
        table.update(42, ptr(0, 7))
        table.update(42, ptr(1, 9))
        assert table.lookup(42) == ptr(1, 9)
        assert table.stats.pointer_updates == 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            IndexTable(buckets=12)

    def test_rejects_tags_wider_than_an_int64_block(self):
        with pytest.raises(ValueError, match="None keeps full-address"):
            IndexTable(buckets=4, tag_bits=64)
        widest = IndexTable(buckets=4, tag_bits=63)
        assert widest.tag_of((1 << 62) + 5) == (1 << 62) + 5

    def test_bucket_of_within_range(self):
        table = IndexTable(buckets=64)
        for block in range(1000):
            assert 0 <= table.bucket_of(block) < 64

    def test_hash_spreads_addresses(self):
        table = IndexTable(buckets=64)
        buckets = {table.bucket_of(b) for b in range(0, 6400, 64)}
        # Same low bits everywhere; a bad hash would collapse to 1 bucket.
        assert len(buckets) > 16


class TestStats:
    def test_counts_lookups_hits_inserts_and_updates(self):
        table = IndexTable(buckets=1, bucket_entries=2)
        assert table.lookup(1) is None
        table.update(1, ptr(0, 0))
        table.update(2, ptr(0, 1))
        table.update(1, ptr(0, 2))  # re-point an existing entry
        table.update(3, ptr(0, 3))  # full bucket: 2 ages out
        assert table.lookup(1) == ptr(0, 2)
        stats = table.stats
        assert (stats.lookups, stats.hits) == (2, 1)
        assert (stats.inserts, stats.pointer_updates) == (3, 1)
        assert stats.replacements == 1


class TestBucketLru:
    def _conflicting_blocks(self, table: IndexTable, count: int) -> list:
        """Find ``count`` distinct blocks hashing to the same bucket."""
        target = table.bucket_of(0)
        found = [0]
        candidate = 1
        while len(found) < count:
            if table.bucket_of(candidate) == target:
                found.append(candidate)
            candidate += 1
        return found

    def test_full_bucket_replaces_lru(self):
        table = IndexTable(buckets=4, bucket_entries=3)
        blocks = self._conflicting_blocks(table, 4)
        for i, block in enumerate(blocks[:3]):
            table.update(block, ptr(0, i))
        # Touch the first so the second becomes LRU.
        table.lookup(blocks[0])
        replaced = table.update(blocks[3], ptr(0, 99))
        assert replaced
        assert table.lookup(blocks[1]) is None
        assert table.lookup(blocks[0]) is not None

    def test_occupancy_bounded_by_bucket_entries(self):
        table = IndexTable(buckets=4, bucket_entries=2)
        for block in range(100):
            table.update(block, ptr(0, block))
        assert table.occupancy() <= 4 * 2
        for bucket in range(4):
            assert len(table.bucket_contents(bucket)) <= 2

    def test_contents_in_recency_order(self):
        table = IndexTable(buckets=4, bucket_entries=4)
        blocks = self._conflicting_blocks(table, 3)
        for i, block in enumerate(blocks):
            table.update(block, ptr(0, i))
        bucket = table.bucket_of(blocks[0])
        tags = [tag for tag, _ in table.bucket_contents(bucket)]
        assert tags == [table.tag_of(b) for b in reversed(blocks)]


class TestTagTruncation:
    def test_full_tags_never_alias(self):
        table = IndexTable(buckets=4, tag_bits=None)
        table.update(0x10000, ptr(0, 1))
        # A different block with equal low bits must not match.
        if table.bucket_of(0x20000) == table.bucket_of(0x10000):
            assert table.lookup(0x20000) is None

    def test_truncated_tags_can_alias(self):
        table = IndexTable(buckets=1, tag_bits=4)
        table.update(0x13, ptr(0, 5))
        aliased = table.lookup(0x23)  # same low 4 bits (0x3)
        assert aliased == ptr(0, 5)


class TestAgainstReferenceModel:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=0, max_value=200),
            ),
            max_size=250,
        )
    )
    def test_matches_per_bucket_lru_dict(self, operations):
        """Model each bucket as an LRU-ordered list and compare."""
        table = IndexTable(buckets=8, bucket_entries=3)
        model: dict[int, list[tuple[int, HistoryPointer]]] = {
            b: [] for b in range(8)
        }
        sequence = 0
        for is_update, block in operations:
            bucket = table.bucket_of(block)
            entries = model[bucket]
            if is_update:
                pointer = ptr(0, sequence)
                sequence += 1
                table.update(block, pointer)
                for i, (tag, _) in enumerate(entries):
                    if tag == block:
                        entries.pop(i)
                        break
                else:
                    if len(entries) == 3:
                        entries.pop()
                entries.insert(0, (block, pointer))
            else:
                expected = None
                for i, (tag, pointer) in enumerate(entries):
                    if tag == block:
                        expected = pointer
                        entries.insert(0, entries.pop(i))
                        break
                assert table.lookup(block) == expected
        for bucket in range(8):
            assert table.bucket_contents(bucket) == model[bucket]
