"""Byte-layout tests: the packing claims of the paper must hold exactly."""

import pytest
from hypothesis import given, strategies as st

from repro.core.codec import (
    ADDRESS_BITS,
    HISTORY_ENTRIES_PER_BLOCK,
    INDEX_ENTRIES_PER_BUCKET,
    SEQ_BITS,
    TAG_BITS,
    pack_history_block,
    pack_index_bucket,
    unpack_history_block,
    unpack_index_bucket,
)
from repro.memory.config import BLOCK_BYTES


class TestHistoryBlockLayout:
    def test_twelve_entries_fit_one_block(self):
        entries = [(i + 1, i % 2 == 0) for i in range(12)]
        payload = pack_history_block(entries)
        assert len(payload) == BLOCK_BYTES

    def test_round_trip(self):
        entries = [(123456789, True), (1, False), ((1 << ADDRESS_BITS) - 1, True)]
        decoded = unpack_history_block(pack_history_block(entries))
        assert decoded[: len(entries)] == entries

    def test_rejects_thirteen_entries(self):
        with pytest.raises(ValueError):
            pack_history_block([(1, False)] * 13)

    def test_rejects_oversized_address(self):
        with pytest.raises(ValueError):
            pack_history_block([(1 << ADDRESS_BITS, False)])

    def test_rejects_wrong_payload_size(self):
        with pytest.raises(ValueError):
            unpack_history_block(b"\x00" * 32)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << ADDRESS_BITS) - 1),
                st.booleans(),
            ),
            max_size=HISTORY_ENTRIES_PER_BLOCK,
        )
    )
    def test_round_trip_property(self, entries):
        decoded = unpack_history_block(pack_history_block(entries))
        assert decoded[: len(entries)] == entries


class TestIndexBucketLayout:
    def test_twelve_entries_fit_one_block(self):
        entries = [(i, i % 4, i * 1000) for i in range(12)]
        payload = pack_index_bucket(entries)
        assert len(payload) == BLOCK_BYTES

    def test_round_trip_preserves_order(self):
        entries = [(7, 1, 99), (3, 0, 12345), (65535, 3, (1 << SEQ_BITS) - 1)]
        decoded = unpack_index_bucket(pack_index_bucket(entries))
        assert decoded[: len(entries)] == entries

    def test_rejects_oversized_fields(self):
        with pytest.raises(ValueError):
            pack_index_bucket([(1 << TAG_BITS, 0, 0)])
        with pytest.raises(ValueError):
            pack_index_bucket([(0, 4, 0)])
        with pytest.raises(ValueError):
            pack_index_bucket([(0, 0, 1 << SEQ_BITS)])

    def test_rejects_thirteen_entries(self):
        with pytest.raises(ValueError):
            pack_index_bucket([(0, 0, 0)] * (INDEX_ENTRIES_PER_BUCKET + 1))

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << TAG_BITS) - 1),
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=(1 << SEQ_BITS) - 1),
            ),
            max_size=INDEX_ENTRIES_PER_BUCKET,
        )
    )
    def test_round_trip_property(self, entries):
        decoded = unpack_index_bucket(pack_index_bucket(entries))
        assert decoded[: len(entries)] == entries
